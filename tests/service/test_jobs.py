"""Job service: lifecycle, backpressure, cancellation, restart recovery."""

from __future__ import annotations

import logging
import shutil
import time
from pathlib import Path

import pytest

from repro.experiments.parallel import PoolEvent, Task
from repro.service.jobs import BackpressureError, JobService
from repro.service.scenario import scenario_from_jsonable
from repro.service.store import RunStore
from repro.telemetry import collecting


def scen(name: str, seed: int = 3, reps: int = 2) -> dict:
    return scenario_from_jsonable(
        {
            "scenario": name,
            "schema": 1,
            "seed": seed,
            "grid": {"kind": ["lesk"], "n": [8], "adversary": ["random"]},
            "reps": reps,
            "sharding": {"block_size": 2},
        }
    )


def wait_state(store, run_id, states=("done", "failed"), timeout=30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = store.status(run_id).get("state")
        if state in states:
            return state
        time.sleep(0.02)
    raise AssertionError(
        f"run {run_id} never reached {states}; stuck at "
        f"{store.status(run_id)!r}"
    )


class TestLifecycle:
    def test_submit_executes_to_done(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store)
        svc.start()
        try:
            summary = svc.submit(scen("lifecycle"))
            assert summary["state"] == "queued"
            assert wait_state(store, summary["run_id"]) == "done"
            store.load_table(summary["run_id"])  # table exists + verifies
        finally:
            svc.stop(drain=True)

    def test_resubmit_of_done_run_is_cached(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store)
        svc.start()
        try:
            first = svc.submit(scen("cached"))
            wait_state(store, first["run_id"])
            again = svc.submit(scen("cached"))
            assert again["run_id"] == first["run_id"]
            assert again["state"] == "done"
        finally:
            svc.stop(drain=True)

    def test_invalid_params_rejected(self, tmp_path):
        store = RunStore(tmp_path / "s")
        with pytest.raises(Exception):
            JobService(store, queue_limit=0)
        with pytest.raises(Exception):
            JobService(store, workers=0)


class TestBackpressure:
    def test_full_queue_rejects_submission(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store, queue_limit=2)  # workers never started
        assert svc.submit(scen("bp-0", seed=100))["state"] == "queued"
        assert svc.submit(scen("bp-1", seed=101))["state"] == "queued"
        with pytest.raises(BackpressureError, match="queue full"):
            svc.submit(scen("bp-2", seed=102))

    def test_duplicate_pending_submission_coalesces(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store, queue_limit=1)
        svc.submit(scen("bp-dup"))
        # the same document again occupies no extra queue slot
        assert svc.submit(scen("bp-dup"))["state"] == "queued"

    def test_stopping_service_rejects_submissions(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store)
        svc.start()
        svc.stop(drain=True)
        with pytest.raises(BackpressureError, match="shutting down"):
            svc.submit(scen("late"))


class TestCancel:
    def test_cancel_queued_run(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store)  # not started: stays queued
        summary = svc.submit(scen("cancel-q"))
        assert svc.cancel(summary["run_id"])["state"] == "cancelling"
        svc.start()
        try:
            assert (
                wait_state(store, summary["run_id"], states=("cancelled",))
                == "cancelled"
            )
        finally:
            svc.stop(drain=True)

    def test_cancel_finished_run_reports_final_state(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store)
        svc.start()
        try:
            summary = svc.submit(scen("cancel-done"))
            wait_state(store, summary["run_id"])
            assert svc.cancel(summary["run_id"])["state"] == "done"
        finally:
            svc.stop(drain=True)


class TestRestartRecovery:
    def test_rescan_requeues_interrupted_runs(self, tmp_path):
        store = RunStore(tmp_path / "s")
        # simulate a dead service: runs registered but never executed,
        # one marked running as if the process died mid-flight
        queued, _ = store.register(scen("recover-a", seed=201))
        crashed, _ = store.register(scen("recover-b", seed=202))
        store.set_state(crashed.run_id, "running")

        svc = JobService(store)
        svc.start()  # rescan happens here
        try:
            assert wait_state(store, queued.run_id) == "done"
            assert wait_state(store, crashed.run_id) == "done"
            assert store.replay(crashed.run_id).identical
        finally:
            svc.stop(drain=True)

    def test_deleted_queued_run_is_dropped_and_dispatch_continues(
        self, tmp_path, caplog
    ):
        store = RunStore(tmp_path / "s")
        svc = JobService(store)  # not started: the first run stays queued
        gone = svc.submit(scen("vanish", seed=203))["run_id"]
        shutil.rmtree(store.run_dir(gone))
        with collecting() as tel, caplog.at_level(logging.ERROR):
            svc.start()
            try:
                later = svc.submit(scen("after-vanish", seed=204))["run_id"]
                assert wait_state(store, later) == "done"
                assert svc._dispatcher.is_alive()
            finally:
                svc.stop(drain=True)
        assert tel.metrics.counter_value(
            "service_runs_dropped_total", reason="missing"
        ) == 1
        assert any(gone in rec.getMessage() for rec in caplog.records)
        assert svc.stats()["pending"] == 0

    @pytest.mark.parametrize("kind", ["error", "crash"])
    def test_failed_attempt_of_deleted_run_is_dropped_once(
        self, tmp_path, caplog, kind
    ):
        # A run whose directory is deleted while it runs: its worker's
        # failure reaches the dispatcher, which cannot journal it.  The
        # hooks are called directly, so the failure kind can be chosen.
        store = RunStore(tmp_path / "s")
        svc = JobService(store)
        gone = svc.submit(scen("vanish-running", seed=205))["run_id"]
        shutil.rmtree(store.run_dir(gone))
        task = Task(gone, (), f"run {gone}", executions=1)  # requeued
        with collecting() as tel, caplog.at_level(logging.ERROR):
            svc._handle_event(PoolEvent(kind, task, 1, 0.1, message="boom"))
            # the pool's retry finds the run forgotten and drops it quietly
            assert svc._before_dispatch(task, 2, 2) is None
        assert tel.metrics.counter_value(
            "service_runs_dropped_total", reason="missing"
        ) == 1
        assert [gone in r.getMessage() for r in caplog.records] == [True]
        assert svc.stats()["pending"] == 0

    def test_run_deleted_while_running_is_dropped_once(
        self, tmp_path, monkeypatch, caplog
    ):
        # The worker deletes the run's directory before the second of two
        # cells (two blocks each); its next block checkpoint must fail
        # instead of recreating runs/<id>/, and the dispatcher drops the
        # run once.
        from repro.service import store as store_module

        execute_cell = store_module.run_cells_sharded_report
        cells_started = []

        def delete_before_second_cell(specs, **kwargs):
            cells_started.append(specs[0].n)
            if len(cells_started) == 2:
                shutil.rmtree(Path(kwargs["checkpoint_dir"]).parent)
            return execute_cell(specs, **kwargs)

        monkeypatch.setattr(
            store_module, "run_cells_sharded_report", delete_before_second_cell
        )
        store = RunStore(tmp_path / "s")
        svc = JobService(store)
        scenario = scenario_from_jsonable(
            {
                "scenario": "vanish-mid-run",
                "schema": 1,
                "seed": 206,
                "grid": {"kind": ["lesk"], "n": [8, 16], "adversary": ["random"]},
                "reps": 4,
                "sharding": {"block_size": 2},
            }
        )
        with collecting() as tel, caplog.at_level(logging.ERROR):
            svc.start()
            try:
                gone = svc.submit(scenario)["run_id"]
                deadline = time.monotonic() + 30.0
                while svc.stats()["pending"] and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert svc.stats()["pending"] == 0
            finally:
                svc.stop(drain=True)
        assert not store.run_dir(gone).exists()
        assert store.status(gone) == {}
        assert tel.metrics.counter_value(
            "service_runs_dropped_total", reason="missing"
        ) == 1
        assert [gone in r.getMessage() for r in caplog.records] == [True]

    def test_stats_shape(self, tmp_path):
        svc = JobService(RunStore(tmp_path / "s"), queue_limit=5)
        stats = svc.stats()
        assert stats["queue_limit"] == 5
        assert stats["pending"] == 0
        assert not stats["stopping"]
