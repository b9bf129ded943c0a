"""Service chaos: worker kill/hang, disk full, store tamper, quarantine.

The chaos property under test (ISSUE 9): under any injected kill/hang
schedule, no run is lost or double-completed, and recovered result
tables are byte-identical to an undisturbed run of the same scenario.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.experiments.retry import RetryPolicy
from repro.service.chaos import ServiceFaultPlan, tamper_stored_table
from repro.service.jobs import JobService, ServiceDegradedError
from repro.service.scenario import scenario_from_jsonable
from repro.service.store import RunStore


def scen(name: str, seed: int = 3, reps: int = 2):
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


def wait_state(store, run_id, states, timeout=60.0) -> str:
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


def undisturbed_table_bytes(tmp_path, scenario) -> bytes:
    """The scenario's stored table from a pristine, fault-free store."""
    store = RunStore(tmp_path / "undisturbed")
    record, _ = store.register(scenario)
    assert store.execute(record) == "done"
    return (record.tables_dir / "SCENARIO.json").read_bytes()


def fast_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=attempts, backoff_base=0.05, backoff_cap=0.2,
        retry_timeouts=True,
    )


class TestFaultPlanValidation:
    def test_accepts_only_service_atoms(self):
        plan = ServiceFaultPlan.from_spec("worker:kill@1,store:tamper@2")
        assert plan.plan.service_seqs() == (1, 2)
        with pytest.raises(ConfigurationError, match="service fault ids"):
            ServiceFaultPlan.from_spec("T1:raise@1")
        with pytest.raises(ConfigurationError, match="service fault kind"):
            ServiceFaultPlan.from_spec("worker:tamper@1")


class TestWorkerKill:
    def test_killed_worker_requeues_and_matches_undisturbed_run(self, tmp_path):
        scenario = scen("chaos-kill", seed=31)
        expected = undisturbed_table_bytes(tmp_path, scenario)
        store = RunStore(tmp_path / "s")
        svc = JobService(
            store, retry=fast_retry(), fault_spec="worker:kill@1",
            heartbeat_interval=0.2,
        )
        svc.start()
        try:
            summary = svc.submit(scenario)
            run_id = summary["run_id"]
            assert wait_state(store, run_id, ("done",)) == "done"
        finally:
            svc.stop(drain=True)
        # exactly one completion, resumed after the death
        events = [r["event"] for r in store.journal(run_id)]
        assert events.count("done") == 1
        assert "worker-died" in events
        # the chaos property: byte-identical to the undisturbed run
        run_dir = store.run_dir(run_id)
        assert (run_dir / "tables" / "SCENARIO.json").read_bytes() == expected
        assert store.replay(run_id).identical


class TestWorkerHang:
    def test_hung_worker_is_deadline_killed_then_recovers(self, tmp_path):
        scenario = scen("chaos-hang", seed=32)
        expected = undisturbed_table_bytes(tmp_path, scenario)
        store = RunStore(tmp_path / "s")
        svc = JobService(
            store, retry=fast_retry(), fault_spec="worker:hang@1",
            run_timeout=2.0, heartbeat_interval=0.2,
        )
        svc.start()
        try:
            summary = svc.submit(scenario)
            run_id = summary["run_id"]
            assert wait_state(store, run_id, ("done",)) == "done"
        finally:
            svc.stop(drain=True)
        events = [r["event"] for r in store.journal(run_id)]
        assert "worker-timeout" in events
        assert events.count("done") == 1
        run_dir = store.run_dir(run_id)
        assert (run_dir / "tables" / "SCENARIO.json").read_bytes() == expected


class TestDiskFull:
    def test_enospc_is_transient_and_retried_to_success(self, tmp_path):
        scenario = scen("chaos-disk", seed=33)
        store = RunStore(tmp_path / "s")
        svc = JobService(
            store, retry=fast_retry(), fault_spec="disk:full@1",
        )
        svc.start()
        try:
            summary = svc.submit(scenario)
            run_id = summary["run_id"]
            assert wait_state(store, run_id, ("done",)) == "done"
        finally:
            svc.stop(drain=True)
        errors = [
            r["error"] for r in store.journal(run_id)
            if r["event"] == "worker-error"
        ]
        assert any("No space left" in e for e in errors)
        assert store.replay(run_id).identical


class TestStoreTamper:
    def test_tampered_table_is_quarantined_never_served(self, tmp_path):
        scenario = scen("chaos-tamper", seed=34)
        store = RunStore(tmp_path / "s")
        svc = JobService(store, fault_spec="store:tamper@1")
        svc.start()
        try:
            summary = svc.submit(scenario)
            run_id = summary["run_id"]
            assert wait_state(store, run_id, ("done",)) == "done"
        finally:
            svc.stop(drain=True)
        # verify-on-read refuses the bytes and parks the run
        with pytest.raises(ChecksumMismatchError, match="integrity"):
            store.serve_table(run_id)
        assert store.status(run_id).get("state") == "quarantined"
        failures = store.failures()
        assert [f["run_id"] for f in failures] == [run_id]
        assert "integrity" in failures[0]["error"]
        # the untouched loader still reports the mismatch too
        with pytest.raises(ChecksumMismatchError):
            store.load_table(run_id)

    def test_tamper_helper_perturbs_without_fixing_checksum(self, tmp_path):
        store = RunStore(tmp_path / "s")
        record, _ = store.register(scen("tamper-direct", seed=35))
        store.execute(record)
        before = (record.tables_dir / "SCENARIO.json").read_bytes()
        assert tamper_stored_table(record.root)
        after = (record.tables_dir / "SCENARIO.json").read_bytes()
        assert before != after
        data = json.loads(after)
        assert data["checksum"] == json.loads(before)["checksum"]


class TestQuarantineAndDegraded:
    def test_poison_run_quarantined_and_service_degrades(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(
            store, retry=fast_retry(attempts=3), degraded_after=3,
            fault_spec="worker:kill@1,worker:kill@2,worker:kill@3",
        )
        svc.start()
        try:
            summary = svc.submit(scen("poison", seed=36))
            run_id = summary["run_id"]
            assert wait_state(store, run_id, ("quarantined",)) == "quarantined"
            # three consecutive substrate deaths: degraded mode engaged
            assert svc.stats()["degraded"] is True
            with pytest.raises(ServiceDegradedError, match="degraded"):
                svc.submit(scen("rejected", seed=37))
            # quarantined runs report their final state on cancel
            assert svc.cancel(run_id)["state"] == "quarantined"
        finally:
            svc.stop(drain=True)
        status = store.status(run_id)
        assert "attempt 3/3" in status.get("error", "")
        events = [r["event"] for r in store.journal(run_id)]
        assert events.count("worker-died") == 3
        assert "quarantined" in events

    def test_one_success_restores_degraded_service(self, tmp_path):
        store = RunStore(tmp_path / "s")
        svc = JobService(store, degraded_after=2)
        svc._note_substrate_failure()
        svc._note_substrate_failure()
        assert svc.stats()["degraded"] is True
        with pytest.raises(ServiceDegradedError):
            svc.submit(scen("while-degraded", seed=38))
        svc._note_success()
        assert svc.stats()["degraded"] is False
        assert svc.submit(scen("after-recovery", seed=39))["state"] == "queued"

    def test_permanent_failure_is_not_retried(self, tmp_path):
        store = RunStore(tmp_path / "s")
        # n=8 with an unknown adversary never validates, so instead make
        # the run permanently fail at execution: corrupt scenario.json
        # after registration (ConfigurationError -> ReproError -> permanent).
        record, _ = store.register(scen("permanent", seed=40))
        (record.root / "scenario.json").write_text("{not json")
        svc = JobService(store, retry=fast_retry(attempts=3))
        svc.start()
        try:
            state = wait_state(store, record.run_id, ("failed", "quarantined"))
        finally:
            svc.stop(drain=True)
        assert state == "failed"  # permanent: failed directly, no retries
        attempts = [
            r for r in store.journal(record.run_id)
            if r["event"] == "worker-error"
        ]
        assert len(attempts) == 1
