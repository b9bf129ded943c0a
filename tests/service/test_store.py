"""Run store: content addressing, execution, integrity, bit-replay."""

from __future__ import annotations

import json
import shutil
import time

import pytest

from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.experiments.retry import RetryPolicy
from repro.service.jobs import JobService
from repro.service.scenario import scenario_digest, scenario_from_jsonable
from repro.service.store import RUN_ID_LEN, RunStore

SMALL = {
    "scenario": "store-t",
    "schema": 1,
    "seed": 11,
    "grid": {"kind": ["lesk"], "n": [8, 16], "adversary": ["random"]},
    "reps": 4,
    "sharding": {"block_size": 2},
}


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


@pytest.fixture()
def scenario():
    return scenario_from_jsonable(SMALL)


def listed(i: int):
    """A small scenario per index; indices 0-3 have unsorted run ids."""
    return scenario_from_jsonable({**SMALL, "scenario": f"list-{i}", "seed": 60 + i})


def fast_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3, backoff_base=0.05, backoff_cap=0.2, retry_timeouts=True
    )


class TestRegister:
    def test_run_id_is_digest_prefix(self, store, scenario):
        record, created = store.register(scenario)
        assert created
        assert record.run_id == scenario_digest(scenario)[:RUN_ID_LEN]
        assert store.status(record.run_id)["state"] == "queued"

    def test_idempotent_by_content(self, store, scenario):
        record, created = store.register(scenario)
        # same document, different key order in source -> same run
        again = scenario_from_jsonable(json.loads(json.dumps(SMALL)))
        record2, created2 = store.register(again)
        assert not created2
        assert record2.run_id == record.run_id
        assert store.run_ids() == [record.run_id]

    def test_manifest_names_digest_and_invocation(self, store, scenario):
        record, _ = store.register(
            scenario, invocation={"subcommand": "test", "argv": ["x"]}
        )
        manifest = store.manifest(record.run_id)
        assert manifest["scenario_digest"] == scenario_digest(scenario)
        assert manifest["invocation"] == {"subcommand": "test", "argv": ["x"]}
        assert manifest["preset"] == "scenario"

    def test_get_by_unique_prefix(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.get(record.run_id[:6]).run_id == record.run_id
        with pytest.raises(ConfigurationError, match="no run"):
            store.get("ffffffff")

    def test_get_by_full_id_and_non_hex_ids(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.get(record.run_id).run_id == record.run_id
        for bad in ("..", "../runs", "ffffffffffffffff", record.run_id.upper()):
            with pytest.raises(ConfigurationError, match="no run"):
                store.get(bad)
        store.register(listed(0))
        with pytest.raises(ConfigurationError, match="ambiguous"):
            store.get("")


class TestExecuteAndReplay:
    def test_execute_writes_checksummed_table(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.execute(record, jobs=1) == "done"
        table = store.load_table(record.run_id)
        assert len(table.rows) == 2
        assert (record.root / "SCENARIO.txt").exists()
        assert (record.root / "SCENARIO.csv").exists()
        status = store.status(record.run_id)
        assert status["state"] == "done"
        assert status["table_checksum"]

    def test_done_run_is_not_reexecuted(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        journal_len = len(store.journal(record.run_id))
        assert store.execute(record) == "done"  # no-op
        assert len(store.journal(record.run_id)) == journal_len

    def test_results_invariant_under_worker_count(self, tmp_path, scenario):
        payloads = []
        for jobs in (1, 3):
            store = RunStore(tmp_path / f"store-{jobs}")
            record, _ = store.register(scenario)
            store.execute(record, jobs=jobs)
            payloads.append(
                (record.root / "tables" / "SCENARIO.json").read_text()
            )
        assert payloads[0] == payloads[1]

    def test_replay_is_bit_identical(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record, jobs=2)
        report = store.replay(record.run_id, jobs=1)
        assert report.identical, report.detail
        assert "REPRODUCED" in report.describe()

    def test_cancel_between_cells(self, store, scenario):
        record, _ = store.register(scenario)
        calls = iter([False, True])  # cancel before the second cell
        state = store.execute(record, should_cancel=lambda: next(calls))
        assert state == "cancelled"
        assert store.status(record.run_id)["state"] == "cancelled"

    def test_run_deleted_mid_flight_is_not_recreated(self, store, scenario):
        # Two cells of two blocks each: the directory vanishes after the
        # first cell, so the second cell's first block checkpoint finds
        # no run directory to write into.
        record, _ = store.register(scenario)
        polls = iter([False, True])
        states = []

        def delete_after_first_cell() -> bool:
            states.append(store.status(record.run_id).get("state"))
            if next(polls):
                shutil.rmtree(record.root)
            return False

        with pytest.raises(FileNotFoundError):
            store.execute(record, should_cancel=delete_after_first_cell)
        assert states == ["running", "running"]
        assert not record.root.exists()
        assert store.status(record.run_id) == {}
        assert store.run_ids() == []

    def test_interrupted_run_resumes_from_block_checkpoints(
        self, store, scenario
    ):
        record, _ = store.register(scenario)
        calls = iter([False, True])
        assert store.execute(record, should_cancel=lambda: next(calls)) == "cancelled"
        blocks_after_cancel = list(record.shards_dir.glob("block-*.json"))
        assert blocks_after_cancel  # first cell's blocks are checkpointed
        # re-execution restores those blocks and finishes identically
        assert store.execute(record) == "done"
        assert store.replay(record.run_id).identical

    def test_telemetry_export_when_enabled(self, tmp_path):
        scenario = scenario_from_jsonable(
            {**SMALL, "telemetry": {"enabled": True, "stride": 4}}
        )
        store = RunStore(tmp_path / "store")
        record, _ = store.register(scenario)
        store.execute(record)
        assert (record.root / "telemetry" / "telemetry.jsonl").exists()
        assert (record.root / "telemetry" / "metrics.prom").exists()


class TestIntegrity:
    def test_tampered_table_detected(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        path = record.tables_dir / "SCENARIO.json"
        data = json.loads(path.read_text())
        data["table"]["rows"][0]["success"] = 0.123
        path.write_text(json.dumps(data))
        with pytest.raises(ChecksumMismatchError, match="integrity"):
            store.load_table(record.run_id)
        with pytest.raises(ChecksumMismatchError):
            store.verify(record.run_id)

    def test_tampered_scenario_detected(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        path = record.root / "scenario.json"
        doc = json.loads(path.read_text())
        doc["seed"] = 999  # would silently change every seed derivation
        path.write_text(json.dumps(doc))
        with pytest.raises(ChecksumMismatchError, match="altered"):
            store.verify(record.run_id)

    def test_verify_passes_on_intact_run(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        store.verify(record.run_id)  # no raise


class TestQueryAndProgress:
    def test_query_filters(self, store, scenario):
        record, _ = store.register(scenario)
        assert store.query(state="queued")[0]["run_id"] == record.run_id
        assert store.query(state="done") == []
        assert store.query(name="store-t")[0]["run_id"] == record.run_id
        assert store.query(name="other") == []

    def test_progress_counts_cells(self, store, scenario):
        record, _ = store.register(scenario)
        store.execute(record)
        progress = store.progress(record.run_id)
        assert progress["cells_done"] == 2
        assert progress["cells_total"] == 2
        assert progress["state"] == "done"


class TestListing:
    """The run directories are the store's only index."""

    @pytest.fixture()
    def ids(self, store):
        ids = [store.register(listed(i))[0].run_id for i in range(4)]
        assert ids != sorted(ids)  # registration order is not id order
        return ids

    def test_registration_order_survives_status_changes(self, store, ids):
        assert [r["run_id"] for r in store.query()] == ids
        store.set_state(ids[0], "done")
        store.set_state(ids[2], "running")
        assert [r["run_id"] for r in store.query()] == ids
        assert RunStore(store.root).query()[2]["state"] == "running"

    def test_state_and_name_filters(self, store, ids):
        store.set_state(ids[1], "done")
        store.set_state(ids[3], "done")
        assert [r["run_id"] for r in store.query(state="done")] == [ids[1], ids[3]]
        assert [r["run_id"] for r in store.query(state="queued")] == [ids[0], ids[2]]
        rows = store.query(name="list-2")
        assert [(r["run_id"], r["scenario"]) for r in rows] == [(ids[2], "list-2")]
        assert store.query(name="list-2", state="done") == []

    def test_pagination(self, store, ids):
        assert [r["run_id"] for r in store.query(limit=2, offset=1)] == ids[1:3]
        assert [r["run_id"] for r in store.query(limit=0)] == []
        assert [r["run_id"] for r in store.query(offset=3)] == ids[3:]
        assert store.query(limit=2, offset=9) == []

    def test_query_order_filters_and_pagination(self, store, ids):
        store.set_state(ids[3], "done")
        # stable registration order, not update order
        assert [r["run_id"] for r in store.query()] == ids
        assert [r["run_id"] for r in store.query(limit=2, offset=1)] == ids[1:3]
        assert [r["run_id"] for r in store.query(state="done")] == [ids[3]]
        assert store.page()[1] == 4
        assert store.page(state="queued")[1] == 3
        assert store.page(name="list-1")[1] == 1

    def test_count(self, store, ids):
        store.set_state(ids[0], "failed", error="boom")
        assert store.page()[1] == 4
        assert store.page(state="queued")[1] == 3
        assert store.page(state="failed")[1] == 1
        assert store.page(name="list-0")[1] == 1
        assert store.page(name="nope")[1] == 0
        # the total counts every match, whatever the page holds
        rows, total = store.page(state="queued", limit=1, offset=1)
        assert [r["run_id"] for r in rows] == [ids[2]] and total == 3

    def test_failures_newest_registered_first(self, store, ids):
        store.set_state(ids[2], "quarantined", error="poison")
        store.set_state(ids[0], "failed", error="boom")  # changed last
        store.set_state(ids[1], "done")
        rows = store.failures()
        assert [r["run_id"] for r in rows] == [ids[2], ids[0]]
        assert [r["error"] for r in rows] == ["poison", "boom"]
        assert all(r["attempts"] == 0 for r in rows)

    def test_directory_mid_registration_is_skipped(self, store, ids):
        # register() creates the directory first and the manifest last
        (store.runs_dir / "0123456789abcdef").mkdir()
        (store.runs_dir / "0123456789abcdef" / "status.json").write_text(
            json.dumps({"state": "queued"})
        )
        torn = store.run_dir(ids[1]) / "manifest.json"
        torn.write_text(torn.read_text()[:20])
        assert [r["run_id"] for r in store.query()] == [ids[0], ids[2], ids[3]]
        assert store.page()[1] == 3
        assert store.failures() == []

    def test_resubmission_completes_a_cut_registration(self, store):
        record, _ = store.register(listed(0))
        (record.root / "manifest.json").unlink()  # killed before the manifest
        assert store.query() == []
        again, created = store.register(listed(0))
        assert (again.run_id, created) == (record.run_id, True)
        assert [r["run_id"] for r in store.query()] == [record.run_id]
        assert store.register(listed(0))[1] is False

    def test_store_without_stamps_lists_by_id_and_ignores_ledger_db(
        self, store, ids
    ):
        # a store written before registration stamps, with its sqlite file
        for run_id in ids[:2]:
            path = store.run_dir(run_id) / "manifest.json"
            manifest = json.loads(path.read_text())
            del manifest["registered_ns"]
            path.write_text(json.dumps(manifest))
        (store.root / "ledger.db").write_bytes(b"SQLite format 3\x00junk")
        assert [r["run_id"] for r in store.query()] == sorted(ids[:2]) + ids[2:]

    def test_attempts_count_a_killed_dispatch(self, store):
        svc = JobService(
            store, retry=fast_retry(), fault_spec="worker:kill@1",
            heartbeat_interval=0.2,
        )
        svc.start()
        try:
            run_id = svc.submit(listed(0))["run_id"]
            deadline = time.monotonic() + 60
            while store.status(run_id).get("state") != "done":
                assert time.monotonic() < deadline, store.status(run_id)
                time.sleep(0.02)
        finally:
            svc.stop(drain=True)
        [row] = store.query()
        assert (row["run_id"], row["state"], row["attempts"]) == (run_id, "done", 2)
        dispatched = [r for r in store.journal(run_id) if r["event"] == "dispatched"]
        assert [r["attempt"] for r in dispatched] == [1, 2]
