"""A submission wakes the dispatcher instead of waiting out its poll."""

from __future__ import annotations

import time

from repro.service import jobs
from repro.service.jobs import JobService
from repro.service.scenario import scenario_from_jsonable
from repro.service.store import RunStore


def test_submit_to_idle_service_does_not_wait_for_the_poll(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs, "_POLL_S", 5.0)
    store = RunStore(tmp_path / "s")
    svc = JobService(store)
    svc.start()
    try:
        time.sleep(0.3)  # the dispatcher is now blocked in its 5 s wait
        started = time.monotonic()
        run_id = svc.submit(scenario_from_jsonable({
            "scenario": "wake", "schema": 1, "seed": 5,
            "grid": {"kind": ["lesk"], "n": [8], "adversary": ["random"]},
            "reps": 2, "sharding": {"block_size": 2},
        }))["run_id"]
        while store.status(run_id).get("state") != "done":
            assert time.monotonic() - started < 4.0, "run waited out the poll"
            time.sleep(0.01)
        assert time.monotonic() - started < 2.5
    finally:
        svc.stop(drain=True)
