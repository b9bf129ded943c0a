"""HTTP API: live-server round-trips over the full surface."""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.api import make_server
from repro.service.jobs import JobService
from repro.service.scenario import scenario_from_jsonable
from repro.service.store import RunStore

DOC = b"""
scenario: api-t
schema: 1
seed: 5
grid:
  kind: [lesk]
  n: [8]
  adversary: [random]
reps: 3
sharding: {block_size: 2}
"""


@pytest.fixture()
def server(tmp_path):
    """A live service on an ephemeral port; yields its base URL."""
    service = JobService(RunStore(tmp_path / "store"), queue_limit=4)
    service.start()
    srv = make_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}", service
    finally:
        srv.shutdown()
        srv.server_close()
        service.stop(drain=True)


def request(method: str, url: str, body: bytes | None = None):
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def request_full(method: str, url: str, body: bytes | None = None):
    """Like :func:`request` but also returns the response headers."""
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


@contextlib.contextmanager
def live_server(service: JobService):
    """Serve an (optionally unstarted) JobService on an ephemeral port."""
    srv = make_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()


def scen(name: str, seed: int) -> bytes:
    return json.dumps(
        {
            "scenario": name,
            "schema": 1,
            "seed": seed,
            "grid": {"kind": ["lesk"], "n": [8], "adversary": ["random"]},
            "reps": 1,
        }
    ).encode()


def submit_and_wait(base: str, doc: bytes = DOC, timeout: float = 30.0) -> str:
    code, body = request("POST", f"{base}/v1/scenarios", doc)
    assert code == 200, body
    run_id = json.loads(body)["run_id"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = request("GET", f"{base}/v1/runs/{run_id}")
        if json.loads(status).get("state") in ("done", "failed"):
            return run_id
        time.sleep(0.02)
    raise AssertionError(f"run {run_id} never finished: {status}")


class TestSubmitAndFetch:
    def test_full_round_trip(self, server):
        base, _ = server
        run_id = submit_and_wait(base)

        code, body = request("GET", f"{base}/v1/runs/{run_id}")
        status = json.loads(body)
        assert (code, status["state"]) == (200, "done")
        assert status["cells_done"] == status["cells_total"] == 1

        code, body = request("GET", f"{base}/v1/runs/{run_id}/results")
        assert code == 200
        table = json.loads(body)["table"]
        assert table["rows"][0]["reps"] == 3

        code, text = request(
            "GET", f"{base}/v1/runs/{run_id}/results?format=txt"
        )
        assert code == 200 and "scenario api-t" in text
        code, csv_text = request(
            "GET", f"{base}/v1/runs/{run_id}/results?format=csv"
        )
        assert code == 200 and csv_text.startswith("kind,")

        code, journal = request("GET", f"{base}/v1/runs/{run_id}/journal")
        events = [json.loads(line)["event"] for line in journal.splitlines()]
        assert events[0] == "registered" and events[-1] == "done"

        code, body = request("GET", f"{base}/v1/runs")
        assert code == 200 and json.loads(body)[0]["run_id"] == run_id

    def test_replay_endpoint_reproduces(self, server):
        base, _ = server
        run_id = submit_and_wait(base)
        code, body = request("POST", f"{base}/v1/runs/{run_id}/replay")
        assert code == 200
        assert json.loads(body)["identical"] is True

    def test_tampered_results_return_500(self, server):
        base, service = server
        run_id = submit_and_wait(base)
        path = (
            service.store.run_dir(run_id) / "tables" / "SCENARIO.json"
        )
        data = json.loads(path.read_text())
        data["table"]["rows"][0]["success"] = 0.5
        path.write_text(json.dumps(data))
        code, body = request("GET", f"{base}/v1/runs/{run_id}/results")
        assert code == 500
        assert "integrity" in json.loads(body)["error"]
        code, body = request("POST", f"{base}/v1/runs/{run_id}/replay")
        assert code == 500


class TestErrors:
    def test_invalid_document_is_400_with_paths(self, server):
        base, _ = server
        bad = b'{"scenario":"x","schema":1,"grid":{"n":[8],"adversary":["bogus"]},"reps":1}'
        code, body = request("POST", f"{base}/v1/scenarios", bad)
        assert code == 400
        assert "grid.adversary[0]" in json.loads(body)["error"]

    def test_unknown_run_is_404(self, server):
        base, _ = server
        code, body = request("GET", f"{base}/v1/runs/ffffffffffffffff")
        assert code == 404
        code, body = request("GET", f"{base}/v1/runs/ffffffffffffffff/results")
        assert code == 404

    def test_results_before_done_is_409(self, server):
        base, service = server
        record, _ = service.store.register(
            scenario_from_jsonable(
                {
                    "scenario": "never-run",
                    "schema": 1,
                    "seed": 6,
                    "grid": {"n": [8]},
                    "reps": 1,
                }
            )
        )
        code, body = request("GET", f"{base}/v1/runs/{record.run_id}/results")
        assert code == 409

    def test_unknown_route_is_404(self, server):
        base, _ = server
        assert request("GET", f"{base}/nope")[0] == 404
        assert request("POST", f"{base}/v1/nope")[0] == 404


class TestPagination:
    def test_envelope_with_params_bare_list_without(self, tmp_path):
        # an unstarted service: registered runs stay queued, order is stable
        service = JobService(RunStore(tmp_path / "store"), queue_limit=8)
        ids = []
        with live_server(service) as base:
            for i in range(3):
                code, body = request(
                    "POST", f"{base}/v1/scenarios", scen(f"page-{i}", 20 + i)
                )
                assert code == 200, body
                ids.append(json.loads(body)["run_id"])

            # back-compat: no params -> the bare JSON list, all runs
            code, body = request("GET", f"{base}/v1/runs")
            assert code == 200
            assert [r["run_id"] for r in json.loads(body)] == ids

            # with params -> the pagination envelope, in registration order
            code, body = request("GET", f"{base}/v1/runs?limit=2&offset=1")
            assert code == 200
            page = json.loads(body)
            assert [r["run_id"] for r in page["runs"]] == ids[1:3]
            assert (page["total"], page["limit"], page["offset"]) == (3, 2, 1)

            # offset past the end is an empty page, not an error
            code, body = request("GET", f"{base}/v1/runs?limit=2&offset=9")
            assert code == 200 and json.loads(body)["runs"] == []

    def test_page_and_total_match_the_store_from_one_scan(
        self, tmp_path, monkeypatch
    ):
        store = RunStore(tmp_path / "store")
        service = JobService(store, queue_limit=8)  # unstarted: runs stay queued
        with live_server(service) as base:
            for i in range(4):
                code, body = request(
                    "POST", f"{base}/v1/scenarios", scen(f"scan-{i % 2}", 40 + i)
                )
                assert code == 200, body
            store.set_state(json.loads(body)["run_id"], "failed", error="x")

            scans = []
            scan = store._scan
            monkeypatch.setattr(
                store, "_scan", lambda *a: scans.append(a) or scan(*a)
            )
            for query, filters, limit, offset in (
                ("limit=2&offset=1", {}, 2, 1),
                ("limit=1&state=queued", {"state": "queued"}, 1, 0),
                ("offset=1&name=scan-1", {"name": "scan-1"}, None, 1),
                ("limit=5&state=failed", {"state": "failed"}, 5, 0),
            ):
                del scans[:]
                code, body = request("GET", f"{base}/v1/runs?{query}")
                assert code == 200, query
                # one pass over runs/*/ gives both the page and the total
                assert len(scans) == 1, query
                page = json.loads(body)
                assert page["runs"] == store.query(
                    **filters, limit=limit, offset=offset
                ), query
                assert page["total"] == len(store.query(**filters)), query

    def test_bad_pagination_params_are_400(self, tmp_path):
        service = JobService(RunStore(tmp_path / "store"))
        with live_server(service) as base:
            for query in ("limit=-1", "limit=x", "offset=-2", "offset=nan"):
                code, body = request("GET", f"{base}/v1/runs?{query}")
                assert code == 400, query
                assert "non-negative" in json.loads(body)["error"]


class TestRetryAfter:
    def test_429_carries_retry_after_header(self, tmp_path):
        # unstarted service with a one-slot queue: the second submission
        # must be told to back off, with a machine-readable hint
        service = JobService(RunStore(tmp_path / "store"), queue_limit=1)
        with live_server(service) as base:
            code, _, _ = request_full(
                "POST", f"{base}/v1/scenarios", scen("fill", 30)
            )
            assert code == 200
            code, body, headers = request_full(
                "POST", f"{base}/v1/scenarios", scen("overflow", 31)
            )
            assert code == 429
            assert "retry later" in json.loads(body)["error"]
            assert int(headers["Retry-After"]) >= 1

    def test_degraded_service_is_503_with_retry_after(self, tmp_path):
        service = JobService(RunStore(tmp_path / "store"), degraded_after=2)
        service._note_substrate_failure()
        service._note_substrate_failure()
        with live_server(service) as base:
            code, body, headers = request_full(
                "POST", f"{base}/v1/scenarios", scen("degraded", 32)
            )
            assert code == 503
            assert "degraded" in json.loads(body)["error"]
            assert int(headers["Retry-After"]) >= 1
            # reads are still served while degraded
            assert request("GET", f"{base}/v1/runs")[0] == 200


class TestFailures:
    def test_failures_endpoint_lists_quarantined_and_failed(self, tmp_path):
        store = RunStore(tmp_path / "store")
        service = JobService(store)
        ok, _ = store.register(
            scenario_from_jsonable(json.loads(scen("f-ok", 40)))
        )
        bad, _ = store.register(
            scenario_from_jsonable(json.loads(scen("f-bad", 41)))
        )
        store.set_state(bad.run_id, "failed", error="boom")
        with live_server(service) as base:
            code, body = request("GET", f"{base}/v1/failures")
            assert code == 200
            rows = json.loads(body)
            assert [r["run_id"] for r in rows] == [bad.run_id]
            assert rows[0]["error"] == "boom"


class TestOps:
    def test_healthz_and_metrics(self, server):
        base, _ = server
        code, body = request("GET", f"{base}/healthz")
        assert code == 200 and json.loads(body)["ok"]
        code, body = request("GET", f"{base}/metrics")
        assert code == 200  # telemetry disabled by default -> stub body
