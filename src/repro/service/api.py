"""Local HTTP surface for the job service (stdlib only).

``python -m repro serve`` binds a :class:`ThreadingHTTPServer` whose
handler delegates to a :class:`~repro.service.jobs.JobService`.  The
surface is deliberately small and versioned under ``/v1``:

=======  ==============================  =======================================
method   path                            action
=======  ==============================  =======================================
POST     ``/v1/scenarios``               submit a scenario document (YAML/JSON
                                         body); 200 with ``run_id``, 400 on
                                         validation error (path-qualified
                                         message in ``error``), 429 (with a
                                         ``Retry-After`` header) when the
                                         bounded queue is full, 503 (also
                                         ``Retry-After``) while degraded
GET      ``/v1/runs``                    list runs in registration order
                                         (``?state=``, ``?name=``);
                                         ``?limit=``/``?offset=`` paginate
                                         and switch the response to an
                                         envelope with
                                         ``runs``/``total``/``limit``/``offset``
GET      ``/v1/failures``                the FAILURES view: failed and
                                         quarantined runs, newest-registered
                                         first
GET      ``/v1/runs/<id>``               status + journal-derived progress
GET      ``/v1/runs/<id>/journal``       the append-only event log (JSONL)
GET      ``/v1/runs/<id>/results``       checksummed result table
                                         (``?format=json|txt|csv``); 409 until
                                         the run is ``done``, 500 on tamper
                                         (verify-on-read: the run is
                                         quarantined, the bytes never served)
POST     ``/v1/runs/<id>/cancel``        cooperative cancellation
POST     ``/v1/runs/<id>/replay``        synchronous bit-replay; ``identical``
                                         in the body, 500 on divergence/tamper
GET      ``/healthz``                    liveness + queue/worker/degraded stats
GET      ``/metrics``                    Prometheus text exposition
=======  ==============================  =======================================

Run ids accept any unique digest prefix, mirroring the CLI.  Reads keep
working while the service is degraded -- only submissions 503.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import telemetry
from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.service.jobs import (
    BackpressureError,
    JobService,
    ServiceDegradedError,
)
from repro.service.scenario import parse_scenario

__all__ = ["make_server", "ServiceHandler"]

MAX_BODY_BYTES = 1 << 20  # a scenario document, not a payload channel


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes /v1 requests onto the owning server's JobService."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # Set by make_server on the server object; typed here for clarity.
    service: JobService

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # -- plumbing ----------------------------------------------------------

    @property
    def svc(self) -> JobService:
        return self.server.service  # type: ignore[attr-defined]

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _json(
        self, code: int, payload: dict | list, headers: dict | None = None
    ) -> None:
        self._send(
            code,
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
            "application/json",
            headers=headers,
        )

    def _text(self, code: int, text: str, content_type: str = "text/plain") -> None:
        self._send(code, text.encode(), content_type)

    def _error(self, code: int, message: str, headers: dict | None = None) -> None:
        self._json(code, {"error": message}, headers=headers)

    def _body(self) -> str:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ConfigurationError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        return self.rfile.read(length).decode("utf-8", errors="replace")

    # -- dispatch ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Route read-only endpoints (health, metrics, run queries)."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._json(200, {"ok": True, **self.svc.stats()})
            elif parts == ["metrics"]:
                tel = telemetry.get_telemetry()
                text = (
                    telemetry.prometheus_text(tel.metrics)
                    if tel.enabled
                    else "# telemetry disabled\n"
                )
                self._text(200, text, "text/plain; version=0.0.4")
            elif parts == ["v1", "runs"]:
                self._list_runs(parse_qs(url.query))
            elif parts == ["v1", "failures"]:
                self._json(200, self.svc.store.failures())
            elif len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                record = self.svc.store.get(parts[2])
                self._json(200, self.svc.store.progress(record.run_id))
            elif len(parts) == 4 and parts[:2] == ["v1", "runs"]:
                self._get_run_sub(parts[2], parts[3], parse_qs(url.query))
            else:
                self._error(404, f"no route for GET {url.path}")
        except ConfigurationError as exc:
            self._error(404 if "no run" in str(exc) else 400, str(exc))
        except ChecksumMismatchError as exc:
            self._error(500, str(exc))

    def _list_runs(self, query: dict) -> None:
        """GET /v1/runs: bare list, or a paginated envelope with limit/offset.

        The response shape is backward compatible: without pagination
        params clients get the PR 8 bare JSON list; with either param
        they get ``{"runs", "total", "limit", "offset"}`` so they can
        page through ``total`` in stable registration order.
        """
        state = (query.get("state") or [None])[0]
        name = (query.get("name") or [None])[0]
        raw_limit = (query.get("limit") or [None])[0]
        raw_offset = (query.get("offset") or [None])[0]
        if raw_limit is None and raw_offset is None:
            self._json(200, self.svc.store.query(state=state, name=name))
            return
        try:
            limit = None if raw_limit is None else int(raw_limit)
            offset = 0 if raw_offset is None else int(raw_offset)
            if (limit is not None and limit < 0) or offset < 0:
                raise ValueError
        except ValueError:
            self._error(
                400,
                f"limit/offset must be non-negative integers "
                f"(got limit={raw_limit!r}, offset={raw_offset!r})",
            )
            return
        runs, total = self.svc.store.page(state, name, limit, offset)
        self._json(
            200, {"runs": runs, "total": total, "limit": limit, "offset": offset}
        )

    def _get_run_sub(self, run_id: str, sub: str, query: dict) -> None:
        store = self.svc.store
        record = store.get(run_id)
        if sub == "journal":
            lines = [
                json.dumps(rec, sort_keys=True)
                for rec in store.journal(record.run_id)
            ]
            self._text(200, "\n".join(lines) + "\n", "application/jsonl")
        elif sub == "results":
            status = store.status(record.run_id)
            state = status.get("state")
            if state == "quarantined":
                # Never serve a quarantined run; surface why it is parked.
                self._error(
                    500,
                    f"run {record.run_id} is quarantined: "
                    f"{status.get('error', 'unknown reason')}",
                )
                return
            if state != "done":
                self._error(
                    409, f"run {record.run_id} is {state!r}, not 'done'"
                )
                return
            # Verify-on-read: a checksum mismatch quarantines the run and
            # raises (mapped to 500 below); tampered bytes never leave.
            table = store.serve_table(record.run_id)
            fmt = (query.get("format") or ["json"])[0]
            if fmt == "txt":
                self._text(200, table.render() + "\n")
            elif fmt == "csv":
                self._text(200, table.to_csv() + "\n", "text/csv")
            elif fmt == "json":
                self._json(
                    200,
                    {"run_id": record.run_id, "table": table.to_jsonable()},
                )
            else:
                self._error(400, f"unknown format {fmt!r}; use json|txt|csv")
        elif sub == "manifest":
            self._json(200, store.manifest(record.run_id))
        else:
            self._error(404, f"no route for GET /v1/runs/<id>/{sub}")

    def do_POST(self) -> None:  # noqa: N802
        """Route mutating endpoints (submit, cancel, replay)."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "scenarios"]:
                scenario = parse_scenario(self._body(), source="<http>")
                summary = self.svc.submit(
                    scenario,
                    invocation={"subcommand": "serve", "argv": ["POST /v1/scenarios"]},
                )
                self._json(200, summary)
            elif len(parts) == 4 and parts[:2] == ["v1", "runs"]:
                run_id, action = parts[2], parts[3]
                if action == "cancel":
                    self._json(200, self.svc.cancel(run_id))
                elif action == "replay":
                    report = self.svc.store.replay(
                        run_id, jobs=self.svc.jobs_per_run
                    )
                    payload = {
                        "run_id": report.run_id,
                        "identical": report.identical,
                        "detail": report.detail,
                    }
                    self._json(200 if report.identical else 500, payload)
                else:
                    self._error(404, f"no route for POST /v1/runs/<id>/{action}")
            else:
                self._error(404, f"no route for POST {url.path}")
        except BackpressureError as exc:
            self._error(
                429, str(exc),
                headers={"Retry-After": self.svc.retry_after_hint()},
            )
        except ServiceDegradedError as exc:
            self._error(
                503, str(exc),
                headers={"Retry-After": self.svc.retry_after_hint()},
            )
        except ConfigurationError as exc:
            self._error(404 if "no run" in str(exc) else 400, str(exc))
        except ChecksumMismatchError as exc:
            self._error(500, str(exc))


def make_server(
    service: JobService, host: str = "127.0.0.1", port: int = 0, verbose: bool = False
) -> ThreadingHTTPServer:
    """Bind the service's HTTP server (port 0 picks a free port)."""
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server
