"""CLI for the service stack: ``repro scenario ...`` and ``repro serve``.

``scenario`` subcommands operate either directly on a store
(``--store DIR``) or against a live service (``--url http://host:port``):

* ``validate FILE...``  parse + validate; print digest and cell count
* ``run FILE``          register and execute synchronously in-process
* ``submit FILE``       enqueue on a live service (HTTP) or local store
* ``status RUN_ID``     state + journal-derived progress
* ``results RUN_ID``    fetch the result table (``--format json|txt|csv``)
* ``replay RUN_ID``     bit-replay; exit 0 iff the recomputed table is
                        byte-identical to the stored one (tampered or
                        bit-rotted stores exit nonzero)
* ``list``              enumerate registered runs in registration order
                        (``--state``, ``--limit``/``--offset``
                        pagination, ``--failures`` for the quarantine
                        view, newest-registered first)

``submit --url`` retries 429 (queue full) and 503 (degraded) responses
with bounded seeded backoff, honoring the server's ``Retry-After``
hint, before giving up.

``serve`` runs the long-lived job daemon: bounded queue, a supervised
worker-process pool (per-run deadlines, heartbeats, crash requeue,
quarantine), a rescan of the run directories on boot (crash recovery,
even from SIGKILL), HTTP API, and a SIGTERM handler that drains the
queue before exiting.  ``--inject-faults`` arms the service chaos layer
(``worker:kill@SEQ``, ``worker:hang@SEQ``, ``store:tamper@SEQ``,
``disk:full@SEQ``).

Exit codes follow the repo convention: 0 success, 1 failure (validation
error, divergent replay, failed run), 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import urllib.error
import urllib.request

from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.experiments.checkpoint import cli_invocation
from repro.service.scenario import expand, load_scenario, scenario_digest

__all__ = ["main", "serve_main"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


# -- HTTP client helpers ----------------------------------------------------


def _request(
    method: str, url: str, body: bytes | None = None
) -> tuple[int, str, dict]:
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read().decode(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers or {})
    except urllib.error.URLError as exc:
        raise ConfigurationError(f"cannot reach service at {url}: {exc.reason}")


def _print_response(status: int, body: str, headers: dict | None = None) -> int:
    print(body.rstrip("\n"))
    return 0 if status < 400 else 1


# -- scenario subcommands ---------------------------------------------------


def _store(args: argparse.Namespace):
    from repro.service.store import RunStore

    if args.store is None:
        raise ConfigurationError(
            "this invocation needs --store DIR (or --url for a live service)"
        )
    return RunStore(args.store)


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.files:
        try:
            scenario = load_scenario(path)
        except ConfigurationError as exc:
            print(exc, file=sys.stderr)
            failures += 1
            continue
        print(
            f"{path}: ok -- scenario {scenario.name!r}, "
            f"{scenario.cell_count} cells x {scenario.reps} reps, "
            f"digest {scenario_digest(scenario)}"
        )
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.file)
    store = _store(args)
    record, created = store.register(
        scenario, invocation=cli_invocation("scenario run", args.argv)
    )
    print(
        f"run {record.run_id} ({'registered' if created else 'exists'}) "
        f"in {record.root}"
    )
    state = store.execute(record, jobs=args.jobs, force=args.force)
    if state == "done":
        print(store.load_table(record.run_id).render())
        return 0
    print(f"run {record.run_id} finished {state}", file=sys.stderr)
    return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    if args.url:
        body = open(args.file, "rb").read()
        return _submit_with_retry(args, body)
    scenario = load_scenario(args.file)
    store = _store(args)
    record, created = store.register(
        scenario, invocation=cli_invocation("scenario submit", args.argv)
    )
    print(
        json.dumps(
            {
                "run_id": record.run_id,
                "created": created,
                "state": store.status(record.run_id).get("state"),
            },
            sort_keys=True,
        )
    )
    return 0


def _submit_with_retry(args: argparse.Namespace, body: bytes) -> int:
    """POST a scenario, retrying 429/503 with bounded seeded backoff.

    Backpressure is the service working as designed, so the client's
    default is to wait it out: up to ``--retries`` attempts, sleeping
    the deterministic :class:`~repro.experiments.retry.RetryPolicy`
    delay or the server's ``Retry-After`` hint, whichever is larger.
    """
    from repro.experiments.retry import RetryPolicy

    policy = RetryPolicy(
        max_attempts=max(1, args.retries), backoff_base=args.backoff,
        backoff_cap=30.0,
    )
    url = f"{args.url}/v1/scenarios"
    for attempt in range(1, policy.max_attempts + 1):
        status, text, headers = _request("POST", url, body)
        if status not in (429, 503) or attempt == policy.max_attempts:
            return _print_response(status, text, headers)
        delay = policy.delay("submit", attempt)
        try:
            delay = max(delay, float(headers.get("Retry-After", 0)))
        except (TypeError, ValueError):
            pass
        print(
            f"service busy (HTTP {status}); retrying in {delay:.1f}s "
            f"(attempt {attempt}/{policy.max_attempts})",
            file=sys.stderr,
        )
        time.sleep(delay)
    raise AssertionError("unreachable")


def _cmd_status(args: argparse.Namespace) -> int:
    if args.url:
        return _print_response(
            *_request("GET", f"{args.url}/v1/runs/{args.run_id}")
        )
    store = _store(args)
    record = store.get(args.run_id)
    print(json.dumps(store.progress(record.run_id), sort_keys=True))
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    if args.url:
        return _print_response(
            *_request(
                "GET",
                f"{args.url}/v1/runs/{args.run_id}/results?format={args.format}",
            )
        )
    store = _store(args)
    record = store.get(args.run_id)
    state = store.status(record.run_id).get("state")
    if state != "done":
        print(f"run {record.run_id} is {state!r}, not 'done'", file=sys.stderr)
        return 1
    table = store.load_table(record.run_id)
    if args.format == "txt":
        print(table.render())
    elif args.format == "csv":
        print(table.to_csv())
    else:
        print(json.dumps(table.to_jsonable(), sort_keys=True))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.url:
        return _print_response(
            *_request("POST", f"{args.url}/v1/runs/{args.run_id}/replay")
        )
    store = _store(args)
    report = store.replay(args.run_id, jobs=args.jobs)
    print(report.describe())
    return 0 if report.identical else 1


def _cmd_list(args: argparse.Namespace) -> int:
    if args.url:
        if args.failures:
            return _print_response(*_request("GET", f"{args.url}/v1/failures"))
        params = [
            f"{key}={value}"
            for key, value in (
                ("state", args.state),
                ("limit", args.limit),
                ("offset", args.offset),
            )
            if value is not None
        ]
        query = f"?{'&'.join(params)}" if params else ""
        return _print_response(*_request("GET", f"{args.url}/v1/runs{query}"))
    store = _store(args)
    if args.failures:
        rows = store.failures()
    else:
        rows = store.query(
            state=args.state, limit=args.limit, offset=args.offset or 0
        )
    for summary in rows:
        print(json.dumps(summary, sort_keys=True))
    return 0


def _add_locator(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", default=None, help="run store directory")
    p.add_argument(
        "--url", default=None, help="live service base URL (e.g. http://127.0.0.1:8765)"
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro scenario ...`` entry point."""
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="repro scenario", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate scenario documents")
    p.add_argument("files", nargs="+", help="scenario YAML/JSON files")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="register and execute a scenario in-process")
    p.add_argument("file", help="scenario YAML/JSON file")
    p.add_argument("--store", required=True, help="run store directory")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--force", action="store_true", help="re-execute even if already done"
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("submit", help="register (and on a live service, enqueue)")
    p.add_argument("file", help="scenario YAML/JSON file")
    p.add_argument(
        "--retries", type=int, default=5,
        help="attempts before giving up on 429/503 (--url mode)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.5,
        help="base seconds for the seeded retry backoff (--url mode)",
    )
    _add_locator(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("status", help="run state and progress")
    p.add_argument("run_id", help="run id or unique prefix")
    _add_locator(p)
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser("results", help="fetch the result table")
    p.add_argument("run_id", help="run id or unique prefix")
    p.add_argument("--format", default="txt", choices=("json", "txt", "csv"))
    _add_locator(p)
    p.set_defaults(fn=_cmd_results)

    p = sub.add_parser(
        "replay", help="bit-replay a stored run (exit 0 iff byte-identical)"
    )
    p.add_argument("run_id", help="run id or unique prefix")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_locator(p)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("list", help="enumerate registered runs")
    p.add_argument("--state", default=None, help="filter by run state")
    p.add_argument(
        "--limit", type=int, default=None, help="page size (stable ordering)"
    )
    p.add_argument("--offset", type=int, default=None, help="page start")
    p.add_argument(
        "--failures", action="store_true",
        help="show the FAILURES view (failed + quarantined runs)",
    )
    _add_locator(p)
    p.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    args.argv = ["scenario", *argv]
    try:
        return args.fn(args)
    except ChecksumMismatchError as exc:
        print(f"integrity violation: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


# -- serve ------------------------------------------------------------------


def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro serve`` entry point: the long-lived job daemon."""
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="repro serve", description="run the scenario job service"
    )
    parser.add_argument("--store", required=True, help="run store directory")
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes per run"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="concurrent runs"
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16, help="max pending runs (backpressure)"
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None,
        help="per-run wall-clock deadline in seconds; a run past it is "
        "killed, requeued with backoff, then quarantined",
    )
    parser.add_argument(
        "--degraded-after", type=int, default=3,
        help="consecutive worker failures before submissions get 503",
    )
    parser.add_argument(
        "--inject-faults", default="",
        help="service chaos plan, e.g. 'worker:kill@1,disk:full@2' "
        "(worker:kill/hang, store:tamper, disk:full; @N is the pool-wide "
        "dispatch sequence)",
    )
    parser.add_argument(
        "--telemetry", action="store_true", help="enable the live metrics registry"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    args = parser.parse_args(argv)

    from repro import telemetry
    from repro.service.api import make_server
    from repro.service.jobs import JobService
    from repro.service.store import RunStore

    if args.telemetry:
        telemetry.configure()
    service = JobService(  # validates --inject-faults before anything starts
        RunStore(args.store),
        jobs_per_run=args.jobs,
        queue_limit=args.queue_limit,
        workers=args.workers,
        run_timeout=args.run_timeout,
        degraded_after=args.degraded_after,
        fault_spec=args.inject_faults,
    )
    service.start()
    server = make_server(service, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port} "
          f"(store {args.store})", flush=True)

    def _shutdown(signum, frame):  # SIGTERM drains, then exits
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("draining job queue before shutdown...", flush=True)
    finally:
        service.stop(drain=True)
        server.server_close()
    print("service stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
