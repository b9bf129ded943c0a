"""End-to-end benchmark of the repro command-line tools.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) through
the real CLIs for about ``S`` seconds, checks every output, and prints as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones,
timed from outside the program with no wrappers installed.  With
``--trace 1`` the same units run under ``launch.py``, which times each
layer from outside the program, and the metrics are the per-layer ones;
one untraced unit with the same seed is run first to check that tracing
changes no output byte and to measure its overhead.  Metrics made from
counts alone come from traced unit 0 (for serve, from a fixed number of
iterations), so they repeat exactly for a given ``--seed``; timings are
medians over the traced units.

Every run appends one line to ``e2ebench/out/history.jsonl`` and a traced
run writes its spans to ``e2ebench/out/trace-<workload>.json`` (Chrome
trace-event format).  Exits 2 without a result when the program sources
are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import http.client
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as wl

OUT = wl.BENCH / "out"
SPEC = wl.ROOT / "BENCHMARK.json"
SETUP_LAUNCHES = 5
UNIT_TIMEOUT_S = 150.0
SERVE_MIN_ITERATIONS = 5
SERVE_TRACED_ITERATIONS = 40
PR_SET_CHILD_SUBREAPER = 36
# Per-layer metrics made from counts alone: they must repeat exactly.
EXACT_SUFFIXES = (
    ".calls", ".slot_iters", ".rep_slots", ".width_mean", ".useful_frac",
    ".blocks", ".writes",
)


def become_subreaper() -> None:
    """Adopt orphaned workers of killed programs so they can be waited for."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: int) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values) -> dict:
    """Sample count, quartiles and 90th percentile of one run's samples."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"n": len(values), "q1": v, "median": v, "q3": v, "p90": v}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "p90": statistics.quantiles(values, n=10)[-1]}


def peak_rss_mb() -> float:
    """Largest resident set of any waited-for process this run started."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- CLI workloads -----------------------------------------------------------


def cli_setup(workload: wl.CliWorkload, seed: int, work: Path) -> list[float]:
    """Seconds from spawn to the first sign of work, over cold launches."""
    times = []
    for j in range(SETUP_LAUNCHES):
        out = work / f"setup-{j}"
        spawned = time.time()
        proc = wl.spawn(workload.argv(wl.unit_seed(seed, 500 + j), out))
        deadline = time.monotonic() + 60
        try:
            while (first := workload.first_work(out)) is None:
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"setup launch {j} showed no work")
                time.sleep(0.002)
        finally:
            wl.kill_group(proc)
        times.append(first - spawned)
    return times


def cli_unit(
    workload: wl.CliWorkload, seed: int, work: Path, tag: str, trace_dir: Path | None = None
) -> wl.UnitResult:
    """Run one CLI invocation to completion and check its outputs."""
    out = work / tag
    stdout_path = work / f"{tag}.stdout"
    start = time.perf_counter()
    with open(stdout_path, "wb") as fh:
        proc = wl.spawn(workload.argv(seed, out, trace_dir), stdout=fh,
                        traced=trace_dir is not None)
        try:
            code = proc.wait(UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
    wall = time.perf_counter() - start
    # Stop and reap what the command left behind (run_all's forkserver), so
    # that its children's peak RSS is counted before the next unit.
    wl.kill_group(proc)
    if code is None:
        result = wl.UnitResult(errors=[f"timed out after {UNIT_TIMEOUT_S}s"])
    else:
        try:
            result = workload.check(out, code, stdout_path.read_text())
        except (OSError, ValueError, KeyError) as exc:
            result = wl.UnitResult(errors=[f"unreadable output: {exc!r}"])
    result.wall = wall
    result.out, result.trace_dir = out, trace_dir
    return result


def run_cli(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    """Time-boxed loop of units; a unit starts only if it should fit."""
    started = time.perf_counter()
    units: list[wl.UnitResult] = []
    errors: list[str] = []
    reference = None
    setup = []
    if trace:
        reference = cli_unit(workload, wl.unit_seed(seed, 0), work, "reference")
        errors += reference.errors
    else:
        setup = cli_setup(workload, seed, work)
        started = time.perf_counter()
    i = 0
    while True:
        trace_dir = work / f"trace-{i}" if trace else None
        unit = cli_unit(workload, wl.unit_seed(seed, i), work, f"unit-{i}", trace_dir)
        units.append(unit)
        errors += [f"unit {i}: {e}" for e in unit.errors]
        i += 1
        elapsed = time.perf_counter() - started
        if elapsed + unit.wall > seconds:
            break
    if reference is not None and not reference.errors and not units[0].errors:
        if reference.digests != units[0].digests:
            errors.append("traced outputs differ from untraced outputs")
    attempted = units + ([reference] if reference is not None else [])
    ok = [u for u in units if not u.errors]
    return {
        "units": units,
        "reference": reference,
        "setup": setup,
        "errors": errors,
        "attempted": len(attempted),
        "failed": sum(1 for u in attempted if u.errors),
        "samples": {"latency_s": [u.wall for u in ok]},
    }


# -- serve workload ------------------------------------------------------------


def serve_loop(
    store: Path, seed: int, seconds: float, iterations: int, trace_dir: Path | None = None
) -> dict:
    """One server and one client in a closed loop for *seconds*, and for at
    least *iterations* iterations."""
    server = wl.Server(store, trace_dir)
    history: list[wl.Iteration] = []
    errors: list[str] = []
    failed = 0
    try:
        server.wait_ready()
        start = time.perf_counter()
        while len(history) < iterations or time.perf_counter() - start < seconds:
            try:
                history.append(wl.serve_iteration(server, seed, len(history), history))
            except (RuntimeError, OSError, http.client.HTTPException, KeyError,
                    ValueError) as exc:
                errors.append(f"iteration {len(history)}: {exc!r}")
                failed = 1
                break
        # Replay only untraced, so the per-layer numbers hold loop work alone.
        if trace_dir is None and history and not errors and not wl.replay_identical(
            server, history[0].run_id
        ):
            errors.append(f"replay of {history[0].run_id} is not identical")
    finally:
        server.stop()
    return {"iterations": history, "errors": errors, "store": store,
            "attempted": len(history) + failed, "failed": failed}


def run_serve(seed: int, seconds: int, trace: bool, work: Path) -> dict:
    """Untraced: a time-boxed loop.  Traced: an untraced reference loop of
    SERVE_MIN_ITERATIONS, then exactly SERVE_TRACED_ITERATIONS traced ones,
    so that the per-layer counts repeat for a given seed."""
    setup, reference = [], None
    if trace:
        reference = serve_loop(work / "reference-store", seed, 0.0, SERVE_MIN_ITERATIONS)
        seconds, iterations = 0, SERVE_TRACED_ITERATIONS
    else:
        iterations = SERVE_MIN_ITERATIONS
        for j in range(SETUP_LAUNCHES):
            server = wl.Server(work / f"setup-store-{j}")
            try:
                setup.append(server.wait_ready())
            finally:
                server.stop()
    trace_dir = work / "trace-serve" if trace else None
    loop = serve_loop(work / "store", seed, seconds, iterations, trace_dir)
    loop.update(setup=setup, reference=reference, trace_dir=trace_dir)
    loop["samples"] = {"latency_s": [it.end - it.start for it in loop["iterations"]]}
    if reference is not None:
        loop["errors"] += reference["errors"]
        loop["attempted"] += reference["attempted"]
        loop["failed"] += reference["failed"]
        for ref, it in zip(reference["iterations"], loop["iterations"]):
            if json.loads(ref.table)["table"] != json.loads(it.table)["table"]:
                loop["errors"].append(f"traced run {it.run_id} differs from untraced")
    return loop


def end_to_end(measured: dict) -> dict:
    return {
        "setup_s": median(measured["setup"]),
        "latency_s": median(measured["samples"]["latency_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def store_timings(store: Path, its: list[wl.Iteration]) -> dict:
    """Journal and status timestamps of each run, beside the client's."""
    queue_wait, execute, lag, cells = [], [], [], []
    for it in its:
        run = store / "runs" / it.run_id
        journal = [json.loads(line) for line in (run / "journal.jsonl").read_text().splitlines()]
        started = next(r["ts"] for r in journal if r["event"] == "started")
        updated = json.loads((run / "status.json").read_text())["updated"]
        queue_wait.append(started - it.posted)
        execute.append(updated - started)
        lag.append(it.seen_done - updated)
        marks = [started] + [r["ts"] for r in journal if r["event"] == "cell"]
        cells += [b - a for a, b in zip(marks, marks[1:])]
    return {
        "service.jobs.queue_wait_p50_s": median(queue_wait),
        "service.store.execute_p50_s": median(execute),
        "service.store.cell_p50_s": median(cells),
        "service.api.done_visibility_lag_p50_s": median(lag),
    }


# -- per-layer metrics ----------------------------------------------------------

SELF_AND_CALLS = (
    "sim.batched", "sim.megakernel", "sim.fast", "sim.faithful", "sim.vectorized",
    "sim.baselines", "protocols.vector", "adversary.vector",
)
SELF_ONLY = (
    "applications", "experiments.tables", "experiments.cells", "experiments.runner",
    "experiments.shard", "service.store", "cli", "wait",
)
SERVICE_METRICS = (
    "service.api.submit_p50_s", "service.api.cached_submit_p50_s",
    "service.api.results_read_p50_s", "service.api.list_p50_s",
    "service.api.done_visibility_lag_p50_s", "service.jobs.queue_wait_p50_s",
    "service.store.execute_p50_s", "service.store.cell_p50_s",
)
TABLE_METRICS = tuple(f"experiments.table.{exp_id}_s" for exp_id in wl.SMALL_TABLES)


def shard_metrics(procs: list[dict], per: int) -> dict:
    """Blocks, block times, worker busy share and dispatch gaps."""
    blocks = [(p["pid"], s) for p in procs for s in p["spans"] if s[1] == "run_shard"]
    supervisors = [s for p in procs for s in p["spans"] if s[1] == "BlockSupervisor.run"]
    busy = capacity = 0.0
    gaps = []
    for sup in supervisors:
        lo, hi = sup[3], sup[3] + sup[4]
        inside = [(pid, s) for pid, s in blocks if lo <= s[3] <= hi]
        pids = {pid for pid, _ in inside}
        capacity += len(pids) * sup[4]
        busy += sum(s[4] for _, s in inside)
        for pid in pids:
            mine = sorted((s for p, s in inside if p == pid), key=lambda s: s[3])
            gaps += [b[3] - (a[3] + a[4]) for a, b in zip(mine, mine[1:])]
    durations = [s[4] for _, s in blocks]
    return {
        "experiments.shard.blocks": len(blocks) / per,
        "experiments.shard.block_p50_s": median(durations),
        "experiments.shard.block_p90_s": percentile(durations, 90),
        "experiments.shard.worker_busy_frac": busy / capacity if capacity else 0.0,
        "experiments.shard.dispatch_gap_p50_s": median(gaps),
    }


def layer_metrics(procs: list[dict], per: int = 1) -> dict:
    """Layer totals summed over every process of one traced command, divided
    by *per* (the serve loop's iteration count)."""
    totals: dict[str, list[float]] = {}
    batched = dict.fromkeys(("slot_iters", "rep_slots", "width", "lane_slots"), 0)
    for proc in procs:
        for layer, (seconds, calls) in proc["totals"].items():
            stat = totals.setdefault(layer, [0.0, 0])
            stat[0] += seconds
            stat[1] += calls
        for key in batched:
            batched[key] += proc["batched"][key]
    metrics = {}
    for layer in SELF_AND_CALLS + SELF_ONLY:
        seconds, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = seconds / per
        if layer in SELF_AND_CALLS:
            metrics[f"{layer}.calls"] = calls / per
    calls = totals.get("sim.batched", (0.0, 0))[1]
    metrics.update(
        {
            "sim.batched.slot_iters": batched["slot_iters"] / per,
            "sim.batched.rep_slots": batched["rep_slots"] / per,
            "sim.batched.width_mean": batched["width"] / calls if calls else 0.0,
            "sim.batched.useful_frac": (
                batched["rep_slots"] / batched["lane_slots"] if batched["lane_slots"] else 0.0
            ),
            "sim.megakernel.fallback_calls": totals.get("sim.megakernel_fallback", (0, 0))[1] / per,
            "experiments.checkpoint.writes": totals.get("experiments.checkpoint", (0, 0))[1] / per,
            "experiments.checkpoint.write_s": totals.get("experiments.checkpoint", (0.0, 0))[0] / per,
            "service.scenario.compile_s": totals.get("service.scenario", (0.0, 0))[0] / per,
        }
    )
    metrics.update(shard_metrics(procs, per))
    return metrics


def startup_cpu(procs: list[dict]) -> float:
    """CPU seconds the worker processes burnt before their first named call."""
    return sum(p["startup_cpu"] for p in procs if p["role"] == "worker")


def coverage(procs: list[dict]) -> float:
    """Share of the worker processes' CPU time spent in start-up or inside
    named layers."""
    workers = [p for p in procs if p["role"] == "worker"]
    cpu = sum(p["cpu"] for p in workers)
    named = sum(p["named_cpu"] for p in workers)
    return (startup_cpu(workers) + named) / cpu if cpu else 0.0


def runner_overhead(unit: wl.UnitResult, procs: list[dict]) -> float:
    """Seconds the run_all attempts spent outside their worker's own work:
    journal ``attempt_end`` elapsed minus the worker's ``_attempt_worker``
    span, summed over attempts."""
    if not unit.elapsed:
        return 0.0
    worker = {s[2]: s[4] for p in procs for s in p["spans"] if s[1] == "_attempt_worker"}
    ends = [r for r in wl.TablesWorkload.journal(unit.out)
            if r["event"] == "attempt_end" and r["status"] == "ok"]
    return sum(r["elapsed"] - worker[r["id"]] for r in ends if r["id"] in worker)


def cli_per_layer(measured: dict) -> tuple[dict, list[dict]]:
    """Counts from unit 0; timings are medians over the traced units."""
    units = [u for u in measured["units"] if not u.errors]
    procs_by_unit = [tracer.load(u.trace_dir) for u in units]
    per_unit = []
    for unit, procs in zip(units, procs_by_unit):
        values = layer_metrics(procs)
        values["experiments.runner.overhead_s"] = runner_overhead(unit, procs)
        values["workers.startup_cpu_s"] = startup_cpu(procs)
        per_unit.append(values)
    metrics = {
        name: value if name.endswith(EXACT_SUFFIXES) else median([v[name] for v in per_unit])
        for name, value in per_unit[0].items()
    }
    metrics.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    reference = measured["reference"]
    # Each table's elapsed time comes from the untraced reference unit's
    # journal, so tracing does not inflate it.
    elapsed = reference.elapsed if reference is not None else {}
    metrics.update({f"experiments.table.{i}_s": elapsed.get(i, 0.0) for i in wl.SMALL_TABLES})
    metrics.update(
        {
            "trace.coverage_frac": coverage([p for procs in procs_by_unit for p in procs]),
            "trace.overhead_pct": (
                100.0 * (units[0].wall / reference.wall - 1.0) if reference is not None else 0.0
            ),
        }
    )
    events = []
    for i, unit_procs in enumerate(procs_by_unit):
        events += tracer.chrome_events(unit_procs, f"unit-{i}")
    return metrics, events


def serve_per_layer(measured: dict) -> tuple[dict, list[dict]]:
    """Totals per iteration of the fixed-length traced loop."""
    its = measured["iterations"]
    procs = tracer.load(measured["trace_dir"])
    metrics = layer_metrics(procs, len(its))
    metrics.update(dict.fromkeys(TABLE_METRICS, 0.0))
    metrics["experiments.runner.overhead_s"] = 0.0
    metrics["workers.startup_cpu_s"] = startup_cpu(procs) / len(its)
    metrics.update(store_timings(measured["store"], its))
    metrics.update(
        {
            "service.api.submit_p50_s": median([it.posted - it.start for it in its]),
            "service.api.cached_submit_p50_s": median(
                [it.cached_submit_s for it in its if it.cached_submit_s is not None]
            ),
            "service.api.results_read_p50_s": median([it.results_s for it in its]),
            "service.api.list_p50_s": median([it.list_s for it in its if it.list_s is not None]),
        }
    )
    ref = measured["reference"]["iterations"]
    ref_latency = median([it.end - it.start for it in ref])
    traced_latency = median([it.end - it.start for it in its[: len(ref)]])
    metrics["trace.coverage_frac"] = coverage(procs)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_latency / ref_latency - 1.0) if ref_latency else 0.0
    )
    wall_to_perf = time.time() - time.perf_counter()
    events = tracer.chrome_events(procs, "serve")
    events.append({"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "client"}})
    for it in its:
        for name, lo, hi in (("submit", it.start, it.posted), ("wait-done", it.posted, it.seen_done),
                             ("results", it.seen_done, it.end), ("extras", it.end, it.extras_end)):
            events.append({
                "name": name, "cat": "client", "ph": "X", "pid": 0, "tid": 0,
                "ts": round((lo - wall_to_perf) * 1e6, 1), "dur": round((hi - lo) * 1e6, 1),
                "args": {"run_id": it.run_id},
            })
    return metrics, events


# -- output -----------------------------------------------------------------------


def provenance() -> dict:
    """Commit, whether the program sources differ from it, usable CPUs."""
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=wl.ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.CLI_WORKLOADS, wl.SERVE_WORKLOAD])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (wl.ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    units_of = declared_metrics(bool(args.trace))
    become_subreaper()
    work = OUT / f"work-{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        if args.workload == wl.SERVE_WORKLOAD:
            measured = run_serve(args.seed, args.seconds, bool(args.trace), work)
            per_layer = serve_per_layer
        else:
            workload = wl.CLI_WORKLOADS[args.workload]
            measured = run_cli(workload, args.seed, args.seconds, bool(args.trace), work)
            per_layer = cli_per_layer
        for error in measured["errors"]:
            print(error, file=sys.stderr)
        if not measured["samples"]["latency_s"]:
            return 1  # no unit succeeded
        if args.trace:
            values, events = per_layer(measured)
        else:
            values, events = end_to_end(measured), []
        if set(values) != set(units_of):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units_of))} "
                               "do not match BENCHMARK.json")
        if events:
            (OUT / f"trace-{args.workload}.json").write_text(
                json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        wl.reap_orphans()

    attempted, failed = measured["attempted"], measured["failed"]
    result = {
        "correct": not measured["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()},
    }
    record = {
        **provenance(),
        "time": round(time.time(), 3),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "samples": {
            k: quartiles(v) for k, v in {**measured["samples"], "setup_s": measured["setup"]}.items() if v
        },
    }
    with open(OUT / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
