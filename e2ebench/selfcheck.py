"""Smoke check of the benchmark itself: every workload, both modes, short runs.

    python3 e2ebench/selfcheck.py

For each workload, runs ``run.py`` with ``--seconds 1`` untraced and
traced, and checks that the result line names every metric
``BENCHMARK.json`` declares with its unit, that ``correct`` is true and
nothing failed, that the trace file parses as Chrome trace events, and
that ``trace.coverage_frac`` is at least 0.9.  (``run.py`` itself compares
traced and untraced outputs byte for byte: a difference makes ``correct``
false.)  Last, it checks that the benchmark refuses to run, exiting
non-zero without a result, in a copy that holds only ``BENCHMARK.json``
and the benchmark's own files.  Takes about three minutes, most of it
``tables-small``, whose one unit takes about 30 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def check_workload(workload: str) -> list[str]:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{workload} trace={trace}: {result} {proc.stderr[-500:]}")
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != declared:
            problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
        if trace:
            events = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())
            spans = [e for e in events["traceEvents"] if e["ph"] == "X"]
            if not spans or not all({"name", "ts", "dur", "pid", "tid"} <= e.keys() for e in spans):
                problems.append(f"{workload}: trace file holds no valid Chrome X events")
            coverage = result["metrics"]["trace.coverage_frac"]["value"]
            if coverage < 0.9:
                problems.append(f"{workload}: trace.coverage_frac {coverage:.3f} < 0.9")
        print(f"{workload} trace={trace}: ok", flush=True)
    return problems


def check_refuses_without_program() -> list[str]:
    bare = BENCH / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "e2ebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran without the program sources"]
    print("bare copy: refused", flush=True)
    return []


def main() -> int:
    problems = []
    for workload in SPEC["workloads"]:
        problems += check_workload(workload["name"])
    problems += check_refuses_without_program()
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
