"""Shared plumbing for machine-readable benchmark emission.

Both benchmark modules can run as scripts (``python benchmarks/
bench_engines.py --emit-json BENCH_engines.json``) and write a
self-describing JSON document: environment fingerprint (python/numpy/
platform/git sha), per-engine throughput in slots/sec, and -- for the
telemetry benchmark -- the overhead percentages its gates enforce.  CI
emits both files on every run so performance history rides along with the
logs instead of living in someone's terminal scrollback.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np


def git_sha() -> str:
    """The current commit sha, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_dirty() -> bool | None:
    """Whether ``src/`` differs from the commit (None outside a checkout).

    A document from a dirty tree measured code that :func:`git_sha` does
    not name.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent.parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def bench_env() -> dict:
    """Environment fingerprint embedded in every benchmark document.

    ``cpu_count`` is the machine's; ``usable_cpus`` is what this process
    may actually run on (its affinity mask), the number that bounds any
    parallel speedup.
    """
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "git_sha": git_sha(),
        "dirty": src_dirty(),
    }


def best_of(fn: Callable[[], object], repeats: int = 3) -> tuple[float, object]:
    """Best (minimum) wall-clock over *repeats* calls; returns (s, result).

    Minimum-of-K is the standard noise filter for micro-benchmarks: system
    jitter only ever adds time, so the fastest observation is the closest
    to the true cost.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def write_bench_json(path: str | Path, name: str, results: dict) -> None:
    """Write one benchmark document: {name, generated, env, results}."""
    doc = {
        "name": name,
        "generated": round(time.time(), 3),
        "env": bench_env(),
        "results": results,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
