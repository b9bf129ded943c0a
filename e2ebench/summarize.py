"""Summarize benchmark runs recorded in ``e2ebench/out/history.jsonl``.

    python3 e2ebench/summarize.py [--history PATH] [--since T] [--until T] [--json]

Groups runs by commit, dirty flag, workload, trace mode and run length,
and prints for every metric the run count, median, quartiles and spread
(interquartile range as a share of the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them).  ``--since`` and
``--until`` (Unix times) select a window, for example one of two sets of
runs of the same commit.  Compare two commits by running both sides in
alternating pairs and reading their rows here; see README.md for the rule
a claimed gain must meet.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HISTORY = Path(__file__).resolve().parent / "out" / "history.jsonl"


def summarize(records: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        key = (rec["commit"], rec["dirty"], rec["workload"], rec["trace"], rec["seconds"])
        groups.setdefault(key, []).append(rec)
    rows = []
    for (commit, dirty, workload, trace, seconds), recs in sorted(
        groups.items(), key=lambda kv: tuple(map(str, kv[0]))
    ):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs if name in r["metrics"]]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            metrics[name] = {
                "n": len(values),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        rows.append(
            {
                "commit": commit,
                "dirty": dirty,
                "workload": workload,
                "trace": trace,
                "seconds": seconds,
                "runs": len(recs),
                "correct": all(r["correct"] for r in recs),
                "seeds": sorted(r["seed"] for r in recs),
                "metrics": metrics,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", type=Path, default=HISTORY)
    parser.add_argument("--since", type=float, default=0.0)
    parser.add_argument("--until", type=float, default=float("inf"))
    parser.add_argument("--json", action="store_true", help="print JSON instead of text")
    args = parser.parse_args(argv)
    records = [
        rec
        for rec in map(json.loads, args.history.read_text().splitlines())
        if args.since <= rec["time"] < args.until
    ]
    rows = summarize(records)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    for row in rows:
        commit = (row["commit"] or "unknown")[:12] + ("+dirty" if row["dirty"] else "")
        print(
            f"\n{row['workload']}  trace={row['trace']}  {commit}  "
            f"{row['runs']} runs of {row['seconds']}s  correct={row['correct']}"
        )
        for name, m in row["metrics"].items():
            print(
                f"  {name:42s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                f"q3 {m['q3']:<12.6g} spread {100 * m['spread']:5.1f}%"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
