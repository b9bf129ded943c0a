"""T1 -- Theorem 2.6: LESK elects in O(log n) for constant eps.

Sweep the network size with eps fixed and several adversaries; report the
median election time and the ratio ``slots / log2(n)``, which Theorem 2.6
predicts to be bounded by a constant (per adversary).  A least-squares fit
of ``slots ~ a * log2 n + b`` is attached as a note; an ``r^2`` near 1 and
a stable slope confirm the linear-in-``log n`` shape.
"""

from __future__ import annotations

import math

from repro.analysis.estimators import fit_log2_scaling
from repro.analysis.walks import predict_election_median
from repro.experiments.cells import lesk_cell
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    summarize_times,
)

EXPERIMENT = "T1"

ADVERSARIES = ("none", "saturating", "single-suppressor", "estimator-attacker")


def run(preset: str = "small", seed: int = 2015) -> Table:
    """Run experiment T1 at *preset* scale and return its table.

    The oblivious cells (``none``/``saturating``) take the slot-blocked
    megakernel's fused fast path, and the adaptive ones the batched
    engine's per-slot loop.
    """
    ns = preset_value(preset, [64, 256, 1024], [16, 64, 256, 1024, 4096, 16384, 65536])
    reps = preset_value(preset, 20, 200)
    eps = 0.5
    T = 32

    table = Table(
        name=EXPERIMENT,
        title="LESK election time vs network size (eps=0.5, T=32)",
        claim="Thm 2.6: O(max{T, log n/(eps^3 log 1/eps)}) = O(log n) for constant eps",
        columns=[
            Column("adversary", "adversary"),
            Column("n", "n"),
            Column("median_slots", "median slots", ".0f"),
            Column("fluid", "fluid model", ".0f"),
            Column("p90_slots", "p90", ".0f"),
            Column("per_log2n", "slots/log2 n", ".2f"),
            Column("success_rate", "success", ".3f"),
        ],
    )
    for adversary in ADVERSARIES:
        xs, ys = [], []
        for ni, n in enumerate(ns):
            results = lesk_cell(
                n,
                eps,
                T,
                adversary,
                reps,
                seed,
                1,
                ADVERSARIES.index(adversary),
                ni,
            )
            stats = summarize_times(results)
            table.add_row(
                adversary=adversary,
                n=n,
                median_slots=stats["median_slots"],
                fluid=predict_election_median(n, eps) if adversary == "none" else None,
                p90_slots=stats["p90_slots"],
                per_log2n=stats["median_slots"] / math.log2(n),
                success_rate=stats["success_rate"],
            )
            xs.append(n)
            ys.append(stats["median_slots"])
        fit = fit_log2_scaling(xs, ys)
        table.add_note(
            f"{adversary}: slots ~ {fit.slope:.1f}*log2(n) + {fit.intercept:.1f} "
            f"(r^2={fit.r_squared:.3f})"
        )
    table.add_note(
        "'fluid model' = analysis.walks.predict_election_median: the "
        "deterministic-drift approximation, no simulation involved"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
