"""T2 -- Theorem 2.6: LESK's dependence on the adversary strength eps.

Fix ``n`` and sweep ``eps`` downward (stronger adversary) against the
budget-saturating jammer.  Theorem 2.6 predicts time
``~ log n / (eps^3 log2(8/eps))``; the table reports the measured median
and its ratio to that shape, which should stay within a constant band
(the bound is an upper bound, so small-eps rows may sit well below 1
after normalization to the weakest-adversary row).
"""

from __future__ import annotations

from repro.analysis.bounds import lesk_time_bound
from repro.experiments.cells import lesk_cell
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    summarize_times,
)

EXPERIMENT = "T2"


def run(preset: str = "small", seed: int = 2016) -> Table:
    """Run experiment T2 at *preset* scale and return its table.

    The saturating jammer is oblivious, so every cell runs on the
    slot-blocked megakernel's fused fast path.
    """
    eps_values = preset_value(
        preset, [0.8, 0.5, 0.3], [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15]
    )
    reps = preset_value(preset, 20, 200)
    n = 1024
    T = 32
    adversary = "saturating"

    table = Table(
        name=EXPERIMENT,
        title=f"LESK election time vs eps (n={n}, T={T}, {adversary} jammer)",
        claim="Thm 2.6: time grows as log n / (eps^3 log(1/eps)) as eps -> 0",
        columns=[
            Column("eps", "eps", ".2f"),
            Column("median_slots", "median slots", ".0f"),
            Column("p90_slots", "p90", ".0f"),
            Column("bound_shape", "bound shape", ".0f"),
            Column("ratio", "measured/bound", ".3f"),
            Column("jam_fraction", "jam frac", ".2f"),
            Column("success_rate", "success", ".3f"),
        ],
    )
    for ei, eps in enumerate(eps_values):
        results = lesk_cell(n, eps, T, adversary, reps, seed, 2, ei)
        stats = summarize_times(results)
        bound = lesk_time_bound(n, eps, T)
        jam_fraction = sum(r.jams for r in results) / max(1, sum(r.slots for r in results))
        table.add_row(
            eps=eps,
            median_slots=stats["median_slots"],
            p90_slots=stats["p90_slots"],
            bound_shape=bound,
            ratio=stats["median_slots"] / bound,
            jam_fraction=jam_fraction,
            success_rate=stats["success_rate"],
        )
    table.add_note(
        "'bound shape' is max{T, log2 n/(eps^3 log2(8/eps))} without the big-O constant"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
