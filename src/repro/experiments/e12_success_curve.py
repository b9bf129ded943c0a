"""F2 -- Theorem 2.6 "with high probability": the success curve.

Fix ``n`` and the saturating jammer, truncate LESK at a slot budget ``t``,
and measure the election probability as ``t`` grows.  Theorem 2.6 says
the failure probability drops below ``1/n^beta`` once
``t = O(max{T, log n/(eps^3 log 1/eps)})``; the curve should rise steeply
and cross ``1 - 1/n`` within a small multiple of the bound shape.  The
failure probability beyond the knee decays geometrically (every additional
bound-width contributes an independent chance of a regular-slot Single).
"""

from __future__ import annotations

from repro.analysis.bounds import lesk_time_bound
from repro.experiments.cells import lesk_cell
from repro.experiments.harness import Column, Table, preset_value

EXPERIMENT = "F2"


def run(preset: str = "small", seed: int = 2026) -> Table:
    """Run experiment F2 at *preset* scale and return its table.

    Truncated budgets map directly to the engine's ``max_slots``.  The
    saturating jammer is oblivious, so every cell runs the slot-blocked
    megakernel's fused fast path.
    """
    n = 1024
    eps = 0.5
    T = 32
    reps = preset_value(preset, 60, 1000)
    multipliers = preset_value(
        preset, [2.0, 4.0, 6.0, 8.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0]
    )
    adversary = "saturating"
    bound = lesk_time_bound(n, eps, T)

    table = Table(
        name=EXPERIMENT,
        title=f"LESK success probability vs slot budget (n={n}, eps={eps}, T={T})",
        claim="Thm 2.6: failure prob <= 1/n^beta once t = O(bound shape)",
        columns=[
            Column("budget_x", "t / bound", ".2f"),
            Column("budget", "slot budget", ".0f"),
            Column("success_rate", "success", ".4f"),
            Column("ci", "95% Wilson CI"),
            Column("target", "1 - 1/n", ".4f"),
        ],
    )
    from repro.analysis.estimators import wilson_interval

    for mi, mult in enumerate(multipliers):
        budget = max(4, int(mult * bound))
        results = lesk_cell(
            n, eps, T, adversary, reps, seed, 12, mi,
            megakernel=True, max_slots=budget,
        )
        successes = sum(1 for r in results if r.elected)
        lo, hi = wilson_interval(successes, len(results))
        table.add_row(
            budget_x=mult,
            budget=budget,
            success_rate=successes / len(results),
            ci=f"[{lo:.3f}, {hi:.3f}]",
            target=1.0 - 1.0 / n,
        )
    table.add_note(f"bound shape = {bound:.0f} slots")
    table.add_note(
        "the knee sits at ~4-6x the constant-free shape: LESK's estimator must "
        "first climb from u=0 to ~log2 n at +1/a per collision (the 'a log n' "
        "term of the exact Thm 2.6 bound, see lesk_exact_slot_bound)"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
