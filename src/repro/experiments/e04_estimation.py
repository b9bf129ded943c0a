"""T4 -- Lemma 2.8: Estimation(2) brackets max{log log n, log T} w.h.p.

Run the standalone ``Estimation(2)`` primitive over a grid of ``n`` and
``T`` against the saturating jammer.  The lemma promises, w.h.p.:

* the returned round ``i`` satisfies
  ``log log n - 1 <= i <= max{log log n, log T} + 1``;
* runtime ``O(max{log n, T})``.

A run may instead end in a ``Single`` ("obtains Single or returns value");
such runs count as successes of the *other* kind and are reported
separately.  Jamming can only delay Nulls (push ``i`` up toward the
``log T`` cap), never produce them -- so the lower bracket holds even at
full jam intensity.
"""

from __future__ import annotations

import math

from repro.analysis.bounds import estimation_result_bounds
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.harness import Column, Table, preset_value

EXPERIMENT = "T4"


def run(preset: str = "small", seed: int = 2018) -> Table:
    """Run experiment T4 at *preset* scale and return its table.

    The cells run on the batched engine, which reports each run's
    ``policy_result`` round index.
    """
    ns = preset_value(preset, [256, 4096], [128, 1024, 8192, 65536, 2**20])
    Ts = preset_value(preset, [1, 256], [1, 64, 1024, 16384])
    reps = preset_value(preset, 20, 200)
    eps = 0.5
    adversary = "saturating"

    table = Table(
        name=EXPERIMENT,
        title="Estimation(2) bracket and runtime under saturating jamming (eps=0.5)",
        claim="Lemma 2.8: i in [loglog n - 1, max{loglog n, log T} + 1] w.h.p., "
        "time O(max{log n, T})",
        columns=[
            Column("n", "n"),
            Column("T", "T"),
            Column("bracket", "lemma bracket"),
            Column("rounds", "rounds seen"),
            Column("in_bracket", "in-bracket", ".3f"),
            Column("singles", "ended by Single", ".3f"),
            Column("median_slots", "median slots", ".0f"),
            Column("slots_per_bound", "slots/max{log n,T}", ".1f"),
        ],
    )
    specs = [
        CellSpec(
            kind="estimation", n=n, eps=eps, T=T, adversary=adversary,
            reps=reps, root_seed=seed, path=(4, gi, ti),
        )
        for gi, n in enumerate(ns)
        for ti, T in enumerate(Ts)
    ]
    for spec, results in zip(specs, run_cells(specs)):
        n, T = spec.n, spec.T
        lo, hi = estimation_result_bounds(n, T)
        rounds = [r.policy_result for r in results if r.policy_result is not None]
        singles = sum(1 for r in results if r.elected)
        in_bracket = sum(1 for i in rounds if lo <= i <= hi)
        denom = len(rounds) if rounds else 1
        slots = sorted(r.slots for r in results)
        median_slots = slots[len(slots) // 2]
        table.add_row(
            n=n,
            T=T,
            bracket=f"[{lo:.1f}, {hi:.0f}]",
            rounds=f"{min(rounds)}-{max(rounds)}" if rounds else "-",
            in_bracket=in_bracket / denom,
            singles=singles / len(results),
            median_slots=median_slots,
            slots_per_bound=median_slots / max(math.log2(n), T),
        )
    table.add_note(
        "runs ending in a Single elect a leader outright (the lemma's other branch); "
        "'in-bracket' is over the remaining runs"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
