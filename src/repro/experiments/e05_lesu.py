"""T5 -- Theorem 2.9: LESU (unknown eps and T), both regimes.

Two sub-tables:

* **regime 1** (``T <= log n / (eps^3 log(1/eps))``): sweep ``n`` with a
  small ``T``; predicted time ``O((log log(1/eps)/eps^3) log n)``, i.e.
  again linear in ``log n`` for constant eps.
* **regime 2** (large ``T``): sweep ``T`` with ``n`` fixed; predicted time
  ``O(T log log(T/(eps log n)))`` -- near-linear in ``T``, the
  ``O(T log log T)`` headline improving [3]'s ``O(T log T)``.

LESU never sees eps or T; only the adversary uses them.
"""

from __future__ import annotations

from repro.analysis.bounds import lesu_regime, lesu_time_bound
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.harness import Column, Table, preset_value, summarize_times

EXPERIMENT = "T5"


def _columns() -> list[Column]:
    return [
        Column("n", "n"),
        Column("T", "T"),
        Column("regime", "regime"),
        Column("median_slots", "median slots", ".0f"),
        Column("p90_slots", "p90", ".0f"),
        Column("bound_shape", "bound shape", ".0f"),
        Column("ratio", "measured/bound", ".3f"),
        Column("success_rate", "success", ".3f"),
    ]


def _sweep(
    table: Table,
    grid,
    reps: int,
    eps: float,
    adversary: str,
    seed: int,
    tag: int,
):
    specs = [
        CellSpec(
            kind="lesu", n=n, eps=eps, T=T, adversary=adversary,
            reps=reps, root_seed=seed, path=(5, tag, gi),
        )
        for gi, (n, T) in enumerate(grid)
    ]
    for spec, results in zip(specs, run_cells(specs)):
        n, T = spec.n, spec.T
        stats = summarize_times(results)
        bound = lesu_time_bound(n, eps, T)
        table.add_row(
            n=n,
            T=T,
            regime=lesu_regime(n, eps, T),
            median_slots=stats["median_slots"],
            p90_slots=stats["p90_slots"],
            bound_shape=bound,
            ratio=stats["median_slots"] / bound,
            success_rate=stats["success_rate"],
        )


def run(preset: str = "small", seed: int = 2019) -> Table:
    """Run experiment T5 at *preset* scale and return its table.

    LESU cells run on the batched engine through
    :class:`~repro.protocols.vector.VectorLESUPolicy`.
    """
    reps = preset_value(preset, 15, 150)
    eps = 0.5
    adversary = "saturating"
    ns = preset_value(preset, [64, 1024], [64, 256, 1024, 4096, 16384])
    Ts = preset_value(preset, [512, 4096], [256, 1024, 4096, 16384, 65536])
    n_fixed = preset_value(preset, 256, 1024)

    table = Table(
        name=EXPERIMENT,
        title=f"LESU (unknown eps, T) election time, {adversary} jammer (true eps={eps})",
        claim="Thm 2.9: O((loglog(1/eps)/eps^3) log n) for small T; "
        "O(T loglog(T/(eps log n))) for large T",
        columns=_columns(),
    )
    # Regime 1: T small, sweep n.
    _sweep(table, [(n, 4) for n in ns], reps, eps, adversary, seed, 0)
    # Regime 2: n fixed, sweep large T.
    _sweep(table, [(n_fixed, T) for T in Ts], reps, eps, adversary, seed, 1)
    table.add_note(
        "stations receive no parameters at all; 'bound shape' is the Thm 2.9 "
        "expression without its big-O constant"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
