"""T7 -- Section 1.3: LESK vs the Awerbuch-Richa-Scheideler baseline [3].

Both protocols elect by first successful ``Single`` in strong-CD; both run
against the same (T, 1-eps) jammer.  The paper's claim: LESK needs
``O(log n)`` slots where the [3] machinery has proven runtime
``O(log^4 n)`` (constant eps).  Our measured target is the *shape*: LESK's
time grows linearly in ``log n`` while ARS grows like a higher power --
the log-log fit's slope separates them -- and LESK wins by a factor that
widens with ``n``.

ARS additionally needs the global parameter
``gamma = O(1/(log T + log log n))`` (the dependence the paper removes).
"""

from __future__ import annotations

from repro.adversary.suite import make_adversary
from repro.analysis.estimators import fit_power_law
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    replicate,
    summarize_times,
)
from repro.protocols.baselines.ars_fast import simulate_ars_fast
from repro.protocols.baselines.ars_mac import ars_gamma

EXPERIMENT = "T7"


def _run_ars(n: int, eps: float, T: int, adversary: str, seed: int, max_slots: int):
    adv = make_adversary(adversary, T=T, eps=eps)
    return simulate_ars_fast(
        n, ars_gamma(n, T), adv, max_slots=max_slots, seed=seed
    )


def run(preset: str = "small", seed: int = 2021) -> Table:
    """Run experiment T7 at *preset* scale and return its table.

    The LESK side runs on the megakernel's fused path (the saturating
    jammer is oblivious); the ARS baseline is a per-station machine and
    stays scalar.
    """
    ns = preset_value(preset, [32, 128, 512], [32, 128, 512, 2048, 8192, 32768])
    reps = preset_value(preset, 8, 40)
    eps = 0.5
    T = 16
    adversary = "saturating"
    max_slots = preset_value(preset, 200_000, 2_000_000)

    table = Table(
        name=EXPERIMENT,
        title=f"LESK vs ARS [3] election time ({adversary} jammer, eps={eps}, T={T})",
        claim="Sec 1.3: LESK O(log n) vs [3] O(log^4 n); LESK needs no global parameters",
        columns=[
            Column("n", "n"),
            Column("lesk_median", "LESK median", ".0f"),
            Column("ars_median", "ARS median", ".0f"),
            Column("speedup", "ARS/LESK", ".1f"),
            Column("lesk_success", "LESK success", ".3f"),
            Column("ars_success", "ARS success", ".3f"),
        ],
    )
    lesk_specs = [
        CellSpec(
            kind="lesk", n=n, eps=eps, T=T, adversary=adversary,
            reps=reps, root_seed=seed, path=(7, ni, 0),
        )
        for ni, n in enumerate(ns)
    ]
    lesk_cells = run_cells(lesk_specs)
    lesk_pts, ars_pts = [], []
    for ni, n in enumerate(ns):
        lesk = lesk_cells[ni]
        ars = replicate(
            lambda s: _run_ars(n, eps, T, adversary, s, max_slots),
            reps,
            seed,
            7,
            ni,
            1,
        )
        ls = summarize_times(lesk)
        ar = summarize_times(ars)
        table.add_row(
            n=n,
            lesk_median=ls["median_slots"],
            ars_median=ar["median_slots"],
            speedup=ar["median_slots"] / max(1.0, ls["median_slots"]),
            lesk_success=ls["success_rate"],
            ars_success=ar["success_rate"],
        )
        lesk_pts.append(ls["median_slots"])
        ars_pts.append(ar["median_slots"])
    import math

    logn = [math.log2(n) for n in ns]
    lesk_fit = fit_power_law(logn, lesk_pts)
    ars_fit = fit_power_law(logn, ars_pts)
    table.add_note(
        f"log-log slope in log2(n): LESK {lesk_fit.slope:.2f} "
        f"(theory 1), ARS {ars_fit.slope:.2f} (theory <= 4); "
        "ARS uses global gamma = 1/(log2 T + log2 log2 n)"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
