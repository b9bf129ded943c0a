"""A8 -- searched adversaries: evolution cannot beat the theorem either.

T8 races LESK against hand-designed strategies; this experiment removes
the designer.  A (1+1) evolutionary search over budget-legal jam scripts
(:mod:`repro.adversary.search`) tries to *learn* a pattern that delays
LESK, starting from random patterns and the saturating baseline.  The
claim reproduced: the best pattern the search finds still leaves LESK
within its Theorem 2.6 explicit slot bound -- the strongest adversarial
evidence a simulation can offer for a universally-quantified theorem.
"""

from __future__ import annotations

from repro.adversary.search import find_worst_pattern
from repro.analysis.bounds import lesk_exact_slot_bound, lesk_time_bound
from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.harness import Column, Table, preset_value, summarize_times
from repro.protocols.lesk import LESKPolicy

EXPERIMENT = "A8"


def run(preset: str = "small", seed: int = 2034) -> Table:
    """Run experiment A8 at *preset* scale and return its table.

    The jam-free baseline runs on the megakernel's fused path; the
    evolutionary search evaluates candidate scripts through the scalar
    engine.
    """
    grid = preset_value(preset, [(256, 0.5, 16)], [(256, 0.5, 16), (1024, 0.4, 32)])
    generations = preset_value(preset, 12, 120)
    eval_seeds = preset_value(preset, 5, 15)
    reps = preset_value(preset, 20, 100)

    table = Table(
        name=EXPERIMENT,
        title="Evolution-searched jam patterns vs LESK",
        claim="Thm 2.6 is adversary-universal: even searched (not designed) "
        "attacks stay within the explicit bound",
        columns=[
            Column("n", "n"),
            Column("eps", "eps", ".2f"),
            Column("T", "T"),
            Column("baseline", "none median", ".0f"),
            Column("searched", "worst-found median", ".0f"),
            Column("slowdown", "slowdown x", ".2f"),
            Column("bound", "Thm 2.6 bound", ".0f"),
            Column("within", "within bound"),
            Column("evaluated", "patterns tried"),
        ],
    )
    baseline_specs = [
        CellSpec(
            kind="lesk", n=n, eps=eps, T=T, adversary="none",
            reps=reps, root_seed=seed, path=(20, gi),
        )
        for gi, (n, eps, T) in enumerate(grid)
    ]
    baseline_cells = run_cells(baseline_specs)
    for gi, (n, eps, T) in enumerate(grid):
        baseline = summarize_times(baseline_cells[gi])["median_slots"]
        result = find_worst_pattern(
            lambda: LESKPolicy(eps),
            n=n,
            T=T,
            eps=eps,
            script_length=4 * T,
            generations=generations,
            eval_seeds=eval_seeds,
            cap=int(lesk_exact_slot_bound(n, eps)) + 1,
            seed=seed + gi,
        )
        bound = lesk_exact_slot_bound(n, eps)
        table.add_row(
            n=n,
            eps=eps,
            T=T,
            baseline=baseline,
            searched=result.score,
            slowdown=result.score / max(1.0, baseline),
            bound=bound,
            within=bool(result.score <= bound),
            evaluated=result.evaluated,
        )
    table.add_note(
        "search: (1+1)-ES over cycled intent scripts of length 4T, clamped "
        "to the (T,1-eps) budget at run time; 'slowdown' is relative to the "
        f"jam-free baseline (shape bound for reference: "
        f"{lesk_time_bound(grid[0][0], grid[0][1], grid[0][2]):.0f} slots)"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
