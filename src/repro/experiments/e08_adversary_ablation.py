"""T8 -- Section 1.1: robustness against *every* adaptive strategy.

Theorem 2.6 quantifies over all (T, 1-eps)-bounded adversaries.  We cannot
enumerate them, but we can race LESK against the natural worst-case
candidates -- including strategies that recompute LESK's own state and
spend budget exactly where it hurts.  The claim reproduced: the measured
time stays within a constant multiple of the Theorem 2.6 shape for *every*
strategy in the suite.

As a contrast, the same ablation is run for the non-robust uniform sweep
baseline (Nakano-Olariu style): an adaptive jammer inflates it by orders
of magnitude (or times it out entirely), demonstrating that robustness is
a property of LESK's update rule, not of the model.
"""

from __future__ import annotations

from repro import telemetry
from repro.adversary.suite import strategy_names
from repro.analysis.bounds import lesk_time_bound
from repro.experiments.cells import (
    CellSpec,
    run_cell_direct,
    run_cells,
    run_cells_sharded_report,
)
from repro.experiments.harness import Column, Table, preset_value, summarize_times

EXPERIMENT = "T8"


def _lesk_with_jam_shards(specs):
    """Run the LESK cells, returning per-spec results and telemetry shards.

    Unsharded: each cell runs inside a scoped collection (merged outward
    into any live run-level sink), so jam efficiency is computable without
    trace recording and without mixing in the sweep baseline's jams.
    Under an ambient shard context (``run_all --shard-jobs``) the
    supervised path returns the same per-spec shards, merged across that
    spec's rep-blocks; a block restored from checkpoint contributes no
    counters (its shard is None and jam eff renders as '-').
    """
    from repro.experiments.shard_supervisor import get_shard_context

    context = get_shard_context()
    if context.jobs is None:
        results, shards = [], []
        for spec in specs:
            with telemetry.collecting() as shard:
                results.append(run_cell_direct(spec))
            shards.append(shard)
        return results, shards
    results, shards, _report = run_cells_sharded_report(
        specs,
        jobs=context.jobs,
        block_size=context.block_size or 64,
        block_timeout=context.block_timeout,
        checkpoint_dir=context.checkpoint_dir,
        fault_plan=context.fault_plan,
    )
    return results, shards


def run(preset: str = "small", seed: int = 2022) -> Table:
    """Run experiment T8 at *preset* scale and return its table.

    With the adaptive family vectorized, *every* suite strategy runs
    through the batched engine, and the jam-efficiency counters it
    publishes are the same families the scalar engines feed.  Every live
    sweep column follows one exponent sequence, so the sweep cells take
    the megakernel's fused path under the oblivious jammers and the
    adaptive ones that read only ``p`` or ``u`` (their unelected runs
    reach the cap mostly through ``p = 0`` stretches that draw nothing),
    and so do the LESK cells under the oblivious jammers; ``random`` and
    ``reactive`` run the batched engine's per-slot loop, bit for bit the
    same stream.
    """
    n = preset_value(preset, 1024, 4096)
    reps = preset_value(preset, 15, 150)
    eps = 0.4
    T = 32
    sweep_budget = preset_value(preset, 20_000, 100_000)

    table = Table(
        name=EXPERIMENT,
        title=f"Adversary-strategy ablation (n={n}, eps={eps}, T={T})",
        claim="Thm 2.6 holds against ANY (T,1-eps)-bounded adaptive adversary; "
        "non-robust baselines do not",
        columns=[
            Column("strategy", "strategy"),
            Column("lesk_median", "LESK median", ".0f"),
            Column("lesk_vs_bound", "LESK/bound", ".2f"),
            Column("lesk_success", "LESK success", ".3f"),
            Column("jam_eff", "jam eff", ".3f"),
            Column("sweep_median", "sweep median", ".0f"),
            Column("sweep_success", "sweep success", ".3f"),
        ],
    )
    bound = lesk_time_bound(n, eps, T)
    strategies = strategy_names()
    lesk_specs = [
        CellSpec(
            kind="lesk", n=n, eps=eps, T=T, adversary=strategy,
            reps=reps, root_seed=seed, path=(8, si, 0),
        )
        for si, strategy in enumerate(strategies)
    ]
    sweep_specs = [
        CellSpec(
            kind="sweep", n=n, eps=eps, T=T, adversary=strategy,
            reps=reps, root_seed=seed, path=(8, si, 1),
            max_slots=sweep_budget,
        )
        for si, strategy in enumerate(strategies)
    ]
    lesk_cells, jam_shards = _lesk_with_jam_shards(lesk_specs)
    sweep_cells = run_cells(sweep_specs)
    for si, strategy in enumerate(strategies):
        lesk, shard = lesk_cells[si], jam_shards[si]
        jams = shard.metrics.counter_total("jam_slots_total") if shard else 0
        occupied = (
            shard.metrics.counter_total("jam_occupied_total") if shard else 0
        )
        jam_eff = occupied / jams if jams else None
        sweep = sweep_cells[si]
        ls = summarize_times(lesk)
        sw = summarize_times(sweep)
        table.add_row(
            strategy=strategy,
            lesk_median=ls["median_slots"],
            lesk_vs_bound=ls["median_slots"] / bound,
            lesk_success=ls["success_rate"],
            jam_eff=jam_eff,
            sweep_median=sw["median_slots"],
            sweep_success=sw["success_rate"],
        )
    table.add_note(
        f"bound shape = {bound:.0f} slots; sweep baseline capped at "
        f"{sweep_budget} slots (timeouts count at the cap)"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
