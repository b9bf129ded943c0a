"""Shared experiment cells: replicated runs with engine selection.

The experiment tables all fill cells with "reps replications of
protocol(n, eps, T) against a named adversary".  This module picks the
fastest engine that can run each cell:

* the batched cross-replication engines by default (``batched=True``),
  through :func:`repro.experiments.harness.replicate_megakernel`, whose
  eligibility probe (:func:`repro.sim.megakernel.megakernel_eligibility`)
  picks the path: LESK, sweep, no-CD sweep and Estimation cells under
  oblivious (schedulable) adversaries, and sweep, no-CD sweep and
  Estimation cells under the adaptive jammers that read only ``p`` or
  ``u``, run the slot-blocked megakernel's fused path; everything else
  (LESU, LESK under any adaptive jammer, the ``random`` and ``reactive``
  jammers, enabled faults) runs the batched engine's per-slot loop
  (:mod:`repro.sim.batched`).  Both paths
  consume one stream, so the choice never changes a result bit.  Every
  strategy of the suite has a :mod:`~repro.adversary.vector`
  counterpart, and a name without one raises
  :class:`~repro.errors.ConfigurationError`;
* the scalar fast engine (:func:`repro.sim.fast.simulate_uniform_fast`,
  one call per replication via :func:`repro.experiments.harness.replicate`)
  when a caller passes ``batched=False``, the reference for the batched
  path.

Cell kinds: :func:`lesk_cell` (Algorithm 1), :func:`lesu_cell`
(Algorithm 2, unknown eps/T), :func:`estimation_cell` (Function 2),
:func:`sweep_cell` (Nakano--Olariu CD baseline) and :func:`nocd_cell`
(no-CD repeated sweep).  All five run through one body and differ only in
their policies and default slot cap (``max_slots=None``):

* LESK, sweep and no-CD sweep cap at :func:`cell_slot_budget` for
  ``"lesk"``, LESU at the one for ``"lesu"``;
* Estimation runs ``Estimation(2)`` standalone (halt on Single), its
  results carry ``policy_result`` (the returned round index) on every
  engine path, and it caps at the T4 budget
  (:func:`estimation_slot_budget`); on the megakernel, its Estimation
  ladder decides the rounds whose probability is exactly 0.0 without
  drawing them.

*faults* (a :class:`~repro.resilience.faults.FaultModel`) applies on both
engine paths.  Every cell derives its seeds from ``(root_seed, *path)``
with :func:`repro.rng.derive_seed` and returns a plain ``RunResult``
list, so the downstream ``summarize_times`` summaries are
engine-agnostic.

For multi-cell sweeps, :class:`CellSpec` + :func:`run_cells_sharded` cut
each cell into rep-blocks (:func:`blocks_for`) and run the ``(cell x
rep-block)`` work units on the block supervisor
(:class:`~repro.experiments.shard_supervisor.BlockSupervisor`): each block
runs the cell with the path extended by ``(SHARD_BLOCK_TAG,
block_index)``, so block seeds are stable under any job count, and each
worker ships its telemetry shard home for merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

from repro import telemetry
from repro.adversary.suite import make_adversary
from repro.adversary.vector import make_batched_adversary
from repro.core.config import default_slot_budget
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    SHARD_BLOCK_TAG,
    replicate,
    replicate_megakernel,
)
from repro.protocols.baselines.nakano_olariu import NoCDSweepPolicy, UniformSweepPolicy
from repro.protocols.estimation import EstimationPolicy
from repro.protocols.lesk import LESKPolicy
from repro.protocols.lesu import LESUPolicy
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
)
from repro.sim.fast import simulate_uniform_fast

__all__ = [
    "lesk_cell",
    "lesu_cell",
    "estimation_cell",
    "sweep_cell",
    "nocd_cell",
    "cell_slot_budget",
    "CellSpec",
    "CELL_KINDS",
    "blocks_for",
    "run_shard",
    "run_cell_direct",
    "run_cells",
    "run_cells_sharded",
    "run_cells_sharded_report",
]


@lru_cache(maxsize=4096)
def cell_slot_budget(n: int, eps: float, T: int, protocol: str) -> int:
    """Memoised :func:`~repro.core.config.default_slot_budget`.

    Every cell of a sweep (and every rep-block of a sharded cell) with the
    same ``(n, eps, T)`` shares one computed budget instead of re-deriving
    it; the value is pure in its arguments, so caching is invisible to the
    fixed-seed pins that guard it (``tests/experiments/test_sharded.py``).
    """
    return default_slot_budget(n, eps, T, protocol)


def estimation_slot_budget(n: int, T: int) -> int:
    """The generous Estimation(2) slot cap used by experiment T4."""
    return int(1024 * max(T, math.log2(max(n, 2))) + 4096)


#: Per cell kind: the vector policy from ``(eps, width)``, the scalar
#: policy from ``eps``, and the default slot cap from ``(n, eps, T)``.
_KINDS = {
    "lesk": (
        lambda eps, width: VectorLESKPolicy(eps, width),
        lambda eps: LESKPolicy(eps),
        lambda n, eps, T: cell_slot_budget(n, eps, T, "lesk"),
    ),
    "lesu": (
        lambda eps, width: VectorLESUPolicy(width),
        lambda eps: LESUPolicy(),
        lambda n, eps, T: cell_slot_budget(n, eps, T, "lesu"),
    ),
    "estimation": (
        lambda eps, width: VectorEstimationPolicy(width, L=2),
        lambda eps: EstimationPolicy(L=2),
        lambda n, eps, T: estimation_slot_budget(n, T),
    ),
    "sweep": (
        lambda eps, width: VectorSweepPolicy(width),
        lambda eps: UniformSweepPolicy(),
        lambda n, eps, T: cell_slot_budget(n, eps, T, "lesk"),
    ),
    "nocd": (
        lambda eps, width: VectorNoCDSweepPolicy(width),
        lambda eps: NoCDSweepPolicy(),
        lambda n, eps, T: cell_slot_budget(n, eps, T, "lesk"),
    ),
}


def run_cell_direct(spec: CellSpec) -> list:
    """Run one cell unsharded: the one body of the five cell kinds.

    One batch seed from ``(root_seed, *path)`` (no ``SHARD_BLOCK_TAG`` in
    the derivation), so experiments that route through :func:`run_cells`
    keep their fixed-seed pins when sharding is not requested.  The
    engines are looked up as module globals at call time, so a wrapper
    installed on this module's attributes sees every call.
    """
    vector_policy, scalar_policy, default_cap = _KINDS[spec.kind]
    n, eps, T, adversary = spec.n, spec.eps, spec.T, spec.adversary
    budget = spec.max_slots if spec.max_slots is not None else default_cap(n, eps, T)
    if spec.batched:
        return replicate_megakernel(
            lambda width: vector_policy(eps, width),
            n,
            lambda width: make_batched_adversary(adversary, T=T, eps=eps, reps=width),
            spec.reps,
            spec.root_seed,
            *spec.path,
            max_slots=budget,
            faults=spec.faults,
        )
    return replicate(
        lambda seed: simulate_uniform_fast(
            scalar_policy(eps),
            n=n,
            adversary=make_adversary(adversary, T=T, eps=eps),
            max_slots=budget,
            seed=seed,
            faults=spec.faults,
        ),
        spec.reps,
        spec.root_seed,
        *spec.path,
    )


def lesk_cell(
    n: int, eps: float, T: int, adversary: str, reps: int, root_seed: int, *path: int,
    batched: bool = True, max_slots: int | None = None, faults=None,
) -> list:
    """Replicated LESK (Algorithm 1) elections for one table cell."""
    return run_cell_direct(CellSpec(
        "lesk", n, eps, T, adversary, reps, root_seed, path,
        batched, max_slots, faults,
    ))


def lesu_cell(
    n: int, eps: float, T: int, adversary: str, reps: int, root_seed: int, *path: int,
    batched: bool = True, max_slots: int | None = None, faults=None,
) -> list:
    """Replicated LESU (Algorithm 2, unknown eps/T) elections for one cell."""
    return run_cell_direct(CellSpec(
        "lesu", n, eps, T, adversary, reps, root_seed, path,
        batched, max_slots, faults,
    ))


def estimation_cell(
    n: int, eps: float, T: int, adversary: str, reps: int, root_seed: int, *path: int,
    batched: bool = True, max_slots: int | None = None, faults=None,
) -> list:
    """Replicated standalone ``Estimation(2)`` runs (halt on Single)."""
    return run_cell_direct(CellSpec(
        "estimation", n, eps, T, adversary, reps, root_seed, path,
        batched, max_slots, faults,
    ))


def sweep_cell(
    n: int, eps: float, T: int, adversary: str, reps: int, root_seed: int, *path: int,
    batched: bool = True, max_slots: int | None = None, faults=None,
) -> list:
    """Replicated Nakano--Olariu doubling-sweep (CD) baseline runs."""
    return run_cell_direct(CellSpec(
        "sweep", n, eps, T, adversary, reps, root_seed, path,
        batched, max_slots, faults,
    ))


def nocd_cell(
    n: int, eps: float, T: int, adversary: str, reps: int, root_seed: int, *path: int,
    batched: bool = True, max_slots: int | None = None, faults=None,
) -> list:
    """Replicated no-CD repeated-sweep baseline runs."""
    return run_cell_direct(CellSpec(
        "nocd", n, eps, T, adversary, reps, root_seed, path,
        batched, max_slots, faults,
    ))


#: Cell-kind registry (names are CellSpec.kind).
CELL_KINDS = {
    "lesk": lesk_cell,
    "lesu": lesu_cell,
    "estimation": estimation_cell,
    "sweep": sweep_cell,
    "nocd": nocd_cell,
}


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One shardable table cell: a cell kind plus its full configuration.

    Plain frozen data so it pickles across the worker-pool boundary; the
    ``path`` is the cell's seed-derivation path exactly as passed to the
    unsharded cell functions.  ``faults`` composes a model-level
    :class:`~repro.resilience.faults.FaultModel` into the cell (applied on
    both engine paths).
    """

    kind: str
    n: int
    eps: float
    T: int
    adversary: str
    reps: int
    root_seed: int
    path: tuple[int, ...]
    batched: bool = True
    max_slots: int | None = None
    faults: object | None = None  # resilience.faults.FaultModel

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            known = ", ".join(sorted(CELL_KINDS))
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; known: {known}"
            )
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")

    def to_jsonable(self) -> dict:
        """Plain-data form that round-trips exactly through JSON.

        Optional fields at their defaults are omitted, so
        ``from_jsonable(spec.to_jsonable())`` reproduces the spec and
        ``to_jsonable(from_jsonable(data))`` reproduces the dict.
        """
        data = {
            "kind": self.kind,
            "n": self.n,
            "eps": self.eps,
            "T": self.T,
            "adversary": self.adversary,
            "reps": self.reps,
            "root_seed": self.root_seed,
            "path": list(self.path),
        }
        if not self.batched:
            data["batched"] = self.batched
        if self.max_slots is not None:
            data["max_slots"] = self.max_slots
        if self.faults is not None:
            data["faults"] = self.faults.to_jsonable()
        return data

    @classmethod
    def from_jsonable(cls, data: dict) -> "CellSpec":
        """Inverse of :meth:`to_jsonable`; rejects unknown keys."""
        from repro.resilience.faults import FaultModel

        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown CellSpec fields: {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["path"] = tuple(kwargs.get("path", ()))
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultModel.from_jsonable(kwargs["faults"])
        return cls(**kwargs)


def blocks_for(reps: int, block_size: int) -> list[int]:
    """The fixed rep-block partition of *reps* (independent of the job count)."""
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    full, rest = divmod(reps, block_size)
    return [block_size] * full + ([rest] if rest else [])


def run_shard(item: tuple) -> tuple[list, dict]:
    """Pool work item: one ``(spec, block_index, block_reps)`` rep-block.

    Runs the cell with the seed path extended by ``(SHARD_BLOCK_TAG,
    block_index)`` -- stable under any job count -- inside a scoped
    telemetry collection, and returns ``(results, telemetry_jsonable)``
    so the supervisor can merge worker shards into the parent sink.
    Module-level so pool dispatch can pickle it by reference.
    """
    spec, block_index, block_reps = item
    block = replace(
        spec, reps=block_reps, path=(*spec.path, SHARD_BLOCK_TAG, block_index)
    )
    with telemetry.collecting() as shard:
        results = run_cell_direct(block)
    return results, shard.to_jsonable()


def run_cells(
    specs,
    jobs: int | None = None,
    block_size: int | None = None,
) -> list[list]:
    """Run several cells, sharding when sharding is configured.

    The single entry point for the sharded experiments (E04/E05/E07/E08/
    E15/E20): with an explicit *jobs* -- or an ambient
    :class:`~repro.experiments.shard_supervisor.ShardContext` installed by
    ``run_all --shard-jobs`` -- the cells run on the supervised sharded
    path (block seeds include ``SHARD_BLOCK_TAG``); otherwise each spec
    runs unsharded via :func:`run_cell_direct`, bit-identical to the
    direct cell calls the experiments used to make.
    """
    from repro.experiments.shard_supervisor import get_shard_context

    context = get_shard_context()
    if jobs is None:
        jobs = context.jobs
    if jobs is None:
        return [run_cell_direct(spec) for spec in specs]
    if block_size is None:
        block_size = context.block_size or 64
    return run_cells_sharded(
        specs,
        jobs=jobs,
        block_size=block_size,
        block_timeout=context.block_timeout,
        checkpoint_dir=context.checkpoint_dir,
        fault_plan=context.fault_plan,
    )


def _supervise_blocks(
    specs,
    jobs: int | None,
    block_size: int,
    *,
    retry=None,
    block_timeout: float | None = None,
    keep_going: bool = False,
    speculate: bool = True,
    checkpoint_dir=None,
    fault_plan=None,
):
    """Run every spec's rep-blocks on the block supervisor.

    Returns ``(payloads, report)``: ``payloads[i]`` lists spec *i*'s
    ``(results, telemetry_jsonable | None)`` block payloads in block
    order, without the blocks quarantined under ``keep_going``.
    """
    from repro.experiments.parallel import default_jobs
    from repro.experiments.retry import RetryPolicy
    from repro.experiments.shard_supervisor import (
        BlockCheckpointStore,
        BlockSupervisor,
        SupervisionConfig,
    )

    config = SupervisionConfig(
        jobs=default_jobs() if jobs is None else int(jobs),
        retry=retry if retry is not None else RetryPolicy(),
        block_timeout=block_timeout,
        keep_going=bool(keep_going),
        speculate=bool(speculate),
        fault_plan=fault_plan,
    )
    units, groups = [], []
    for spec_index, spec in enumerate(specs):
        blocks = blocks_for(spec.reps, block_size)
        groups.append(range(len(units), len(units) + len(blocks)))
        units += [(spec_index, b, (spec, b, reps)) for b, reps in enumerate(blocks)]
    store = BlockCheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    payloads, report = BlockSupervisor(run_shard, config, store).run(units, block_size)
    per_spec = [[payloads[i] for i in g if payloads[i] is not None] for g in groups]
    return per_spec, report


def run_cells_sharded(
    specs,
    jobs: int | None = None,
    block_size: int = 64,
    **supervision,
) -> list[list]:
    """Run several :class:`CellSpec` cells sharded across worker processes.

    Returns one ``RunResult`` list per spec, in spec order; results are
    identical for any ``jobs`` (the rep-block partition and per-block
    seeds depend only on the specs and ``block_size``).  Note the sharded
    law matches the unsharded cell's (same engines, same per-column
    update rules) but the bitstreams differ: block ``b`` seeds from
    ``(root_seed, *path, SHARD_BLOCK_TAG, b)`` rather than one batch seed
    from ``(root_seed, *path)``.

    Extra keyword arguments (``retry``, ``block_timeout``, ``keep_going``,
    ``checkpoint_dir``, ``fault_plan``, ``speculate``) configure the
    supervision, as in :func:`run_cells_sharded_report`.
    """
    payloads, _report = _supervise_blocks(specs, jobs, block_size, **supervision)
    return [[r for results, _tel in cell for r in results] for cell in payloads]


def run_cells_sharded_report(
    specs,
    jobs: int | None = None,
    block_size: int = 64,
    **supervision,
):
    """Supervised sharded run returning ``(results, spec_shards, report)``.

    Blocks run on the block supervisor
    (:class:`~repro.experiments.shard_supervisor.BlockSupervisor`):
    per-block deadlines (``block_timeout``) with kill-on-timeout, worker
    death detection and re-dispatch, bounded seeded-backoff retry
    (``retry``), poison-block quarantine (``keep_going``), straggler
    speculation (``speculate``), atomic block checkpoints
    (``checkpoint_dir``) and chaos injection (``fault_plan``); ``jobs=1``
    runs the blocks in-process.  Each call starts and stops its own
    workers.

    ``spec_shards[i]`` is a per-spec :class:`~repro.telemetry.Telemetry`
    merged from spec *i*'s block shards (None when no telemetry was
    collected, e.g. blocks restored from checkpoint), so callers like the
    E08 jam-efficiency columns can read per-spec counters; ``report`` is
    the supervisor's :class:`~repro.experiments.shard_supervisor
    .ShardReport`.  With ``keep_going``, quarantined blocks leave their
    spec's result list short and are itemized there.
    """
    payloads, report = _supervise_blocks(specs, jobs, block_size, **supervision)
    results, spec_shards = [], []
    for cell in payloads:
        results.append([r for block_results, _tel in cell for r in block_results])
        blocks = [telemetry.Telemetry.from_jsonable(t) for _r, t in cell if t]
        for block in blocks[1:]:
            blocks[0].merge(block)
        spec_shards.append(blocks[0] if blocks else None)
    return results, spec_shards, report
