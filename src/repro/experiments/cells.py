"""Shared experiment cells: replicated runs with engine selection.

The experiment tables all fill cells with "reps replications of
protocol(n, eps, T) against a named adversary".  This module picks the
fastest engine that can run each cell:

* the slot-blocked megakernel (:mod:`repro.sim.megakernel`) when the cell
  asks for it (``megakernel=True``; experiments T1, T2 and F2 do):
  oblivious (schedulable) adversaries run the fused fast path,
  everything else delegates to the batched engine byte-identically
  inside the engine;
* the batched cross-replication engine (:mod:`repro.sim.batched`) by
  default (``batched=True``) when the adversary has a vectorized
  implementation -- which since the adaptive family gained
  :class:`~repro.adversary.vector` counterparts covers the whole
  strategy suite;
* the scalar fast-engine loop via :func:`repro.experiments.harness.replicate`
  otherwise, and as the reference when a caller passes ``batched=False``.
  The fallback from ``batched=True`` is never silent: it increments
  ``engine_fallback_total{reason=...}`` and warns once per component
  (:func:`repro.experiments.harness.record_engine_fallback`).

Cell kinds: :func:`lesk_cell` (Algorithm 1), :func:`lesu_cell`
(Algorithm 2, unknown eps/T), :func:`estimation_cell` (Function 2),
:func:`sweep_cell` (Nakano--Olariu CD baseline) and :func:`nocd_cell`
(no-CD repeated sweep).  All derive their seeds from ``(root_seed, *path)``
with :func:`repro.rng.derive_seed` and return plain ``RunResult`` lists,
so the downstream ``summarize_times`` summaries are engine-agnostic.

For multi-cell sweeps, :class:`CellSpec` + :func:`run_cells_sharded` chunk
``(cell x rep-block)`` work units across a worker-process pool
(:class:`~repro.experiments.harness.ShardedScheduler`): each block runs
the cell with the path extended by ``(SHARD_BLOCK_TAG, block_index)``, so
block seeds are stable under any job count, and each worker ships its
telemetry shard home for merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

from repro import telemetry
from repro.adversary.suite import make_adversary
from repro.adversary.vector import is_batchable, make_batched_adversary
from repro.core.config import default_slot_budget
from repro.core.election import elect_leader
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    SHARD_BLOCK_TAG,
    ShardedScheduler,
    record_engine_fallback,
    replicate,
    replicate_batched,
    replicate_megakernel,
)
from repro.protocols.baselines.nakano_olariu import NoCDSweepPolicy, UniformSweepPolicy
from repro.protocols.estimation import EstimationPolicy
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


def _use_batched(batched: bool, adversary: str) -> bool:
    """Engine selection plus loud accounting for the scalar fallback."""
    if not batched:
        return False
    if is_batchable(adversary):
        return True
    record_engine_fallback(
        f"adversary {adversary!r}", reason="adversary-not-batchable"
    )
    return False


def lesk_cell(
    n: int,
    eps: float,
    T: int,
    adversary: str,
    reps: int,
    root_seed: int,
    *path: int,
    batched: bool = True,
    megakernel: bool = False,
    max_slots: int | None = None,
    faults=None,
) -> list:
    """Replicated LESK elections for one table cell.

    With ``batched=True`` and a vectorizable adversary, all *reps*
    replications advance together through the batched engine; otherwise
    each replication is a scalar :func:`repro.core.election.elect_leader`
    call.  ``max_slots=None`` selects the same
    :func:`~repro.core.config.default_slot_budget` either way.

    ``megakernel=True`` routes the batched path through the slot-blocked
    megakernel instead (:func:`~repro.experiments.harness
    .replicate_megakernel`): oblivious adversaries run the fused fast
    path, everything else delegates back to the batched engine inside the
    engine, and both consume one stream, so the flag never changes a
    result bit.

    *faults* (a :class:`~repro.resilience.faults.FaultModel`) applies on
    both engine paths.
    """
    if _use_batched(batched, adversary):
        budget = (
            max_slots if max_slots is not None else cell_slot_budget(n, eps, T, "lesk")
        )
        engine = replicate_megakernel if megakernel else replicate_batched
        return engine(
            lambda reps_: VectorLESKPolicy(eps, reps_),
            n,
            lambda reps_: make_batched_adversary(adversary, T=T, eps=eps, reps=reps_),
            reps,
            root_seed,
            *path,
            max_slots=budget,
            faults=faults,
        )
    return replicate(
        lambda s: elect_leader(
            n=n,
            protocol="lesk",
            eps=eps,
            T=T,
            adversary=adversary,
            seed=s,
            max_slots=max_slots,
            faults=faults,
        ),
        reps,
        root_seed,
        *path,
    )


def lesu_cell(
    n: int,
    eps: float,
    T: int,
    adversary: str,
    reps: int,
    root_seed: int,
    *path: int,
    batched: bool = True,
    megakernel: bool = False,
    max_slots: int | None = None,
    faults=None,
) -> list:
    """Replicated LESU (Algorithm 2, unknown eps/T) elections for one cell.

    LESU has no megakernel ladder, so ``megakernel=True`` delegates back
    to the batched engine inside the engine (loudly, via
    ``engine_fallback_total``); the flag exists so sweeps can set it
    uniformly across cell kinds.
    """
    if _use_batched(batched, adversary):
        budget = (
            max_slots if max_slots is not None else cell_slot_budget(n, eps, T, "lesu")
        )
        engine = replicate_megakernel if megakernel else replicate_batched
        return engine(
            lambda reps_: VectorLESUPolicy(reps_),
            n,
            lambda reps_: make_batched_adversary(adversary, T=T, eps=eps, reps=reps_),
            reps,
            root_seed,
            *path,
            max_slots=budget,
            faults=faults,
        )
    return replicate(
        lambda s: elect_leader(
            n=n,
            protocol="lesu",
            eps=eps,
            T=T,
            adversary=adversary,
            seed=s,
            max_slots=max_slots,
            faults=faults,
        ),
        reps,
        root_seed,
        *path,
    )


def estimation_cell(
    n: int,
    eps: float,
    T: int,
    adversary: str,
    reps: int,
    root_seed: int,
    *path: int,
    batched: bool = True,
    megakernel: bool = False,
    max_slots: int | None = None,
    faults=None,
) -> list:
    """Replicated standalone ``Estimation(2)`` runs (halt on Single).

    Results carry ``policy_result`` (the returned round index) on both
    engine paths; ``max_slots=None`` selects the T4 cap.  Estimation has
    no megakernel ladder, so ``megakernel=True`` delegates back to the
    batched engine inside the engine.
    """
    budget = max_slots if max_slots is not None else estimation_slot_budget(n, T)
    if _use_batched(batched, adversary):
        engine = replicate_megakernel if megakernel else replicate_batched
        return engine(
            lambda reps_: VectorEstimationPolicy(reps_, L=2),
            n,
            lambda reps_: make_batched_adversary(adversary, T=T, eps=eps, reps=reps_),
            reps,
            root_seed,
            *path,
            max_slots=budget,
            faults=faults,
        )
    return replicate(
        lambda s: simulate_uniform_fast(
            EstimationPolicy(L=2),
            n=n,
            adversary=make_adversary(adversary, T=T, eps=eps),
            max_slots=budget,
            seed=s,
            halt_on_single=True,
            faults=faults,
        ),
        reps,
        root_seed,
        *path,
    )


def sweep_cell(
    n: int,
    eps: float,
    T: int,
    adversary: str,
    reps: int,
    root_seed: int,
    *path: int,
    batched: bool = True,
    megakernel: bool = False,
    max_slots: int | None = None,
    faults=None,
) -> list:
    """Replicated Nakano--Olariu doubling-sweep (CD) baseline runs."""
    budget = max_slots if max_slots is not None else cell_slot_budget(n, eps, T, "lesk")
    if _use_batched(batched, adversary):
        engine = replicate_megakernel if megakernel else replicate_batched
        return engine(
            lambda reps_: VectorSweepPolicy(reps_),
            n,
            lambda reps_: make_batched_adversary(adversary, T=T, eps=eps, reps=reps_),
            reps,
            root_seed,
            *path,
            max_slots=budget,
            faults=faults,
        )
    return replicate(
        lambda s: simulate_uniform_fast(
            UniformSweepPolicy(),
            n=n,
            adversary=make_adversary(adversary, T=T, eps=eps),
            max_slots=budget,
            seed=s,
            faults=faults,
        ),
        reps,
        root_seed,
        *path,
    )


def nocd_cell(
    n: int,
    eps: float,
    T: int,
    adversary: str,
    reps: int,
    root_seed: int,
    *path: int,
    batched: bool = True,
    megakernel: bool = False,
    max_slots: int | None = None,
    faults=None,
) -> list:
    """Replicated no-CD repeated-sweep baseline runs."""
    budget = max_slots if max_slots is not None else cell_slot_budget(n, eps, T, "lesk")
    if _use_batched(batched, adversary):
        engine = replicate_megakernel if megakernel else replicate_batched
        return engine(
            lambda reps_: VectorNoCDSweepPolicy(reps_),
            n,
            lambda reps_: make_batched_adversary(adversary, T=T, eps=eps, reps=reps_),
            reps,
            root_seed,
            *path,
            max_slots=budget,
            faults=faults,
        )
    return replicate(
        lambda s: simulate_uniform_fast(
            NoCDSweepPolicy(),
            n=n,
            adversary=make_adversary(adversary, T=T, eps=eps),
            max_slots=budget,
            seed=s,
            faults=faults,
        ),
        reps,
        root_seed,
        *path,
    )


#: Cell-kind registry used by :func:`run_shard` (names are CellSpec.kind).
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
    both engine paths); ``megakernel`` routes the batched path through
    the slot-blocked megakernel engine (ineligible configurations
    delegate back to the batched engine inside the engine; the results
    are the same bits either way).
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
    megakernel: bool = False
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
        if self.megakernel:
            data["megakernel"] = self.megakernel
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


def run_shard(item: tuple) -> tuple[list, dict]:
    """Pool work item: one ``(spec, block_index, block_reps)`` rep-block.

    Runs the cell with the seed path extended by ``(SHARD_BLOCK_TAG,
    block_index)`` -- stable under any job count -- inside a scoped
    telemetry collection, and returns ``(results, telemetry_jsonable)``
    so the scheduler can merge worker shards into the parent sink.
    Module-level so pool dispatch can pickle it by reference.
    """
    spec, block_index, block_reps = item
    cell = CELL_KINDS[spec.kind]
    with telemetry.collecting() as shard:
        results = cell(
            spec.n,
            spec.eps,
            spec.T,
            spec.adversary,
            block_reps,
            spec.root_seed,
            *spec.path,
            SHARD_BLOCK_TAG,
            block_index,
            batched=spec.batched,
            megakernel=spec.megakernel,
            max_slots=spec.max_slots,
            faults=spec.faults,
        )
    return results, shard.to_jsonable()


def run_cell_direct(spec: CellSpec) -> list:
    """Run one cell unsharded, exactly as the direct cell call would.

    Bit-identical to calling the cell function with the spec's parameters
    (one batch seed from ``(root_seed, *path)``; no ``SHARD_BLOCK_TAG``
    in the derivation), so experiments that route through
    :func:`run_cells` preserve their fixed-seed pins when sharding is not
    requested.
    """
    cell = CELL_KINDS[spec.kind]
    return cell(
        spec.n,
        spec.eps,
        spec.T,
        spec.adversary,
        spec.reps,
        spec.root_seed,
        *spec.path,
        batched=spec.batched,
        megakernel=spec.megakernel,
        max_slots=spec.max_slots,
        faults=spec.faults,
    )


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
    ``checkpoint_dir``, ``fault_plan``, ``speculate``) pass through to
    :class:`~repro.experiments.harness.ShardedScheduler`.
    """
    with ShardedScheduler(jobs=jobs, block_size=block_size, **supervision) as sched:
        return sched.run(run_shard, specs)


def run_cells_sharded_report(
    specs,
    jobs: int | None = None,
    block_size: int = 64,
    **supervision,
):
    """Supervised sharded run returning ``(results, spec_shards, report)``.

    ``spec_shards[i]`` is a per-spec :class:`~repro.telemetry.Telemetry`
    merged from spec *i*'s block shards (None when no telemetry was
    collected, e.g. blocks restored from checkpoint), so callers like the
    E08 jam-efficiency columns can read per-spec counters; ``report`` is
    the supervisor's :class:`~repro.experiments.shard_supervisor
    .ShardReport` (quarantined blocks, retries, speculation).
    """
    with ShardedScheduler(jobs=jobs, block_size=block_size, **supervision) as sched:
        return sched.run_report(run_shard, specs)
