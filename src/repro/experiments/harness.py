"""Experiment plumbing: replicated runs, summaries, and table rendering.

Design goals:

* **Reproducible**: every cell of every table derives its seed from
  ``(root_seed, experiment path, repetition index)`` via
  :func:`repro.rng.derive_seed`; re-running a table bit-reproduces it.
* **Self-describing**: tables render as aligned ASCII with a title and a
  claim line, and export to CSV for downstream plotting.
* **Two presets**: ``small`` (seconds; used by the benchmark suite) and
  ``full`` (the EXPERIMENTS.md numbers).
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.analysis.estimators import wilson_interval
from repro.errors import ConfigurationError
from repro.rng import derive_seed
from repro.telemetry import ENERGY_BUCKETS, SLOT_BUCKETS, Telemetry, get_telemetry

__all__ = [
    "Column",
    "Table",
    "replicate",
    "replicate_batched",
    "replicate_megakernel",
    "replicate_vectorized",
    "record_engine_fallback",
    "ShardedScheduler",
    "SHARD_BLOCK_TAG",
    "summarize_times",
    "preset_value",
]


def preset_value(preset: str, small, full):
    """Pick a parameter by preset name.

    ``smoke`` is an alias for the ``small`` branch -- it exists so CI and
    the telemetry acceptance command can name their intent without the
    experiments growing a third parameter set.
    """
    if preset in ("small", "smoke"):
        return small
    if preset == "full":
        return full
    raise ConfigurationError(
        f"unknown preset {preset!r}; use 'small', 'smoke' or 'full'"
    )


@dataclass(frozen=True, slots=True)
class Column:
    """One table column: row-dict key, header text, and format spec."""

    key: str
    header: str
    fmt: str = ""  # format spec applied to the value, e.g. ".2f"

    def render(self, value) -> str:
        """Format one cell value (None renders as '-')."""
        if value is None:
            return "-"
        if self.fmt:
            try:
                return format(value, self.fmt)
            except (TypeError, ValueError):
                return str(value)
        return str(value)


@dataclass(slots=True)
class Table:
    """An experiment result table."""

    name: str  # e.g. "T1"
    title: str
    claim: str  # the paper claim being reproduced
    columns: list[Column]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append one result row (keyword per column key)."""
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Attach a free-form note rendered under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Render the table as aligned ASCII with title, claim and notes."""
        headers = [c.header for c in self.columns]
        cells = [
            [c.render(row.get(c.key)) for c in self.columns] for row in self.rows
        ]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [f"== {self.name}: {self.title} ==", f"claim: {self.claim}"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Export rows as CSV keyed by column keys.

        Values containing commas, quotes or newlines are quoted per the
        :mod:`csv` module's rules, so claim-note strings promoted into
        cells round-trip instead of silently corrupting the file.
        """
        keys = [c.key for c in self.columns]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in self.rows:
            writer.writerow([str(row.get(k, "")) for k in keys])
        return buf.getvalue()[:-1]  # drop the terminator of the last row

    def column_values(self, key: str) -> list:
        """All row values for one column key."""
        return [row.get(key) for row in self.rows]

    def to_jsonable(self) -> dict:
        """A plain-data dict that round-trips through JSON.

        NumPy scalars are demoted to native Python numbers; rendering and
        CSV export are unaffected (``format``/``str`` agree on both), so a
        table restored with :meth:`from_jsonable` reproduces ``render()``
        and ``to_csv()`` byte-for-byte.  This is the checkpoint payload of
        the fault-tolerant runner (:mod:`repro.experiments.checkpoint`).
        """
        return {
            "name": self.name,
            "title": self.title,
            "claim": self.claim,
            "columns": [
                {"key": c.key, "header": c.header, "fmt": c.fmt}
                for c in self.columns
            ],
            "rows": [
                {k: _plain_scalar(v) for k, v in row.items()} for row in self.rows
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Table":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            name=data["name"],
            title=data["title"],
            claim=data["claim"],
            columns=[Column(**c) for c in data["columns"]],
            rows=[dict(r) for r in data["rows"]],
            notes=list(data["notes"]),
        )


def _plain_scalar(value):
    """Demote NumPy scalars to native Python types for JSON export."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def replicate(
    fn: Callable[[int], object],
    reps: int,
    root_seed: int,
    *path: int,
) -> list:
    """Run ``fn(seed)`` for *reps* stable derived seeds and collect results."""
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    results = [fn(derive_seed(root_seed, *path, r)) for r in range(reps)]
    _record_cell(results, path)
    return results


def replicate_batched(
    policy_factory: Callable,
    n: int,
    adversary_factory: Callable,
    reps: int,
    root_seed: int,
    *path: int,
    max_slots: int,
    faults=None,
) -> list:
    """Batched counterpart of :func:`replicate` for uniform protocols.

    Runs all *reps* replications in one
    :func:`repro.sim.batched.simulate_uniform_batched` call and returns the
    per-replication :class:`~repro.sim.metrics.RunResult` list, so the same
    ``summarize_times`` summary dicts come out as from the scalar loop.

    Seeding is path-stable via :func:`repro.rng.derive_seed` exactly like
    :func:`replicate`: the batch seed derives from ``(root_seed, *path)``,
    so a table cell reproduces bit-for-bit regardless of execution order.
    (Per-replication bitstreams differ from the scalar loop's -- the batch
    interleaves its draws -- but the run-law is identical; see
    ``tests/sim/test_conformance.py``.)

    *faults* (a :class:`~repro.resilience.faults.FaultModel`) forwards to
    the engine; the default (off) leaves every faults-off pin
    bit-identical.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    from repro.sim.batched import simulate_uniform_batched

    batch = simulate_uniform_batched(
        policy_factory,
        n,
        adversary_factory,
        reps=reps,
        max_slots=max_slots,
        root_seed=derive_seed(root_seed, *path),
        faults=faults,
    )
    results = batch.results()
    _record_cell(results, path)
    return results


def replicate_megakernel(
    policy_factory: Callable,
    n: int,
    adversary_factory: Callable,
    reps: int,
    root_seed: int,
    *path: int,
    max_slots: int,
    faults=None,
) -> list:
    """Megakernel counterpart of :func:`replicate_batched`.

    Routes the cell through
    :func:`repro.sim.megakernel.simulate_uniform_megakernel`: oblivious
    (schedulable) adversaries run the slot-blocked fused fast path, and
    every configuration the fast path cannot serve -- adaptive
    strategies, non-ladder policies, enabled fault models -- delegates to
    the batched engine with the original arguments, byte-identical to
    :func:`replicate_batched` having been called directly (the fallback
    is loud: ``engine_fallback_total{engine="megakernel"}``).

    Seeding is path-stable exactly like :func:`replicate_batched`, and
    the fused path consumes the batched engine's stream, so the results
    are bit-identical to :func:`replicate_batched` either way.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    from repro.sim.megakernel import simulate_uniform_megakernel

    batch = simulate_uniform_megakernel(
        policy_factory,
        n,
        adversary_factory,
        reps=reps,
        max_slots=max_slots,
        root_seed=derive_seed(root_seed, *path),
        faults=faults,
    )
    results = batch.results()
    _record_cell(results, path)
    return results


def replicate_vectorized(
    policy_factory: Callable,
    n: int,
    adversary_factory: Callable,
    reps: int,
    root_seed: int,
    *path: int,
    max_slots: int,
    faults=None,
    audit_T: int | None = None,
    audit_eps: float | None = None,
) -> list:
    """Faithful-model counterpart of :func:`replicate_batched`.

    Runs all *reps* replications of the *per-station* model in one
    :func:`repro.sim.vectorized.simulate_stations_vectorized` call:
    *policy_factory* receives the cell width ``n * reps`` (one policy
    column per station per replication), *faults* are realized
    independently per replication, and passing ``audit_T``/``audit_eps``
    attaches a :class:`~repro.resilience.auditor.BatchInvariantAuditor`
    so every slot of every replication is budget/channel-audited.
    Seeding is path-stable exactly like :func:`replicate_batched`; the
    run-law matches the scalar faithful loop (KS-checked in
    ``tests/sim/test_conformance.py``).
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    from repro.resilience.auditor import BatchInvariantAuditor
    from repro.sim.vectorized import simulate_stations_vectorized

    auditor = None
    if audit_T is not None:
        if audit_eps is None:
            raise ConfigurationError("audit_T requires audit_eps")
        auditor = BatchInvariantAuditor(audit_T, audit_eps, reps)
    batch = simulate_stations_vectorized(
        policy_factory,
        n,
        adversary_factory,
        reps=reps,
        max_slots=max_slots,
        root_seed=derive_seed(root_seed, *path),
        faults=faults,
        auditor=auditor,
    )
    results = batch.results()
    _record_cell(results, path)
    return results


#: Components already warned about in this process -- the fallback warning
#: fires once per component, the telemetry counter on every fallback.
_FALLBACK_WARNED: set[str] = set()

_log = logging.getLogger(__name__)


def record_engine_fallback(component: str, reason: str) -> None:
    """Record a silent-no-more fallback from the batched to the scalar path.

    Increments ``engine_fallback_total{reason=...}`` (a no-op when telemetry
    is disabled) and emits a one-time :mod:`logging` warning naming the
    unbatchable *component*, so a cell quietly running ~10x slower leaves a
    visible trace in both the metrics and the log.
    """
    get_telemetry().counter("engine_fallback_total", reason=reason).inc()
    if component not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(component)
        _log.warning(
            "batched engine requested but %s has no vectorized "
            "implementation (reason=%s); falling back to the scalar "
            "per-slot loop",
            component,
            reason,
        )


#: Seed-path component separating shard block indices from repetition
#: indices: a rep-block's seed derives from ``(root_seed, *cell_path,
#: SHARD_BLOCK_TAG, block_index)``, which cannot collide with any unsharded
#: cell path (experiment path components are small non-negative ints).
SHARD_BLOCK_TAG = 7_000_001


class ShardedScheduler:
    """Chunk ``(cell x rep-block)`` work units onto supervised workers.

    The scheduler cuts every spec's repetitions into fixed-size blocks
    (``block_size``; the partition depends only on ``reps``, never on the
    worker count) and regroups the per-block result lists in block order,
    so the returned per-spec lists are identical for any ``jobs``
    (``jobs=1`` runs the worker in-process).  Workers return ``(results,
    telemetry_jsonable | None)``; each block's telemetry shard is merged
    into the caller's live sink exactly once.

    Blocks execute through the block-level supervisor
    (:class:`repro.experiments.shard_supervisor.BlockSupervisor`):
    per-block deadlines with kill-on-timeout, worker death detection and
    re-dispatch, bounded seeded-backoff retry, poison-block quarantine
    (``keep_going``), straggler speculation, and atomic block checkpoints
    (``checkpoint_dir``).  Each :meth:`run` starts and stops its own
    workers; the context-manager form is kept for callers' scoping:

    >>> with ShardedScheduler(jobs=4) as sched:           # doctest: +SKIP
    ...     tables = sched.run(run_shard, specs_a)
    ...     more = sched.run(run_shard, specs_b)
    """

    def __init__(
        self,
        jobs: int | None = None,
        block_size: int = 64,
        *,
        retry=None,
        block_timeout: float | None = None,
        keep_going: bool = False,
        speculate: bool = True,
        checkpoint_dir=None,
        fault_plan=None,
    ) -> None:
        from repro.experiments.parallel import default_jobs
        from repro.experiments.retry import RetryPolicy
        from repro.experiments.shard_supervisor import SupervisionConfig

        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        self.checkpoint_dir = checkpoint_dir
        self.config = SupervisionConfig(
            jobs=default_jobs() if jobs is None else int(jobs),
            retry=retry if retry is not None else RetryPolicy(),
            block_timeout=block_timeout,
            keep_going=bool(keep_going),
            speculate=bool(speculate),
            fault_plan=fault_plan,
        )

    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def blocks_for(self, reps: int) -> list[int]:
        """The fixed rep-block partition of *reps* (jobs-independent)."""
        if reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {reps}")
        full, rest = divmod(reps, self.block_size)
        return [self.block_size] * full + ([rest] if rest else [])

    def _items_for(self, specs: Sequence):
        """Per-block ``(spec_index, block_index, (spec, block_index,
        block_reps))`` units, plus each spec's unit indices."""
        units: list[tuple] = []
        groups: list[range] = []
        for spec_index, spec in enumerate(specs):
            blocks = self.blocks_for(spec.reps)
            groups.append(range(len(units), len(units) + len(blocks)))
            units += [(spec_index, b, (spec, b, reps)) for b, reps in enumerate(blocks)]
        return units, groups

    def run(self, worker: Callable, specs: Sequence) -> list[list]:
        """Run *worker* over every spec's rep-blocks; one result list per spec.

        ``worker`` takes ``(spec, block_index, block_reps)`` and returns
        ``(list_of_results, telemetry_jsonable | None)``.  It must be a
        module-level function when ``jobs > 1`` (worker dispatch pickles
        by reference).
        """
        merged, _shards, _report = self.run_report(
            worker, specs, collect_spec_shards=False
        )
        return merged

    def run_report(
        self,
        worker: Callable,
        specs: Sequence,
        *,
        collect_spec_shards: bool = True,
    ):
        """Supervised run returning ``(merged, spec_shards, report)``.

        ``spec_shards[i]`` is a :class:`~repro.telemetry.Telemetry` built
        from spec *i*'s block shards (None when the blocks carried no
        telemetry -- e.g. restored from checkpoint, which stores results
        only), letting callers read per-spec counters the way a scoped
        ``telemetry.collecting()`` would.  ``report`` is the supervisor's
        :class:`~repro.experiments.shard_supervisor.ShardReport`; with
        ``keep_going`` quarantined blocks leave their spec's result list
        short and are itemized there.

        ``collect_spec_shards=False`` skips rebuilding the per-spec
        telemetry views (every slot stays None); the global-sink merge in
        the supervisor is unaffected.  :meth:`run` uses this -- decoding
        every block's telemetry only to discard it is where the supervised
        path would otherwise lose its overhead budget.
        """
        from repro.experiments.shard_supervisor import (
            BlockCheckpointStore,
            BlockSupervisor,
        )

        units, groups = self._items_for(specs)
        store = (
            BlockCheckpointStore(self.checkpoint_dir)
            if self.checkpoint_dir is not None
            else None
        )
        supervisor = BlockSupervisor(worker, self.config, store)
        payloads, report = supervisor.run(units, self.block_size)

        merged: list[list] = []
        spec_shards: list[Telemetry | None] = []
        for idxs in groups:
            spec_results: list = []
            shard: Telemetry | None = None
            for i in idxs:
                payload = payloads[i]
                if payload is None:
                    continue  # quarantined under keep_going
                results, tel_json = payload
                spec_results.extend(results)
                if collect_spec_shards and tel_json:
                    block_tel = Telemetry.from_jsonable(tel_json)
                    if shard is None:
                        shard = block_tel
                    else:
                        shard.merge(block_tel)
            merged.append(spec_results)
            spec_shards.append(shard)
        return merged, spec_shards, report


def _record_cell(results: Sequence, path: tuple) -> None:
    """Aggregate one table cell's run results into per-cell histograms.

    The ``cell`` label is the seed-derivation path joined with dots -- the
    same coordinates that make the cell reproducible make it addressable in
    the telemetry registry.  Only run results (objects exposing ``slots`` /
    ``elected`` / ``energy``) are recorded; cells replicating other payloads
    (e.g. estimator outputs) pass through untouched.
    """
    tel = get_telemetry()
    if not tel.enabled or not path:
        return
    runs = [
        r
        for r in results
        if hasattr(r, "slots") and hasattr(r, "elected") and hasattr(r, "energy")
    ]
    if not runs:
        return
    cell = ".".join(str(p) for p in path)
    elected_slots = [float(r.slots) for r in runs if r.elected]
    if elected_slots:
        tel.histogram("cell_election_slots", SLOT_BUCKETS, cell=cell).observe_many(
            np.asarray(elected_slots)
        )
    per_station = [float(r.energy.total) / r.n for r in runs if r.n > 0]
    if per_station:
        tel.histogram(
            "cell_energy_per_station", ENERGY_BUCKETS, cell=cell
        ).observe_many(np.asarray(per_station))


def summarize_times(
    results: Sequence,
    slots_of: Callable = lambda r: r.slots,
    elected_of: Callable = lambda r: r.elected,
) -> dict:
    """Summary statistics over a batch of run results.

    Returns mean/median/p90/max of slot counts (over *all* runs, counting
    timeouts at their full budget -- conservative), plus the success rate
    and its 95% Wilson interval.
    """
    if len(results) == 0:
        raise ConfigurationError("no results to summarize")
    slots = np.asarray([slots_of(r) for r in results], dtype=np.float64)
    successes = int(sum(bool(elected_of(r)) for r in results))
    lo, hi = wilson_interval(successes, len(results))
    return {
        "reps": len(results),
        "success_rate": successes / len(results),
        "success_lo": lo,
        "success_hi": hi,
        "mean_slots": float(slots.mean()),
        "median_slots": float(np.median(slots)),
        "p90_slots": float(np.quantile(slots, 0.9)),
        "max_slots": float(slots.max()),
    }


def log2_or_nan(x: float) -> float:
    """log2(x), or NaN for non-positive x (plot-friendly)."""
    return math.log2(x) if x > 0 else math.nan


def render_tables(tables: Iterable[Table]) -> str:
    """Render several tables separated by blank lines."""
    return "\n\n".join(t.render() for t in tables)
