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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analysis.estimators import wilson_interval
from repro.errors import ConfigurationError
from repro.rng import derive_seed
from repro.telemetry import ENERGY_BUCKETS, SLOT_BUCKETS, get_telemetry
from repro.types import CDMode

__all__ = [
    "Column",
    "Table",
    "replicate",
    "replicate_batched",
    "replicate_megakernel",
    "replicate_vectorized",
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
    This is the per-slot engine alone: the cells run through
    :func:`replicate_megakernel`, and the tests hold them to this
    function's bits.

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
    """The batched entry point of every cell: fused path when eligible.

    Routes the cell through
    :func:`repro.sim.megakernel.simulate_uniform_megakernel`, whose
    eligibility probe picks the path: oblivious (schedulable) adversaries,
    and the adaptive ones that read only the protocol state of a sweep,
    no-CD sweep or Estimation, run the slot-blocked fused path; every
    other configuration -- feedback-reading or randomized strategies,
    state-reading ones under LESK, LESU, enabled fault models -- runs the
    batched engine's per-slot loop with the original arguments, and
    counts ``engine_fallback_total{engine="megakernel",reason}``.

    Seeding is path-stable exactly like :func:`replicate_batched`, and
    the fused path consumes the batched engine's stream, so the results
    are bit-identical to :func:`replicate_batched` on either path.
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
    cd_mode: CDMode = CDMode.STRONG,
) -> list:
    """Faithful-model counterpart of :func:`replicate_batched`.

    Runs all *reps* replications of the *per-station* model in one
    :func:`repro.sim.vectorized.simulate_stations_vectorized` call:
    *policy_factory* receives the policy width -- ``n * reps`` (one
    column per station per replication) in weak CD or under churn or
    clock skew, and ``reps`` (one column per replication, which its
    stations share) in strong CD without them -- *faults* are realized
    independently per replication, and passing ``audit_T``/``audit_eps``
    attaches a :class:`~repro.resilience.auditor.BatchInvariantAuditor`
    so every slot of every replication is budget/channel-audited.

    Tables use it for per-station quantities: A6's per-station energy
    (strong CD, a first-``Single`` policy) and T6's and A9's weak-CD
    Notification runs (*cd_mode* ``WEAK`` with a
    :class:`~repro.protocols.vector.VectorNotificationPolicy`, which
    resolves its own Singles, so a replication ends when every station
    is done and its leader count is read off the stations).  Seeding is
    path-stable exactly like :func:`replicate_batched`; the run-law
    matches the scalar faithful loop (KS-checked in
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
        cd_mode=cd_mode,
        faults=faults,
        auditor=auditor,
    )
    results = batch.results()
    _record_cell(results, path)
    return results


#: Seed-path component separating shard block indices from repetition
#: indices: a rep-block's seed derives from ``(root_seed, *cell_path,
#: SHARD_BLOCK_TAG, block_index)``, which cannot collide with any unsharded
#: cell path (experiment path components are small non-negative ints).
SHARD_BLOCK_TAG = 7_000_001


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

