"""Block-level supervision for sharded sweeps: the execution layer that
keeps a ``(cell x rep-block)`` sweep alive despite crashing, hanging, or
poisoned workers.

The paper's protocols make progress although an adversary may disrupt a
``(T, 1-eps)`` fraction of slots; this module ports that mindset to the
sweep scheduler itself.  Each rep-block is one task of the supervised
:class:`~repro.experiments.parallel.WorkerPool` (persistent workers; inline
for ``jobs=1``), which supplies per-block deadlines, death detection and
re-dispatch, bounded seeded retry (:class:`~repro.experiments.retry
.RetryPolicy`; :class:`~repro.errors.ReproError` failures are permanent)
and quarantine.  On top of the pool, :class:`BlockSupervisor` adds:

* **graceful degradation** -- with ``keep_going`` the sweep completes
  around quarantined blocks and reports a failure table, otherwise
  :class:`~repro.errors.ShardFailureError`;
* **speculative re-execution** -- block seeds derive from
  ``(root_seed, *path, SHARD_BLOCK_TAG, b)``, so every block is a pure
  deterministic function: duplicating a straggler is safe, the first
  result wins, and when both land they are verified identical;
* **block checkpoints** -- completed blocks snapshot atomically
  (SHA-256-checked, same discipline as the table checkpoints), so a
  killed sweep resumes mid-cell and bit-reproduces the remainder;
* **graceful shutdown** -- SIGINT/SIGTERM stop dispatch, drain in-flight
  blocks, checkpoint them, and then raise ``KeyboardInterrupt``; a second
  signal aborts immediately.

Every recovery event publishes a telemetry counter:
``shard_retries_total{kind=...}``, ``shard_redispatch_total``,
``shard_quarantined_total{kind=...}``, ``shard_speculative_wins_total``
(plus ``shard_speculative_mismatch_total`` and
``shard_blocks_restored_total``), so a chaotic sweep leaves a complete
audit trail in the metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro import telemetry as _telemetry
from repro.errors import ConfigurationError, ShardFailureError
from repro.experiments.parallel import PoolEvent, WorkerPool
from repro.experiments.retry import RetryPolicy
from repro.telemetry import get_telemetry

__all__ = [
    "ShardContext",
    "get_shard_context",
    "shard_context",
    "SupervisionConfig",
    "BlockFailure",
    "ShardReport",
    "BlockCheckpointStore",
    "BlockSupervisor",
]

_log = logging.getLogger(__name__)

#: Schema version embedded in every block checkpoint.
BLOCK_CHECKPOINT_FORMAT = 1

#: Cap on the supervision loop's wait so drain requests (SIGINT/SIGTERM)
#: are noticed promptly even when no result or deadline is imminent.
_WAIT_CAP_S = 0.5

#: Straggler speculation: once ``_STRAGGLER_MIN_DONE`` blocks have
#: completed, a block running longer than ``_STRAGGLER_FACTOR`` x the
#: median completed block (and 50 ms) is duplicated onto an idle worker.
_STRAGGLER_FACTOR = 4.0
_STRAGGLER_MIN_DONE = 3


# -- ambient shard context --------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardContext:
    """Process-wide defaults for sharded cell execution.

    ``run_all --shard-jobs N`` configures this inside each experiment
    attempt (parent or isolated worker alike), so experiment modules keep
    their ``run(preset, seed)`` signature and still land on the supervised
    sharded path: :func:`repro.experiments.cells.run_cells` consults the
    context when the caller passes no explicit jobs.  ``jobs=None`` means
    sharding is not forced -- the inert default.
    """

    jobs: int | None = None
    block_size: int | None = None
    block_timeout: float | None = None
    checkpoint_dir: str | None = None
    fault_plan: object | None = None  # experiments.faults.FaultPlan


_active_context = ShardContext()


def get_shard_context() -> ShardContext:
    """The ambient shard context (the inert default when unconfigured)."""
    return _active_context


@contextmanager
def shard_context(**kwargs):
    """Install a :class:`ShardContext` for the duration of the block."""
    global _active_context
    previous, _active_context = _active_context, ShardContext(**kwargs)
    try:
        yield _active_context
    finally:
        _active_context = previous


# -- report -----------------------------------------------------------------


@dataclass(slots=True)
class BlockFailure:
    """One quarantined block: which block, why, after how many attempts."""

    spec_index: int
    block_index: int
    kind: str  # "error" | "crash" | "timeout"
    message: str
    attempts: int


@dataclass(slots=True)
class ShardReport:
    """What the supervisor did to finish (or give up on) a sweep."""

    blocks: int = 0
    completed: int = 0
    restored: int = 0
    retries: int = 0
    redispatches: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    speculative_mismatches: int = 0
    quarantined: list[BlockFailure] = field(default_factory=list)
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        """Every block produced a result and the sweep was not interrupted."""
        return not self.quarantined and not self.interrupted

    def quarantine_table(self):
        """The FAILURES-style summary table of quarantined blocks."""
        from repro.experiments.harness import Column, Table

        table = Table(
            name="SHARD-FAILURES",
            title="rep-blocks that did not complete",
            claim=(
                "block-level graceful degradation: keep_going quarantines "
                "poison blocks instead of aborting the sweep"
            ),
            columns=[
                Column("spec", "spec"),
                Column("block", "block"),
                Column("kind", "kind"),
                Column("attempts", "attempts"),
                Column("error", "error"),
            ],
        )
        for failure in self.quarantined:
            table.add_row(
                spec=failure.spec_index,
                block=failure.block_index,
                kind=failure.kind,
                attempts=failure.attempts,
                error=failure.message[:160],
            )
        return table

    def summary(self) -> str:
        """One human-readable line for logs and CLI footers."""
        return (
            f"blocks={self.blocks} completed={self.completed} "
            f"restored={self.restored} retries={self.retries} "
            f"redispatched={self.redispatches} "
            f"speculative={self.speculative_launches}"
            f"(wins={self.speculative_wins}) "
            f"quarantined={len(self.quarantined)}"
        )


# -- block checkpoints ------------------------------------------------------


class BlockCheckpointStore:
    """Atomic, checksummed snapshots of completed rep-blocks.

    One JSON file per block, keyed by a fingerprint of the *spec content*
    plus the block partition -- never by position -- so a resume restores
    a block only when its parameters (and therefore its derived seeds)
    match exactly, and differently-parameterized sweeps can never collide
    in one directory.  Files follow the same discipline as the table
    checkpoints: same-directory tmp + rename, embedded SHA-256 verified on
    load, damaged files treated as absent.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @staticmethod
    def block_key(spec, block_size: int, block_index: int) -> str:
        """Content-addressed key of one (spec, partition, block) unit."""
        if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
            fingerprint = dataclasses.asdict(spec)
        else:
            fingerprint = repr(spec)
        payload = json.dumps(
            {
                "format": BLOCK_CHECKPOINT_FORMAT,
                "spec": fingerprint,
                "block_size": block_size,
                "block": block_index,
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def _path(self, key: str) -> Path:
        return self.root / f"block-{key}.json"

    def load(self, key: str) -> list | None:
        """Restore one block's results, or None to recompute.

        A missing file, unparseable JSON, a checksum mismatch, or an
        undecodable payload all mean "recompute" -- the store never trusts
        a damaged checkpoint.
        """
        from repro.sim.metrics import RunResult

        try:
            data = json.loads(self._path(key).read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            return None
        results = data.get("results")
        if results is None or data.get("checksum") != _encode_results(results)[1]:
            return None
        try:
            return [RunResult.from_jsonable(r) for r in results]
        except (KeyError, TypeError):
            return None

    def save(self, key: str, results: Sequence) -> str:
        """Atomically snapshot one block's results; returns the checksum.

        Raises :class:`~repro.errors.ConfigurationError` when the results
        are not JSON-serializable run results (the supervisor then runs
        uncheckpointed for the rest of the sweep).  Only the store's own
        directory is created: when its parent (a run directory) is gone,
        the save raises :class:`FileNotFoundError` instead of recreating it.
        """
        from repro.experiments.checkpoint import atomic_write_text

        payload, digest = _encode_results([r.to_jsonable() for r in results])
        self.root.mkdir(exist_ok=True)
        # The sorted-key dump of {"checksum", "format", "results"}, built
        # around the one encoding of the results.
        atomic_write_text(
            self._path(key),
            f'{{"checksum":"{digest}","format":{BLOCK_CHECKPOINT_FORMAT},'
            f'"results":{payload}}}',
        )
        return digest


def _encode_results(results_jsonable) -> tuple[str, str]:
    """The results' canonical JSON text and its SHA-256 checksum."""
    payload = json.dumps(results_jsonable, sort_keys=True, separators=(",", ":"))
    return payload, hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- supervision configuration ---------------------------------------------


@dataclass(frozen=True, slots=True)
class SupervisionConfig:
    """Knobs of one supervised sweep (see the module docstring)."""

    jobs: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    block_timeout: float | None = None
    keep_going: bool = False
    speculate: bool = True
    fault_plan: object | None = None  # experiments.faults.FaultPlan

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.block_timeout is not None and self.block_timeout <= 0:
            raise ConfigurationError(
                f"block_timeout must be > 0, got {self.block_timeout}"
            )


class BlockSupervisor:
    """Drive a list of block tasks to completion under supervision.

    One-shot: construct, :meth:`run`, discard.  ``jobs > 1`` runs blocks on
    a :class:`~repro.experiments.parallel.WorkerPool` of persistent worker
    processes; ``jobs=1`` runs them inline with the same retry/quarantine/
    checkpoint semantics (timeouts, kills and speculation need real
    workers and are unavailable inline).
    """

    def __init__(
        self,
        worker_fn: Callable,
        config: SupervisionConfig,
        checkpoint: BlockCheckpointStore | None = None,
    ):
        self.worker_fn = worker_fn
        self.config = config
        self.checkpoint = checkpoint
        self.report = ShardReport()
        self._drain = False
        self._abort = False
        self._done_elapsed: list[float] = []
        self._speculated: set[int] = set()  # task ordinals duplicated
        self._units: list[tuple[int, int, object]] = []
        self._keys: list[str | None] = []  # checkpoint keys
        self._payloads: list = []

    # -- public entry ------------------------------------------------------

    def run(self, items: Sequence[tuple[int, int, object]], block_size: int):
        """Supervise every ``(spec_index, block_index, item)`` work unit.

        Returns ``(payloads, report)`` where ``payloads[i]`` is the i-th
        item's worker payload (``None`` for quarantined blocks).  Raises
        :class:`~repro.errors.ShardFailureError` when blocks were
        quarantined and ``keep_going`` is off, and ``KeyboardInterrupt``
        after a signal-requested drain.
        """
        self._units = list(items)
        self._keys = [self._key(unit, block_size) for unit in self._units]
        self._payloads = [None] * len(self._units)
        self.report.blocks = len(self._units)
        pending = [i for i in range(len(self._units)) if not self._restore(i)]
        if pending:
            self._supervise(pending)

        if self.report.interrupted:
            done = self.report.completed + self.report.restored
            raise KeyboardInterrupt(
                f"sharded sweep interrupted: {done}/{self.report.blocks} "
                "blocks finished"
                + (" and checkpointed" if self.checkpoint is not None else "")
            )
        if self.report.quarantined and not self.config.keep_going:
            worst = self.report.quarantined[0]
            raise ShardFailureError(
                f"{len(self.report.quarantined)} rep-block(s) quarantined "
                f"after bounded retries (first: spec {worst.spec_index} "
                f"block {worst.block_index}, {worst.kind}: {worst.message}); "
                "pass keep_going=True to collect partial results",
                report=self.report,
            )
        return self._payloads, self.report

    # -- checkpoints ---------------------------------------------------------

    def _key(self, unit, block_size: int) -> str | None:
        _spec_index, block_index, item = unit
        if self.checkpoint is None:
            return None
        spec = item[0] if isinstance(item, tuple) and item else item
        return self.checkpoint.block_key(spec, block_size, block_index)

    def _restore(self, i: int) -> bool:
        """Restore a completed block from its checkpoint, if valid."""
        if self._keys[i] is None:
            return False
        results = self.checkpoint.load(self._keys[i])
        if results is None:
            return False
        self._payloads[i] = (results, None)  # checkpointed telemetry is not replayed
        self.report.restored += 1
        get_telemetry().counter("shard_blocks_restored_total").inc()
        return True

    def _save(self, i: int, results) -> None:
        """Checkpoint one completed block (disabling on unserializable data)."""
        if self.checkpoint is None:
            return
        try:
            self.checkpoint.save(self._keys[i], results)
        except ConfigurationError as exc:
            self.checkpoint = None
            _log.warning(
                "disabling block checkpoints for this sweep: %s", exc
            )

    # -- supervision -------------------------------------------------------

    def _supervise(self, pending: list[int]) -> None:
        config = self.config
        inline = config.jobs == 1
        with WorkerPool(
            self.worker_fn,
            min(config.jobs, len(pending)),
            retry=config.retry,
            timeout=config.block_timeout,
            fault_plan=config.fault_plan,
            in_process=inline,
        ) as pool:
            for i in pending:
                spec_index, block_index, item = self._units[i]
                pool.submit(
                    i, (item,),
                    label=f"block (spec {spec_index}, block {block_index})",
                    fault_id=f"block{i}",
                )
            handlers = None if inline else self._install_signal_handlers()
            try:
                while pool.unfinished():
                    if self._abort or (self._drain and not pool.busy()):
                        self.report.interrupted = True
                        return
                    for event in pool.poll(_WAIT_CAP_S, dispatch=not self._drain):
                        self._on_event(event)
                    if config.speculate and not self._drain:
                        self._speculate(pool)
            except KeyboardInterrupt:  # inline blocks run without handlers
                self.report.interrupted = True
            finally:
                self._restore_signal_handlers(handlers)

    def _on_event(self, event: PoolEvent) -> None:
        i = event.task.key
        payload = event.result
        plan = self.config.fault_plan
        if (event.kind in ("ok", "duplicate") and plan is not None
                and plan.should_corrupt_block(i, event.execution)):
            payload = plan.corrupt_block_payload(payload)
        if event.kind == "duplicate":
            self._verify_duplicate(i, payload)
            return
        if event.kind == "ok":
            self._done_elapsed.append(event.elapsed)
            self._complete(
                i, payload,
                speculative_win=i in self._speculated
                and event.execution == event.task.executions,
            )
            return
        tel = get_telemetry()
        if event.kind == "crash":
            self.report.redispatches += 1
            tel.counter("shard_redispatch_total").inc()
        if event.retry_delay is not None:
            self.report.retries += 1
            tel.counter("shard_retries_total", kind=event.kind).inc()
        elif event.task.state == "failed":
            spec_index, block_index, _item = self._units[i]
            self.report.quarantined.append(
                BlockFailure(
                    spec_index=spec_index,
                    block_index=block_index,
                    kind=event.kind,
                    message=event.message,
                    attempts=event.task.executions,
                )
            )
            tel.counter("shard_quarantined_total", kind=event.kind).inc()

    def _complete(self, i: int, payload, speculative_win: bool) -> None:
        self._payloads[i] = payload
        self.report.completed += 1
        if speculative_win:
            self.report.speculative_wins += 1
            get_telemetry().counter("shard_speculative_wins_total").inc()
        results, tel_json = _split_payload(payload)
        if results is not None:
            self._save(i, results)
        if tel_json:
            live = get_telemetry()
            if live.enabled:
                live.merge(_telemetry.Telemetry.from_jsonable(tel_json))

    def _verify_duplicate(self, i: int, payload) -> None:
        """Check a second (speculative) result against the accepted one."""
        a, _ = _split_payload(self._payloads[i])
        b, _ = _split_payload(payload)
        try:
            identical = a == b
        except Exception:  # exotic result types: treat as mismatch
            identical = False
        if not identical:
            spec_index, block_index, _item = self._units[i]
            self.report.speculative_mismatches += 1
            get_telemetry().counter("shard_speculative_mismatch_total").inc()
            _log.warning(
                "speculative duplicate of block (spec %d, block %d) produced "
                "a different result; kept the first-arriving one (block "
                "execution is expected to be deterministic -- investigate)",
                spec_index,
                block_index,
            )

    def _speculate(self, pool: WorkerPool) -> None:
        """Duplicate stragglers onto idle workers once nothing is queued.

        A straggler is the longest-running block not yet duplicated whose
        run exceeds ``_STRAGGLER_FACTOR`` x the median completed block (and
        50 ms), once ``_STRAGGLER_MIN_DONE`` blocks have completed.
        """
        if (len(self._done_elapsed) < _STRAGGLER_MIN_DONE
                or pool.has_pending() or not pool.idle()):
            return
        done = sorted(self._done_elapsed)
        threshold = max(_STRAGGLER_FACTOR * done[len(done) // 2], 0.05)
        while pool.idle():
            now = time.monotonic()
            candidates = [
                (now - started, task)
                for task, started in pool.busy()
                if task.state == "running" and task.running == 1
                and task.key not in self._speculated
                and now - started > threshold
            ]
            if not candidates:
                return
            _elapsed, task = max(candidates, key=lambda c: c[0])
            self._speculated.add(task.key)
            self.report.speculative_launches += 1
            pool.launch(task)

    # -- signal handling ----------------------------------------------------

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        handlers = {}

        def on_signal(signum, frame):
            if self._drain:
                self._abort = True
            else:
                self._drain = True
                _log.warning(
                    "shard supervisor: received signal %d -- draining "
                    "in-flight blocks (signal again to abort immediately)",
                    signum,
                )

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                handlers[sig] = signal.signal(sig, on_signal)
            except (ValueError, OSError):
                pass
        return handlers

    def _restore_signal_handlers(self, handlers) -> None:
        if not handlers:
            return
        for sig, previous in handlers.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass


def _split_payload(payload):
    """Unpack a worker payload into ``(results, telemetry_jsonable)``."""
    if isinstance(payload, tuple) and len(payload) == 2:
        return payload
    return payload, None
