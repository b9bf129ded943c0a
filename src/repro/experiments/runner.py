"""Fault-tolerant supervised experiment runner.

``run_all`` used to be all-or-nothing: one crashed or hung worker aborted
a multi-hour run and discarded every completed table.  This module wraps
each experiment in a *supervised unit of work*, in the same spirit as the
paper's protocols, which make progress despite an adversary disrupting a
``(T, 1-eps)`` fraction of slots.  Every attempt is one task of the
supervised :class:`~repro.experiments.parallel.WorkerPool`:

* **isolation** -- every attempt runs in a fresh forked worker process,
  so a crash (or even a SIGKILL/OOM kill) loses one attempt, not the run,
  and no attempt inherits another's memory; ``--jobs N`` runs N attempts
  at once;
* **timeout** -- a wall-clock budget per attempt; a hung worker is killed
  and recorded as :class:`~repro.errors.ExperimentTimeoutError`, never
  waited on forever;
* **retry** -- transient failures (crashes, dead workers) are retried
  with exponential backoff and seeded jitter, up to a bounded attempt
  count.  :class:`~repro.errors.ReproError` failures are configuration
  errors by contract and are *never* retried; timeouts are not retried by
  default (a hung worker usually hangs again);
* **checkpointing** -- finished tables are snapshotted atomically to a
  :class:`~repro.experiments.checkpoint.RunDir` the moment they complete,
  with a journal and manifest, so ``--resume`` re-runs only what is
  missing (seeds are path-derived, so the remainder bit-reproduces);
* **graceful degradation** -- with ``keep_going`` (the default) failures
  are collected into a summary table instead of aborting the run, and the
  exit code distinguishes full, partial, and total success.

Determinism note: results always cross the worker boundary as the
table's JSON form (:meth:`~repro.experiments.harness.Table.to_jsonable`),
the same representation checkpoints use -- so direct runs, resumed runs,
and restored checkpoints render byte-identically by construction.
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry as _telemetry
from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.experiments.checkpoint import RunDir, atomic_write_text, corrupt_checkpoint
from repro.experiments.faults import FaultPlan
from repro.experiments.harness import Column, Table
from repro.experiments.parallel import PoolEvent, WorkerPool
from repro.experiments.retry import RetryPolicy
from repro.experiments.shard_supervisor import shard_context
from repro.telemetry.export import prometheus_text, write_jsonl
from repro.telemetry.report import TELEMETRY_JSONL, TELEMETRY_PROM, TELEMETRY_SUBDIR

__all__ = [
    "RetryPolicy",
    "RunnerConfig",
    "ExperimentOutcome",
    "Runner",
    "failure_table",
    "exit_code",
]

#: Outcome statuses that count as a usable table.
_OK_STATUSES = ("ok", "restored")


@dataclass(frozen=True, slots=True)
class RunnerConfig:
    """Knobs of one supervised run (see the module docstring).

    ``shard_jobs`` (with optional ``shard_block_size`` /
    ``shard_block_timeout``) turns on *intra-experiment* sharding: each
    attempt installs an ambient
    :class:`~repro.experiments.shard_supervisor.ShardContext`, so
    experiments whose cells route through
    :func:`repro.experiments.cells.run_cells` split their rep-blocks
    across supervised shard workers -- with block-level checkpoints under
    ``<run_dir>/shards/`` when the run is checkpointed.
    """

    preset: str = "small"
    seed: int | None = None  # None -> each experiment's module default
    jobs: int = 1
    timeout: float | None = None  # wall-clock seconds per attempt
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    keep_going: bool = True
    fault_plan: FaultPlan | None = None
    isolate: bool = True  # False: in-process attempts (no timeout/kill)
    telemetry: bool = False  # collect per-attempt metrics and merge them
    telemetry_stride: int = _telemetry.DEFAULT_STRIDE
    shard_jobs: int | None = None  # None: experiments run their cells unsharded
    shard_block_size: int | None = None
    shard_block_timeout: float | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.telemetry_stride < 1:
            raise ConfigurationError(
                f"telemetry_stride must be >= 1, got {self.telemetry_stride}"
            )
        if self.shard_jobs is not None and self.shard_jobs < 1:
            raise ConfigurationError(
                f"shard_jobs must be >= 1, got {self.shard_jobs}"
            )
        if self.shard_block_size is not None and self.shard_block_size < 1:
            raise ConfigurationError(
                f"shard_block_size must be >= 1, got {self.shard_block_size}"
            )


@dataclass(slots=True)
class ExperimentOutcome:
    """What happened to one experiment across all its attempts."""

    exp_id: str
    status: str  # "ok" | "restored" | "failed" | "timeout" | "aborted"
    table: Table | None = None
    attempts: int = 0
    elapsed: float = 0.0
    error: str | None = None
    traceback: str | None = None
    checksum: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in _OK_STATUSES


def _attempt_worker(module_name, preset, exp_id, seed, tel_stride=None, shard=None):
    """Pool task body: run one experiment attempt, return its table.

    Module-level (picklable by reference).  Results cross the process
    boundary as the table's JSON form.  With *tel_stride* set, the attempt
    runs under a fresh scoped telemetry sink and its registry ships home
    alongside the table (as JSON, the same merge-safe form the exporters
    use), so the parent aggregates across processes.  With *shard* set (a
    dict of :class:`~repro.experiments.shard_supervisor.ShardContext`
    fields), the attempt installs the ambient shard context so the
    experiment's cells run on the supervised sharded path.
    """
    kwargs = {"preset": preset}
    if seed is not None:
        kwargs["seed"] = seed
    with ExitStack() as stack:
        if shard is not None:
            stack.enter_context(shard_context(**shard))
        module = importlib.import_module(module_name)
        if tel_stride is None:
            return module.run(**kwargs).to_jsonable()
        tel = stack.enter_context(_telemetry.collecting(stride=tel_stride))
        table = module.run(**kwargs)
    return {"table": table.to_jsonable(), "telemetry": tel.to_jsonable()}


class Runner:
    """Supervised execution of a list of experiments.

    Each attempt is one task of a :class:`~repro.experiments.parallel
    .WorkerPool` with ``config.jobs`` slots, run in a fresh worker process
    (``isolate``, the default) or inline.

    Parameters
    ----------
    ids:
        Experiment ids, in output order.
    modules:
        ``id -> module path`` registry (normally
        ``run_all.EXPERIMENT_MODULES``).
    config:
        The :class:`RunnerConfig`.
    run_dir:
        Optional :class:`~repro.experiments.checkpoint.RunDir` for
        checkpoints/journal/outputs; ``None`` runs ephemerally.
    resume:
        When true, valid checkpoints in *run_dir* are restored instead of
        recomputed (corrupt ones are detected and recomputed).  The caller
        is responsible for manifest validation before constructing the
        runner (see ``run_all.main``).
    """

    def __init__(
        self,
        ids: list[str],
        modules: dict[str, str],
        config: RunnerConfig,
        run_dir: RunDir | None = None,
        resume: bool = False,
    ):
        unknown = [i for i in ids if i not in modules]
        if unknown:
            raise ConfigurationError(f"unknown experiment ids: {unknown}")
        self.ids = list(ids)
        self.modules = modules
        self.config = config
        self.run_dir = run_dir
        self.resume = resume
        # Run-level telemetry aggregate; attempt shards merge in.
        self.telemetry: _telemetry.Telemetry | None = (
            _telemetry.Telemetry(stride=config.telemetry_stride)
            if config.telemetry
            else None
        )
        self._started: dict[str, float] = {}  # first attempt's start

    def _journal(self, record: dict) -> None:
        if self.run_dir is not None:
            self.run_dir.append_journal(record)

    def _shard_settings(self) -> dict | None:
        """The ambient shard-context fields for attempts, or None.

        Block checkpoints live in one shared ``<run_dir>/shards/``
        directory for all experiments: block checkpoint keys are
        content-addressed over the full cell spec (kind, parameters, seed
        path), so blocks from different experiments can never collide.
        """
        if self.config.shard_jobs is None:
            return None
        checkpoint_dir = (
            str(self.run_dir.root / "shards") if self.run_dir is not None else None
        )
        return {
            "jobs": self.config.shard_jobs,
            "block_size": self.config.shard_block_size,
            "block_timeout": self.config.shard_block_timeout,
            "checkpoint_dir": checkpoint_dir,
            "fault_plan": self.config.fault_plan,
        }

    def _absorb_telemetry(self, exp_id: str, attempt: int, data: dict) -> None:
        """Merge one attempt's telemetry shard into the run-level aggregate.

        Counters add and histograms add bucket-wise, so retried attempts
        each contribute their (journaled) share; the journal record keeps
        the per-attempt totals addressable after merging.
        """
        if self.telemetry is None:
            return
        shard = _telemetry.Telemetry.from_jsonable(data)
        self.telemetry.merge(shard)
        self._journal(
            {
                "event": "telemetry",
                "id": exp_id,
                "attempt": attempt,
                "counters": shard.metrics.totals_by_name(),
                "events": len(shard.events),
                "events_dropped": shard.events.dropped,
            }
        )

    def _export_telemetry(self) -> None:
        """Persist the merged run-level telemetry next to the checkpoints."""
        if self.telemetry is None or self.run_dir is None:
            return
        if not self.telemetry.metrics.totals_by_name() and not len(
            self.telemetry.events
        ):
            # Nothing collected (e.g. a --resume run restored everything):
            # keep any previous export instead of clobbering it with blanks.
            return
        tel_dir = self.run_dir.root / TELEMETRY_SUBDIR
        tel_dir.mkdir(parents=True, exist_ok=True)
        write_jsonl(tel_dir / TELEMETRY_JSONL, self.telemetry)
        atomic_write_text(
            tel_dir / TELEMETRY_PROM, prometheus_text(self.telemetry.metrics)
        )

    # -- attempts ----------------------------------------------------------

    def _attempt_start(self, task, attempt: int, seq: int) -> tuple:
        """Pool dispatch hook: journal the attempt before its worker spawns."""
        self._started.setdefault(task.key, time.perf_counter())
        self._journal({"event": "attempt_start", "id": task.key, "attempt": attempt})
        return task.args

    def _attempt_end(self, event: PoolEvent) -> ExperimentOutcome | None:
        """Journal one finished attempt; the experiment's outcome once it
        is settled, None while it is being retried."""
        exp_id, attempt = event.task.key, event.execution
        elapsed = time.perf_counter() - self._started[exp_id]
        record = {"event": "attempt_end", "id": exp_id, "attempt": attempt,
                  "status": event.kind, "elapsed": round(event.elapsed, 3)}
        if event.kind == "ok":
            self._journal(record)
            payload = event.result
            if isinstance(payload, dict) and "telemetry" in payload:
                self._absorb_telemetry(exp_id, attempt, payload["telemetry"])
                payload = payload["table"]
            table = Table.from_jsonable(payload)
            checksum = self._checkpoint(table, exp_id, attempt)
            outcome = ExperimentOutcome(exp_id, "ok", table=table, checksum=checksum)
            done = {"checksum": checksum}
        else:
            error = event.message
            if event.kind == "timeout":
                error = f"ExperimentTimeoutError: {error}"
            done = {"error": error, "traceback": event.traceback}
            self._journal({**record, **done, "permanent": event.permanent})
            if event.task.state != "failed":
                return None
            status = "timeout" if event.kind == "timeout" else "failed"
            outcome = ExperimentOutcome(exp_id, status, **done)
        outcome.attempts, outcome.elapsed = attempt, elapsed
        self._journal({"event": "done", "id": exp_id, "status": outcome.status,
                       "attempts": attempt, "elapsed": round(elapsed, 3), **done})
        return outcome

    def _checkpoint(self, table: Table, exp_id: str, attempt: int) -> str | None:
        """Snapshot a finished table (and apply any planned corruption)."""
        if self.run_dir is None:
            return None
        checksum = self.run_dir.save_table(table)
        plan = self.config.fault_plan
        if plan is not None and plan.should_corrupt(exp_id, attempt):
            corrupt_checkpoint(self.run_dir.checkpoint_path(exp_id), plan.seed)
        self.run_dir.write_outputs(table)
        return checksum

    def _restore(self, exp_id: str) -> ExperimentOutcome | None:
        """Restore a valid checkpoint on resume, or None to recompute."""
        if not (self.resume and self.run_dir and self.run_dir.has_checkpoint(exp_id)):
            return None
        try:
            table = self.run_dir.load_table(exp_id)
        except ChecksumMismatchError as exc:
            self._journal({"event": "recompute", "id": exp_id, "reason": str(exc)})
            return None
        self.run_dir.write_outputs(table)  # regenerate .txt/.csv for a full set
        checksum = self.run_dir.save_table(table)
        self._journal({"event": "restored", "id": exp_id, "checksum": checksum})
        return ExperimentOutcome(
            exp_id=exp_id, status="restored", table=table, checksum=checksum
        )

    # -- the whole run -----------------------------------------------------

    def run(
        self, on_outcome: Callable[[ExperimentOutcome], None] | None = None
    ) -> list[ExperimentOutcome]:
        """Run every experiment; returns outcomes in ``ids`` order.

        *on_outcome* is invoked as each experiment finalizes, in completion
        order.  With ``keep_going`` off, the first failure stops dispatch;
        experiments never started are reported with status ``"aborted"``.
        """
        outcomes: dict[str, ExperimentOutcome] = {}
        emit = on_outcome or (lambda outcome: None)

        def settle(outcome: ExperimentOutcome) -> None:
            outcomes[outcome.exp_id] = outcome
            emit(outcome)

        pending: list[str] = []
        for exp_id in self.ids:
            restored = self._restore(exp_id)
            if restored is not None:
                settle(restored)
            else:
                pending.append(exp_id)

        config = self.config
        tel_stride = config.telemetry_stride if config.telemetry else None
        shard = self._shard_settings()
        with WorkerPool(
            _attempt_worker,
            config.jobs,
            retry=config.retry,
            timeout=config.timeout,
            fault_plan=config.fault_plan,
            in_process=not config.isolate,
            fresh=True,
            before_dispatch=self._attempt_start,
        ) as pool:
            for exp_id in pending:
                pool.submit(
                    exp_id,
                    (self.modules[exp_id], config.preset, exp_id, config.seed,
                     tel_stride, shard),
                    fault_id=exp_id,
                )
            while pool.unfinished():
                for event in pool.poll():
                    outcome = self._attempt_end(event)
                    if outcome is None:
                        continue
                    settle(outcome)
                    if not outcome.ok and not config.keep_going:
                        for task in pool.drop_unstarted():
                            self._journal({"event": "aborted", "id": task.key})
                            settle(ExperimentOutcome(task.key, "aborted"))

        if self.run_dir is not None:
            failures = [o for o in outcomes.values() if not o.ok]
            failures_path = self.run_dir.root / "failures.txt"
            if failures:
                atomic_write_text(
                    failures_path,
                    failure_table([outcomes[i] for i in self.ids if i in outcomes])
                    .render()
                    + "\n",
                )
            else:
                failures_path.unlink(missing_ok=True)
        self._export_telemetry()
        return [outcomes[i] for i in self.ids if i in outcomes]


def failure_table(outcomes: list[ExperimentOutcome]) -> Table:
    """The graceful-degradation summary: every non-ok experiment, one row."""
    table = Table(
        name="FAILURES",
        title="experiments that did not complete",
        claim=(
            "graceful degradation: --keep-going collects failures instead of "
            "aborting the run"
        ),
        columns=[
            Column("id", "id"),
            Column("status", "status"),
            Column("attempts", "attempts"),
            Column("elapsed", "elapsed s", ".1f"),
            Column("error", "error"),
        ],
    )
    for outcome in outcomes:
        if outcome.ok:
            continue
        table.add_row(
            id=outcome.exp_id,
            status=outcome.status,
            attempts=outcome.attempts,
            elapsed=outcome.elapsed,
            error=(outcome.error or "")[:200],
        )
    return table


def exit_code(outcomes: list[ExperimentOutcome]) -> int:
    """0 = every table produced; 2 = partial success; 1 = nothing usable."""
    if all(o.ok for o in outcomes):
        return 0
    if any(o.ok for o in outcomes) and not any(
        o.status == "aborted" for o in outcomes
    ):
        return 2
    return 1
