"""Content-addressed run store: durable, queryable, bit-replayable runs.

Every run directory is keyed by its scenario's content digest
(:func:`repro.service.scenario.scenario_digest`), so registering the
same document twice addresses the same run -- the store is idempotent
by construction.  Layout::

    STORE_ROOT/runs/<run_id>/        run_id = digest[:16]
      scenario.json        normalized scenario document (digest preimage)
      manifest.json        checkpoint.build_manifest + scenario_digest
                           + the invoking CLI argv (how it was produced)
                           + registered_ns, the registration stamp;
                           written after scenario.json and status.json,
                           so a directory without it is a registration
                           still in progress
      status.json          {"state": queued|running|done|failed|
                          cancelled|quarantined, ...}
      CANCEL               cooperative-cancel marker (present only while
                           a cancellation is pending; polled between
                           cells, works across process boundaries)
      journal.jsonl        append-only event log (registered, dispatched,
                           started, per-cell progress, done/failed)
      shards/block-*.json  content-addressed block checkpoints written
                           during execution (crash-safe resume)
      tables/SCENARIO.json checksummed result-table payload
      SCENARIO.txt / .csv  rendered outputs

Execution always takes the supervised sharded path
(:func:`repro.experiments.cells.run_cells_sharded_report`) with the
scenario's ``block_size``, so results are byte-identical for any worker
count, and a run killed mid-flight resumes from its block checkpoints.
:meth:`RunStore.replay` re-executes a stored run from its manifest
alone -- scenario digest verified, tables recomputed in memory and
compared byte-for-byte against the checksummed stored payloads -- so
both silent bit-rot (checksum mismatch) and result drift (payload
mismatch) are loud.

The run directories are the store's only index.  :meth:`query`,
:meth:`page` and :meth:`failures` scan ``runs/*/`` once per call,
reading each run's ``manifest.json`` (registration stamp, scenario name)
and ``status.json``; they order runs by the stamp :meth:`register` wrote,
tie-broken by run id, and count a run's ``attempts`` from the
``dispatched`` records in its journal.  :meth:`serve_table` is the
verify-on-read gate: a stored table that fails its checksum is
*quarantined*, never served.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.experiments.cells import CellSpec, run_cells_sharded_report
from repro.experiments.checkpoint import (
    SHARD_SUBDIR,
    atomic_write_text,
    build_manifest,
    load_checked_table,
    read_journal,
    save_checked_table,
    table_payload,
    write_table_outputs,
)
from repro.experiments.harness import Column, Table, summarize_times
from repro.service.scenario import (
    Scenario,
    expand,
    scenario_digest,
    scenario_from_jsonable,
)

__all__ = [
    "RUN_ID_LEN",
    "RUN_STATES",
    "RunRecord",
    "ReplayReport",
    "RunStore",
    "results_table",
]

RUNS_SUBDIR = "runs"
TABLES_SUBDIR = "tables"
SCENARIO_NAME = "scenario.json"
STATUS_NAME = "status.json"
JOURNAL_NAME = "journal.jsonl"
MANIFEST_NAME = "manifest.json"
TABLE_NAME = "SCENARIO"
#: Cooperative cancellation marker inside a run directory; polled
#: between cells so a cancel request crosses the worker-process boundary.
CANCEL_NAME = "CANCEL"

#: Hex digits of the scenario digest used as the run id.
RUN_ID_LEN = 16
_FULL_RUN_ID = re.compile(f"[0-9a-f]{{{RUN_ID_LEN}}}")

RUN_STATES = (
    "queued", "running", "done", "failed", "cancelled", "quarantined",
)


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One registered run: its id, directory, and validated scenario."""

    run_id: str
    root: Path
    scenario: Scenario

    @property
    def shards_dir(self) -> Path:
        return self.root / SHARD_SUBDIR

    @property
    def tables_dir(self) -> Path:
        return self.root / TABLES_SUBDIR


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of a bit-replay: stored vs recomputed tables."""

    run_id: str
    identical: bool
    detail: str

    def describe(self) -> str:
        """One-line human verdict (REPRODUCED/DIVERGED + detail)."""
        verdict = "REPRODUCED" if self.identical else "DIVERGED"
        return f"{verdict} run {self.run_id}: {self.detail}"


def results_table(scenario: Scenario, specs: list[CellSpec], results: list[list]) -> Table:
    """One summary row per cell of a scenario run.

    The table (name ``SCENARIO``) is the run's canonical result payload:
    checkpointed with a checksum, compared byte-for-byte on replay.
    Cells whose result lists carry no timeable runs (quarantined-empty,
    or payload kinds like estimation tuples) report NaN summaries.
    """
    table = Table(
        name=TABLE_NAME,
        title=f"scenario {scenario.name}",
        claim=(
            f"scenario digest {scenario_digest(scenario)} fully determines "
            "these results: cell seeds derive from (seed, path_tag, ordinal, "
            "SHARD_BLOCK_TAG, block), identical for any worker count"
        ),
        columns=[
            Column("kind", "kind"),
            Column("n", "n"),
            Column("eps", "eps", "g"),
            Column("T", "T"),
            Column("adversary", "adversary"),
            Column("reps", "reps"),
            Column("success", "success", ".3f"),
            Column("median_slots", "median slots", ".1f"),
            Column("p90_slots", "p90 slots", ".1f"),
        ],
    )
    for spec, cell_results in zip(specs, results):
        runs = [
            r
            for r in cell_results or []
            if hasattr(r, "slots") and hasattr(r, "elected")
        ]
        row = {
            "kind": spec.kind,
            "n": spec.n,
            "eps": spec.eps,
            "T": spec.T,
            "adversary": spec.adversary,
        }
        if not runs:
            table.add_row(
                **row,
                reps=len(cell_results or []),
                success=float("nan"),
                median_slots=float("nan"),
                p90_slots=float("nan"),
            )
            continue
        stats = summarize_times(runs)
        table.add_row(
            **row,
            reps=stats["reps"],
            success=stats["success_rate"],
            median_slots=stats["median_slots"],
            p90_slots=stats["p90_slots"],
        )
    return table


class RunStore:
    """The content-addressed store of scenario runs (see module docstring)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- paths -------------------------------------------------------------

    @property
    def runs_dir(self) -> Path:
        return self.root / RUNS_SUBDIR

    def run_dir(self, run_id: str) -> Path:
        """The directory a run id addresses (whether or not it exists)."""
        return self.runs_dir / run_id

    # -- registration ------------------------------------------------------

    def register(
        self, scenario: Scenario, invocation: dict | None = None
    ) -> tuple[RunRecord, bool]:
        """Register a scenario; returns ``(record, created)``.

        Idempotent: the run id is the scenario digest prefix, so a
        resubmission of the same document (any formatting, any key
        order) lands on the existing run untouched.  The manifest, which
        carries the registration stamp, is written after ``scenario.json``
        and ``status.json``: listings skip a directory until it exists,
        and a resubmission completes a registration cut short before it.
        """
        digest = scenario_digest(scenario)
        run_id = digest[:RUN_ID_LEN]
        root = self.run_dir(run_id)
        record = RunRecord(run_id=run_id, root=root, scenario=scenario)
        if (root / MANIFEST_NAME).exists():
            return record, False
        record.shards_dir.mkdir(parents=True, exist_ok=True)
        record.tables_dir.mkdir(exist_ok=True)
        atomic_write_text(
            root / SCENARIO_NAME,
            json.dumps(scenario.to_jsonable(), indent=2, sort_keys=True),
        )
        self.set_state(run_id, "queued")
        manifest = build_manifest(
            preset="scenario",
            ids=[scenario.name],
            seed=scenario.seed,
            invocation=invocation,
            scenario_digest=digest,
        )
        manifest["registered_ns"] = time.time_ns()
        atomic_write_text(
            root / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True)
        )
        self.append_journal(run_id, {"event": "registered", "digest": digest})
        return record, True

    # -- lookup ------------------------------------------------------------

    def run_ids(self) -> list[str]:
        """All registered run ids, sorted."""
        if not self.runs_dir.is_dir():
            return []
        return sorted(p.name for p in self.runs_dir.iterdir() if p.is_dir())

    def get(self, run_id: str) -> RunRecord:
        """Fetch a run by id or unique id prefix.

        A well-formed full id whose directory exists resolves without
        listing the store; anything else (a prefix, or input that is not
        hex) is matched against the registered names.
        """
        if _FULL_RUN_ID.fullmatch(run_id) and self.run_dir(run_id).is_dir():
            matches = [run_id]
        else:
            ids = self.run_ids()
            matches = [i for i in ids if i.startswith(run_id)]
            if not matches:
                raise ConfigurationError(
                    f"no run {run_id!r} in store {self.root} "
                    f"({len(ids)} runs registered)"
                )
        if len(matches) > 1:
            raise ConfigurationError(
                f"ambiguous run id prefix {run_id!r}: matches {matches}"
            )
        root = self.run_dir(matches[0])
        scenario = self._load_scenario(root)
        return RunRecord(run_id=matches[0], root=root, scenario=scenario)

    def records(self) -> list[RunRecord]:
        """All registered runs (sorted by id)."""
        return [self.get(run_id) for run_id in self.run_ids()]

    def _scan(self, state: str | None = None, name: str | None = None) -> list[dict]:
        """Registered runs matching the filters, in registration order.

        The store's one index: a pass over ``runs/*/`` reading each run's
        manifest (registration stamp, scenario name) and ``status.json``.
        Runs registered before the stamp existed sort first, by id; a
        directory whose manifest is not written yet is skipped.
        """
        found = []
        for run_id in self.run_ids():
            try:
                manifest = json.loads(
                    (self.run_dir(run_id) / MANIFEST_NAME).read_text()
                )
            except (FileNotFoundError, json.JSONDecodeError):
                continue
            scenario_name = (manifest.get("ids") or [None])[0]
            status = self.status(run_id)
            if state is not None and status.get("state") != state:
                continue
            if name is not None and scenario_name != name:
                continue
            found.append((
                manifest.get("registered_ns", 0),
                run_id,
                {"run_id": run_id, "scenario": scenario_name, **status},
            ))
        found.sort(key=lambda item: item[:2])
        return [row for _, _, row in found]

    def _with_attempts(self, rows: list[dict]) -> list[dict]:
        """Each row plus its dispatch count, read from the run's journal."""
        return [
            {
                **row,
                "attempts": sum(
                    1 for r in self.journal(row["run_id"])
                    if r.get("event") == "dispatched"
                ),
            }
            for row in rows
        ]

    def query(
        self,
        state: str | None = None,
        name: str | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[dict]:
        """Summaries of registered runs, optionally filtered and paginated.

        Runs come in registration order.  Each summary holds the run id,
        the scenario name, the ``status.json`` fields and ``attempts``.
        """
        return self.page(state, name, limit, offset)[0]

    def page(
        self,
        state: str | None = None,
        name: str | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> tuple[list[dict], int]:
        """:meth:`query`'s page plus the number of runs matching the
        filters (the total a paginated listing reports), from one scan."""
        rows = self._scan(state, name)
        end = None if limit is None else offset + limit
        return self._with_attempts(rows[offset:end]), len(rows)

    def failures(self) -> list[dict]:
        """The FAILURES view: failed and quarantined runs, newest first."""
        rows = [
            r for r in self._scan() if r.get("state") in ("failed", "quarantined")
        ]
        rows.reverse()
        return self._with_attempts(rows)

    def _load_scenario(self, root: Path) -> Scenario:
        path = root / SCENARIO_NAME
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ConfigurationError(f"{root} has no {SCENARIO_NAME}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"unreadable {path}: {exc}") from exc
        return scenario_from_jsonable(doc, source=str(path))

    def manifest(self, run_id: str) -> dict:
        """The stored run manifest."""
        path = self.run_dir(run_id) / MANIFEST_NAME
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable manifest {path}: {exc}") from exc

    # -- status / journal --------------------------------------------------

    def status(self, run_id: str) -> dict:
        """The run's current status record ({} when missing)."""
        try:
            return json.loads((self.run_dir(run_id) / STATUS_NAME).read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def set_state(self, run_id: str, state: str, **extra) -> None:
        """Atomically update the run's state (one of :data:`RUN_STATES`)."""
        if state not in RUN_STATES:
            raise ConfigurationError(
                f"unknown run state {state!r}; known: {RUN_STATES}"
            )
        record = {"state": state, "updated": round(time.time(), 3), **extra}
        atomic_write_text(
            self.run_dir(run_id) / STATUS_NAME,
            json.dumps(record, sort_keys=True),
        )

    def append_journal(self, run_id: str, record: dict) -> None:
        """Append one event to the run's journal."""
        line = json.dumps({"ts": round(time.time(), 3), **record}, sort_keys=True)
        with open(self.run_dir(run_id) / JOURNAL_NAME, "a") as fh:
            fh.write(line + "\n")

    def journal(self, run_id: str) -> list[dict]:
        """All parseable journal records (torn tail skipped)."""
        return read_journal(self.run_dir(run_id) / JOURNAL_NAME)

    # -- cooperative cancellation (crosses process boundaries) --------------

    def cancel_path(self, run_id: str) -> Path:
        """Where a run's ``CANCEL`` marker file lives."""
        return self.run_dir(run_id) / CANCEL_NAME

    def request_cancel(self, run_id: str) -> None:
        """Drop the cancel marker; pollers stop between cells."""
        self.cancel_path(run_id).touch()

    def cancel_requested(self, run_id: str) -> bool:
        """Whether the run's cancel marker is present."""
        return self.cancel_path(run_id).exists()

    def clear_cancel(self, run_id: str) -> None:
        """Remove any cancel marker (on submit and settled cancels)."""
        self.cancel_path(run_id).unlink(missing_ok=True)

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, run_id: str, reason: str, kind: str = "poison") -> None:
        """Park a run where it can do no harm (never auto-retried/served).

        *kind* labels the telemetry counter: ``poison`` (exhausted its
        retry budget or failed permanently) or ``tamper`` (stored bytes
        failed verify-on-read).
        """
        self.set_state(run_id, "quarantined", error=reason)
        self.append_journal(
            run_id, {"event": "quarantined", "kind": kind, "reason": reason}
        )
        telemetry.get_telemetry().counter(
            "service_runs_quarantined_total", kind=kind
        ).inc()

    def progress(self, run_id: str) -> dict:
        """Cells-done progress derived from the journal."""
        done = 0
        total = None
        for record in self.journal(run_id):
            if record.get("event") == "cell":
                done = max(done, record.get("index", 0) + 1)
                total = record.get("of", total)
            elif record.get("event") == "started":
                total = record.get("cells", total)
                done = 0
        return {"cells_done": done, "cells_total": total, **self.status(run_id)}

    # -- tables ------------------------------------------------------------

    def save_table(self, run_id: str, table: Table) -> str:
        """Checksum and store the run's result table; returns the digest."""
        root = self.run_dir(run_id)
        (root / TABLES_SUBDIR).mkdir(exist_ok=True)
        digest = save_checked_table(root / TABLES_SUBDIR / f"{table.name}.json", table)
        write_table_outputs(root, table)
        return digest

    def load_table(self, run_id: str) -> Table:
        """Load and integrity-check the stored result table.

        Raises :class:`ChecksumMismatchError` on a tampered or bit-rotted
        payload -- the tamper detection the CI service smoke exercises.
        """
        path = self.run_dir(run_id) / TABLES_SUBDIR / f"{TABLE_NAME}.json"
        return load_checked_table(
            path, f"run {run_id} has no stored result table ({path})"
        )

    def serve_table(self, run_id: str) -> Table:
        """Verify-on-read: integrity-check the table, quarantining on failure.

        The service's results path.  A table whose bytes fail the stored
        checksum is never served: the run flips to ``quarantined`` (with
        the mismatch recorded) and the :class:`ChecksumMismatchError`
        propagates to the caller -- tampered data cannot reach a client,
        and the FAILURES view names the poisoned run.
        """
        try:
            return self.load_table(run_id)
        except ChecksumMismatchError as exc:
            if self.status(run_id).get("state") != "quarantined":
                self.quarantine(run_id, str(exc), kind="tamper")
            raise

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        record: RunRecord,
        jobs: int = 1,
        should_cancel=None,
        force: bool = False,
    ) -> str:
        """Run a registered scenario to completion; returns the final state.

        Cells execute one at a time through the supervised sharded
        scheduler (block checkpoints under ``shards/`` make a killed run
        resumable), journaling per-cell progress.  *should_cancel* is
        polled between cells for cooperative cancellation; the run's
        on-disk ``CANCEL`` marker is always polled too, so a cancel
        request reaches an executor in another process.  A run already
        ``done`` is a no-op unless *force* re-executes it (results are
        deterministic, so the tables cannot change).
        """
        run_id = record.run_id
        if not force and self.status(run_id).get("state") == "done":
            return "done"
        scenario = record.scenario
        specs = expand(scenario)
        self.set_state(run_id, "running")
        self.append_journal(run_id, {"event": "started", "cells": len(specs)})
        started = time.monotonic()
        cancel_path = self.cancel_path(run_id)
        user_cancel = should_cancel

        def should_cancel() -> bool:
            if cancel_path.exists():
                return True
            return user_cancel is not None and user_cancel()

        try:
            results = self._run_specs(record, specs, jobs, should_cancel)
            if results is None:
                self.set_state(run_id, "cancelled")
                self.append_journal(run_id, {"event": "cancelled"})
                self.clear_cancel(run_id)
                self._count_job("cancelled")
                return "cancelled"
            table = results_table(scenario, specs, results)
            digest = self.save_table(run_id, table)
            self.set_state(run_id, "done", table_checksum=digest)
            self.append_journal(run_id, {"event": "done", "table_checksum": digest})
            self._count_job("done", time.monotonic() - started)
            return "done"
        except Exception as exc:
            self.set_state(run_id, "failed", error=str(exc))
            self.append_journal(
                run_id, {"event": "failed", "error": f"{type(exc).__name__}: {exc}"}
            )
            self._count_job("failed", time.monotonic() - started)
            raise

    def _run_specs(
        self, record: RunRecord, specs: list[CellSpec], jobs: int, should_cancel
    ) -> list[list] | None:
        """Execute cells one by one; None when cancelled between cells."""
        scenario = record.scenario
        collected: list[list] = []
        tel_scope = (
            telemetry.collecting(stride=scenario.telemetry_stride)
            if scenario.telemetry_enabled
            else None
        )
        try:
            tel = tel_scope.__enter__() if tel_scope is not None else None
            for i, spec in enumerate(specs):
                if should_cancel is not None and should_cancel():
                    return None
                cell_results, _shards, _report = run_cells_sharded_report(
                    [spec],
                    jobs=jobs,
                    block_size=scenario.block_size,
                    checkpoint_dir=record.shards_dir,
                )
                collected.append(cell_results[0])
                self.append_journal(
                    record.run_id,
                    {"event": "cell", "index": i, "of": len(specs),
                     "kind": spec.kind, "n": spec.n, "adversary": spec.adversary},
                )
        finally:
            if tel_scope is not None:
                tel_scope.__exit__(None, None, None)
        if tel is not None:
            tel_dir = record.root / "telemetry"
            tel_dir.mkdir(exist_ok=True)
            telemetry.write_jsonl(tel_dir / "telemetry.jsonl", tel)
            atomic_write_text(
                tel_dir / "metrics.prom", telemetry.prometheus_text(tel.metrics)
            )
        return collected

    @staticmethod
    def _count_job(state: str, seconds: float | None = None) -> None:
        tel = telemetry.get_telemetry()
        tel.counter("service_jobs_total", state=state).inc()
        if seconds is not None:
            tel.histogram(
                "service_job_seconds", buckets=telemetry.SECONDS_BUCKETS
            ).observe(seconds)

    # -- integrity / replay ------------------------------------------------

    def verify(self, run_id: str) -> None:
        """Integrity-check a stored run without re-executing it.

        Confirms the scenario document still matches the manifest's
        content digest and the stored table passes its checksum.  Raises
        :class:`ChecksumMismatchError` / :class:`ConfigurationError`.
        """
        record = self.get(run_id)
        stored_digest = self.manifest(run_id).get("scenario_digest")
        digest = scenario_digest(record.scenario)
        if digest != stored_digest:
            raise ChecksumMismatchError(
                f"run {run_id}: scenario.json digests to {digest}, but the "
                f"manifest records {stored_digest}; the document was altered"
            )
        self.load_table(run_id)

    def replay(self, run_id: str, jobs: int = 1) -> ReplayReport:
        """Bit-replay a stored run from its manifest and scenario alone.

        Verifies integrity (:meth:`verify`), re-expands the scenario,
        recomputes every cell in memory (no checkpoints consulted, any
        worker count), and compares the recomputed table's canonical
        payload byte-for-byte against the stored one.
        """
        record = self.get(run_id)
        self.verify(run_id)
        stored = self.load_table(run_id)
        scenario = record.scenario
        specs = expand(scenario)
        results, _shards, _report = run_cells_sharded_report(
            specs, jobs=jobs, block_size=scenario.block_size
        )
        recomputed = results_table(scenario, specs, results)
        stored_payload = table_payload(stored)
        new_payload = table_payload(recomputed)
        if stored_payload == new_payload:
            return ReplayReport(
                run_id=run_id,
                identical=True,
                detail=(
                    f"{len(specs)} cells x {scenario.reps} reps recomputed; "
                    "result tables byte-identical"
                ),
            )
        diffs = [
            f"row {i}: stored {s} != recomputed {r}"
            for i, (s, r) in enumerate(zip(stored.rows, recomputed.rows))
            if s != r
        ]
        if len(stored.rows) != len(recomputed.rows):
            diffs.append(
                f"row count {len(stored.rows)} != {len(recomputed.rows)}"
            )
        return ReplayReport(
            run_id=run_id,
            identical=False,
            detail="; ".join(diffs) or "payload metadata differs",
        )
