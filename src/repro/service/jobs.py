"""Job scheduling: supervised worker processes executing scenario runs.

:class:`JobService` owns a :class:`~repro.service.store.RunStore` and a
bounded pending set of run ids.  Submissions register the scenario in
the store (idempotent by content digest) and enqueue it; a dispatcher
thread hands runs to a :class:`~repro.experiments.parallel.WorkerPool` of
persistent child *processes* (a hung or crashed run can never wedge the
daemon), each executing through :meth:`RunStore.execute` -- i.e. the
supervised sharded scheduler with block checkpoints, so a run killed
mid-flight resumes where it left off.  A submission wakes the dispatcher
at once (the pool's wake-up pipe), so a run submitted to an idle service
starts without waiting out a poll interval.

Robustness semantics (the pool's, one level above the shards):

* **worker death** (SIGKILL, OOM, crash): detected via the process
  sentinel; the worker is respawned and the orphaned run requeued
  immediately (its shard checkpoints make the retry a cheap resume);
* **run deadline** (``run_timeout``): a run past its wall-clock budget
  has its worker terminate-then-killed and is requeued with backoff;
* **heartbeat stall**: a busy worker that stops beating is presumed
  wedged, killed, and its run requeued;
* **bounded seeded retry**: each run gets at most ``retry.max_attempts``
  dispatches; transient failures back off deterministically
  (:class:`~repro.experiments.retry.RetryPolicy`), :class:`ReproError`
  failures are permanent and never retried;
* **quarantine**: a run that exhausts its budget flips to
  ``quarantined`` -- parked in the FAILURES view, never auto-retried;
* **degraded mode**: after ``degraded_after`` *consecutive* substrate
  failures (deaths/timeouts/stalls) the service stops accepting
  submissions (:class:`ServiceDegradedError`, HTTP 503) while still
  serving reads; one successful run restores it.

Durability and backpressure:

* the pending set is **bounded** -- when full, :meth:`submit` raises
  :class:`BackpressureError` (the HTTP layer maps it to 429 with a
  ``Retry-After`` hint) instead of buffering unbounded work;
* all job state lives in the run directories (``status.json`` per
  run, and a ``dispatched`` journal record per attempt), so a service
  restart -- even SIGKILL -- recovers by :meth:`rescan`: runs left
  ``queued`` or ``running`` are re-enqueued;
* :meth:`stop` supports both a **drain** (finish everything already
  queued, the SIGTERM path) and an immediate stop (kill in-flight
  workers; their runs stay ``running`` in the store for the next
  rescan).

Telemetry: ``service_queue_depth`` / ``service_degraded`` gauges,
``service_submissions_total{outcome=}`` / ``service_jobs_total{state=}``
/ ``service_worker_deaths_total{cause=}`` / ``service_run_retries_total``
/ ``service_runs_quarantined_total{kind=}`` /
``service_runs_dropped_total{reason=}`` (a run whose directory vanished
before the dispatcher could journal it; the dispatcher logs it and moves
on) counters, and
``service_queue_wait_seconds`` / ``service_job_seconds`` histograms.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque

from repro import telemetry
from repro.errors import ConfigurationError, ReproError
from repro.experiments.parallel import PoolEvent, WorkerPool
from repro.experiments.retry import RetryPolicy
from repro.service.chaos import ServiceFaultPlan, tamper_stored_table
from repro.service.scenario import Scenario
from repro.service.store import RunStore

__all__ = [
    "BackpressureError",
    "ServiceDegradedError",
    "JobService",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_DEGRADED_AFTER",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
]

DEFAULT_QUEUE_LIMIT = 64

#: Consecutive substrate failures (worker deaths / deadline kills /
#: stalls) before the service stops accepting submissions.
DEFAULT_DEGRADED_AFTER = 3

#: How often a busy worker's beat thread pings the dispatcher.
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: How long one dispatcher supervision wait lasts (submissions and stop
#: requests wake it early).
_POLL_S = 0.2

#: Journal/metric name of each pool failure kind that kills a worker.
_LOST = {"crash": "died", "timeout": "timeout", "stalled": "stalled"}

_log = logging.getLogger(__name__)


def _default_retry() -> RetryPolicy:
    # Service-level policy: quick deterministic backoff, and -- unlike
    # run_all -- timeouts ARE retried (a deadline kill resumes cheaply
    # from shard checkpoints, so the retry is worth it by default).
    return RetryPolicy(
        max_attempts=3, backoff_base=0.1, backoff_cap=5.0, retry_timeouts=True
    )


class BackpressureError(ReproError):
    """Raised when the job queue is full; resubmit after runs drain."""


class ServiceDegradedError(ReproError):
    """Raised while the service refuses submissions after repeated
    worker deaths (reads still work); mapped to HTTP 503."""


def _execute_run(store_root: str, run_id: str, jobs: int,
                 faults: ServiceFaultPlan, seq: int) -> str:
    """Pool task body (in a worker process): execute one run; returns its
    final state.  *seq* is the pool's dispatch sequence number, which the
    ``disk:full`` and ``store:tamper`` atoms key on."""
    store = RunStore(store_root)
    record = store.get(run_id)
    with faults.disk_pressure(seq):
        state = store.execute(record, jobs=jobs)
    if state == "done" and faults.should_tamper(seq):
        tamper_stored_table(record.root)
    return state


class JobService:
    """Bounded job queue executing scenario runs against a store."""

    def __init__(
        self,
        store: RunStore,
        jobs_per_run: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        workers: int = 1,
        run_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        degraded_after: int = DEFAULT_DEGRADED_AFTER,
        fault_spec: str = "",
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ):
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if jobs_per_run < 1:
            raise ConfigurationError(
                f"jobs_per_run must be >= 1, got {jobs_per_run}"
            )
        if degraded_after < 1:
            raise ConfigurationError(
                f"degraded_after must be >= 1, got {degraded_after}"
            )
        self.store = store
        self.jobs_per_run = jobs_per_run
        self.queue_limit = queue_limit
        self.num_workers = workers
        self.run_timeout = run_timeout
        self.retry = retry if retry is not None else _default_retry()
        self.degraded_after = degraded_after
        self.heartbeat_interval = heartbeat_interval
        self._faults = ServiceFaultPlan.from_spec(fault_spec)
        self._lock = threading.Lock()
        # run id -> enqueue time, for every run pending or in flight
        self._enqueued: dict[str, float] = {}
        self._inbox: deque[str] = deque()  # enqueued, not yet in the pool
        self._in_flight: set[str] = set()
        self._cancel_requested: set[str] = set()
        self._stopping = threading.Event()
        self._drain = True
        self._cancel_all = threading.Event()
        self._started = False
        self._degraded = False
        self._failure_streak = 0
        self._fleet: WorkerPool | None = None
        self._dispatcher: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the workers and recover interrupted runs from the store.

        Idempotent: a second ``start()`` is a no-op (the restart-race
        tests pin this), and recovery itself is idempotent because the
        pending set coalesces duplicate enqueues.
        """
        if self._started:
            return
        self._started = True
        self.rescan()
        self._fleet = WorkerPool(
            _execute_run,
            self.num_workers,
            retry=self.retry,
            timeout=self.run_timeout,
            fault_plan=self._faults.plan,
            heartbeat=self.heartbeat_interval,
            before_dispatch=self._before_dispatch,
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._dispatcher.start()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        With *drain* (the SIGTERM path) every queued run finishes first;
        without it in-flight workers are killed (their runs stay
        ``running`` in the store, resumed by the next :meth:`rescan`)
        and queued runs stay ``queued``.
        """
        self._drain = drain
        self._stopping.set()
        if not drain:
            self._cancel_all.set()
        if self._fleet is not None:
            self._fleet.wake()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)

    def rescan(self) -> list[str]:
        """Re-enqueue runs the store says are ``queued`` or ``running``.

        A ``running`` run is one a previous service instance died inside
        (or one a current worker holds -- the coalescing pending set
        makes that a no-op); its shard checkpoints make re-execution a
        cheap resume.  Returns the newly recovered run ids.
        """
        recovered = []
        for summary in self.store.query():
            if summary.get("state") in ("queued", "running"):
                if self._try_enqueue(summary["run_id"]) == "added":
                    recovered.append(summary["run_id"])
        return recovered

    # -- submission --------------------------------------------------------

    def submit(self, scenario: Scenario, invocation: dict | None = None) -> dict:
        """Register and enqueue a scenario; returns a submission summary.

        Content addressing makes this idempotent: resubmitting a document
        whose run is already ``done`` returns immediately with the stored
        state and does not re-execute.
        """
        tel = telemetry.get_telemetry()
        if self._stopping.is_set():
            tel.counter("service_submissions_total", outcome="rejected").inc()
            raise BackpressureError("service is shutting down")
        if self._degraded:
            tel.counter("service_submissions_total", outcome="rejected").inc()
            raise ServiceDegradedError(
                f"service degraded after {self._failure_streak} consecutive "
                "worker failures; not accepting submissions (reads still "
                "served; recovers after one successful run)"
            )
        record, created = self.store.register(scenario, invocation=invocation)
        state = self.store.status(record.run_id).get("state")
        if state == "done":
            tel.counter("service_submissions_total", outcome="cached").inc()
            return {"run_id": record.run_id, "created": created, "state": state}
        if not self._try_enqueue(record.run_id):
            tel.counter("service_submissions_total", outcome="rejected").inc()
            raise BackpressureError(
                f"job queue full ({self.queue_limit} pending); retry later"
            )
        with self._lock:
            self._cancel_requested.discard(record.run_id)
        self.store.clear_cancel(record.run_id)
        tel.counter("service_submissions_total", outcome="accepted").inc()
        return {"run_id": record.run_id, "created": created, "state": "queued"}

    def retry_after_hint(self) -> int:
        """Suggested client backoff (seconds) for 429/503 responses."""
        with self._lock:
            backlog = len(self._enqueued)
        return max(1, min(30, backlog))

    def _try_enqueue(self, run_id: str) -> str:
        """Enqueue a run; returns ``"added"``, ``"coalesced"``, or ``""``.

        Both truthy outcomes mean the run is (now) pending or in flight;
        the empty string means the queue is full.
        """
        with self._lock:
            if run_id in self._enqueued:
                return "coalesced"  # already pending or in flight
            if len(self._enqueued) >= self.queue_limit:
                return ""
            self._enqueued[run_id] = time.monotonic()
            self._inbox.append(run_id)
            self._gauge_depth()
        if self._fleet is not None:
            self._fleet.wake()
        return "added"

    # -- cancellation ------------------------------------------------------

    def cancel(self, run_id: str) -> dict:
        """Request cooperative cancellation of a queued or running run."""
        record = self.store.get(run_id)  # raises on unknown id
        state = self.store.status(record.run_id).get("state")
        if state in ("done", "failed", "cancelled", "quarantined"):
            return {"run_id": record.run_id, "state": state}
        with self._lock:
            self._cancel_requested.add(record.run_id)
        # The on-disk marker reaches an executor in another process.
        self.store.request_cancel(record.run_id)
        return {"run_id": record.run_id, "state": "cancelling"}

    def _should_cancel(self, run_id: str) -> bool:
        if self._cancel_all.is_set():
            return True
        with self._lock:
            return run_id in self._cancel_requested

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Own the pool: feed it submitted runs, settle what it reports."""
        pool = self._fleet
        try:
            while not (self._stopping.is_set() and not self._drain):
                with self._lock:
                    arrived = list(self._inbox)
                    self._inbox.clear()
                for run_id in arrived:
                    pool.submit(run_id, (), label=f"run {run_id}", fault_id="worker")
                if self._stopping.is_set() and not pool.unfinished():
                    return  # drained
                for event in pool.poll(_POLL_S):
                    self._handle_event(event)
        finally:
            # Without a drain, in-flight runs die with their workers and
            # resume on the next start.
            pool.close(kill=not self._drain)

    def _before_dispatch(self, task, execution: int, seq: int) -> tuple | None:
        """Pool hook: cancel a queued run, or account its next attempt."""
        run_id = task.key
        if self._should_cancel(run_id):
            self._finish_cancelled_queued(run_id)
            return None
        if not self._journal(
            run_id, {"event": "dispatched", "attempt": execution, "seq": seq}
        ):
            return None
        tel = telemetry.get_telemetry()
        if execution == 1:
            with self._lock:
                enqueued_at = self._enqueued.get(run_id, time.monotonic())
            tel.histogram(
                "service_queue_wait_seconds", buckets=telemetry.SECONDS_BUCKETS
            ).observe(time.monotonic() - enqueued_at)
        else:
            tel.counter("service_run_retries_total").inc()
        with self._lock:
            self._in_flight.add(run_id)
        return (str(self.store.root), run_id, self.jobs_per_run, self._faults, seq)

    def _finish_cancelled_queued(self, run_id: str) -> None:
        try:
            self.store.set_state(run_id, "cancelled")
            self.store.append_journal(
                run_id, {"event": "cancelled", "while": "queued"}
            )
            self.store.clear_cancel(run_id)
        except Exception:
            pass
        self._count_job("cancelled")
        self._forget(run_id)

    def _handle_event(self, event: PoolEvent) -> None:
        run_id = event.task.key
        with self._lock:
            self._in_flight.discard(run_id)
        if event.kind == "ok":
            self._count_job(event.result, event.elapsed)
            if event.result == "done":
                self._note_success()
            self._forget(run_id)
            return
        if event.kind == "error":
            if not self._journal(
                run_id, {"event": "worker-error", "error": event.message}
            ):
                return
            if event.permanent:
                # Permanent failures (ReproError) are never retried.
                # store.execute marks the run failed itself, but an error
                # raised before it (e.g. an unreadable scenario.json in
                # store.get) would leave the run queued -- settle it here.
                if self.store.status(run_id).get("state") not in (
                    "failed", "cancelled", "quarantined",
                ):
                    try:
                        self.store.set_state(run_id, "failed", error=event.message)
                    except Exception:
                        pass
                self._count_job("failed", event.elapsed)
                self._forget(run_id)
                return
        else:  # the substrate failed, not the run
            cause = _LOST[event.kind]
            self._note_substrate_failure()
            telemetry.get_telemetry().counter(
                "service_worker_deaths_total",
                cause="busy" if cause == "died" else cause,
            ).inc()
            if not self._journal(
                run_id, {"event": f"worker-{cause}", "error": event.message}
            ):
                return
        if event.task.state == "failed":
            reason = (
                f"{event.message} (attempt {event.execution}/"
                f"{self.retry.max_attempts})"
            )
            try:
                self.store.quarantine(run_id, reason, kind="poison")
            except Exception:
                pass
            self._count_job("quarantined", event.elapsed)
            self._forget(run_id)

    def _journal(self, run_id: str, record: dict) -> bool:
        """Append *record* to the run's journal; False when the run's
        directory is gone (deleted while the run waited or ran)."""
        try:
            self.store.append_journal(run_id, record)
            return True
        except FileNotFoundError:
            # Drop the run, loudly and once -- a retry the pool still holds
            # finds it forgotten -- and keep the dispatcher serving the rest.
            if self._forget(run_id):
                _log.error("dropping run %s: its run directory is gone", run_id)
                telemetry.get_telemetry().counter(
                    "service_runs_dropped_total", reason="missing"
                ).inc()
            return False

    def _forget(self, run_id: str) -> bool:
        """Stop tracking *run_id*; whether it was tracked."""
        with self._lock:
            tracked = self._enqueued.pop(run_id, None) is not None
            self._cancel_requested.discard(run_id)
            self._gauge_depth()
        return tracked

    def _note_substrate_failure(self) -> None:
        self._failure_streak += 1
        if self._failure_streak >= self.degraded_after and not self._degraded:
            self._degraded = True
            telemetry.get_telemetry().gauge("service_degraded").set(1)

    def _note_success(self) -> None:
        self._failure_streak = 0
        if self._degraded:
            self._degraded = False
            telemetry.get_telemetry().gauge("service_degraded").set(0)

    @staticmethod
    def _count_job(state: str, seconds: float | None = None) -> None:
        # Parent-side accounting: the worker process's telemetry registry
        # is a fork-copy, so its increments never reach the daemon's
        # /metrics; the dispatcher counts terminal outcomes instead.
        tel = telemetry.get_telemetry()
        tel.counter("service_jobs_total", state=state).inc()
        if seconds is not None:
            tel.histogram(
                "service_job_seconds", buckets=telemetry.SECONDS_BUCKETS
            ).observe(seconds)

    def _gauge_depth(self) -> None:
        telemetry.get_telemetry().gauge("service_queue_depth").set(
            len(self._enqueued)
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Service-level counters for the status endpoint."""
        with self._lock:
            return {
                "pending": len(self._enqueued),
                "in_flight": len(self._in_flight),
                "queue_limit": self.queue_limit,
                "workers": self.num_workers,
                "jobs_per_run": self.jobs_per_run,
                "run_timeout": self.run_timeout,
                "degraded": self._degraded,
                "failure_streak": self._failure_streak,
                "stopping": self._stopping.is_set(),
            }
