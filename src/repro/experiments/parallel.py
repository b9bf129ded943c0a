"""The supervised worker pool behind ``run_all``, ``repro sweep`` and
``repro serve``.

Simulations are pure CPU and hold the GIL, so work fans out over forked
processes.  :class:`WorkerPool` keeps it alive despite crashing, hanging
and killed workers, as the paper's protocols elect a leader although an
adversary disrupts most slots:

* **workers** hold one duplex pipe each, close the parent's pipe ends
  the fork copied into them, reset inherited signal handlers, exit on
  pipe EOF (a dead parent leaves no orphans), and ship every exception
  home with ``permanent = isinstance(exc, ReproError)``;
* **one wait**: :meth:`WorkerPool.poll`, driven from the calling thread,
  waits on the pipes, the exit sentinels and a wake-up pipe with one
  :func:`multiprocessing.connection.wait`;
* **deadlines** terminate-then-kill an execution's worker; a worker that
  dies without replying is seen through its sentinel and its task
  requeued at once; with **heartbeats**, a busy worker silent for
  ``max(15 s, 10 intervals)`` is reported stalled and killed.  Killed
  slots respawn on their next dispatch;
* **retry** backs other failures off by the :class:`RetryPolicy`;
  ``ReproError`` failures are never retried, timeouts and stalls only
  with ``retry_timeouts``, and a task whose executions reach
  ``max_attempts`` is quarantined;
* **faults**: the worker fires the :class:`~repro.experiments.faults
  .FaultPlan` atom naming a task right before running it; every dispatch
  gets a pool-wide sequence number, which ``worker`` atoms count;
* **in-process mode** runs tasks inline in :meth:`~WorkerPool.poll` under
  the same retry and quarantine rules (and the disabled telemetry sink,
  as in a worker process), without deadlines or kills.

The pool reports and callers decide: every finished execution comes back
from :meth:`~WorkerPool.poll` as a :class:`PoolEvent`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Callable

from repro import telemetry as _telemetry
from repro.errors import ConfigurationError, ReproError
from repro.experiments.retry import RetryPolicy

__all__ = ["default_jobs", "PoolEvent", "Task", "WorkerPool"]

#: Grace period after SIGTERM before a worker is SIGKILLed.
_TERM_GRACE_S = 2.0

#: Shortest heartbeat silence that counts as a stall; generous so a fork
#: storm under load (a run spawning its shard workers) is never misread as
#: a wedged worker.
_STALL_FLOOR_S = 15.0


def default_jobs() -> int:
    """A sensible process count: physical-ish core count, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _check_picklable_fn(fn: Callable) -> None:
    """Reject lambdas and closures before they kill a worker pool.

    Pool dispatch pickles the work function by *reference* (module + qualified
    name), so a lambda or a function defined inside another function cannot
    cross the process boundary -- without this check the pool dies with an
    opaque ``PicklingError`` deep inside multiprocessing.
    """
    name = getattr(fn, "__name__", "")
    qualname = getattr(fn, "__qualname__", name)
    if name == "<lambda>" or "<locals>" in qualname:
        kind = "a lambda" if name == "<lambda>" else f"defined inside {qualname.split('.<locals>')[0]}()"
        raise ConfigurationError(
            f"parallel dispatch needs a picklable work function, but {fn!r} "
            f"is {kind} and cannot be sent to worker processes. Move it to "
            "module level (bind parameters via functools.partial), or run "
            "with jobs=1 instead."
        )


# -- worker side -------------------------------------------------------------


def _failure(exc: BaseException) -> dict:
    return {
        "message": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
        "permanent": isinstance(exc, ReproError),
    }


def _execute(fn, fault_plan, fault_id, execution, seq, args, in_process):
    if fault_plan is not None and fault_id is not None:
        fault_plan.fire(fault_id, execution, seq, in_process=in_process)
    return fn(*args)


def _worker_main(conn, inherited, fn, fault_plan, heartbeat, fresh) -> None:
    """Worker process body: receive ``(seq, execution, fault_id, args)``,
    reply ``("ok", result)`` or ``("error", failure)``; a fresh worker
    exits after one task.

    *inherited* holds the parent's pipe ends that the fork copied into
    this process (its own pipe's and its live siblings'); they are closed
    first, so that the parent's death closes every copy of this worker's
    peer end and ``conn.recv()`` sees EOF.

    With *heartbeat* set, a beat thread sends ``("hb",)`` every
    *heartbeat* seconds while a task runs.  It keeps beating through an
    injected ``hang``, so a hang is caught by the deadline, while a frozen
    process goes silent.
    """
    # Forked children inherit the parent's handlers (a supervisor's drain
    # handlers included): SIGTERM must terminate, and a terminal Ctrl+C is
    # for the parent to act on.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):
        pass
    for end in inherited:
        end.close()
    lock = threading.Lock()

    def send(msg) -> None:
        with lock:
            conn.send(msg)

    def beat(stop) -> None:
        while not stop.wait(heartbeat):
            try:
                send(("hb",))
            except (OSError, ValueError):
                return

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # the parent is gone; never outlive it
        if msg is None:
            return
        seq, execution, fault_id, args = msg
        stop = threading.Event()
        if heartbeat:
            threading.Thread(target=beat, args=(stop,), daemon=True).start()
        try:
            result = _execute(fn, fault_plan, fault_id, execution, seq, args, False)
            reply = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 -- ship everything home
            reply = ("error", _failure(exc))
        stop.set()
        try:
            send(reply)
        except (OSError, ValueError):
            return
        except Exception as exc:  # an unpicklable result
            send(("error", _failure(exc)))
        if fresh:
            return


# -- parent side -------------------------------------------------------------


@dataclass(eq=False)
class Task:
    """One unit of work and its state: ``pending``, ``running``, ``done``,
    ``failed`` (quarantined) or ``dropped``.  *executions* counts dispatches
    (speculative duplicates included), *running* those in flight now."""

    key: object
    args: tuple
    label: str
    fault_id: str | None = None
    state: str = "pending"
    executions: int = 0
    failures: int = 0
    running: int = 0
    not_before: float = 0.0


@dataclass(frozen=True, slots=True)
class PoolEvent:
    """One finished execution of *task*.

    *kind* is ``ok``, ``duplicate`` (an ok for a task already done), or a
    failure: ``error`` (the task raised), ``crash`` (its worker died),
    ``timeout`` or ``stalled`` (the pool killed its worker).  *permanent*
    failures are never retried.  *retry_delay* is the backoff of the
    requeued task, or None when it was not requeued: it is quarantined or
    another execution of it still runs.
    """

    kind: str
    task: Task
    execution: int
    elapsed: float
    result: object = None
    message: str = ""
    traceback: str | None = None
    permanent: bool = False
    retry_delay: float | None = None


@dataclass(eq=False)
class _Slot:
    """One worker process (None until spawned) and the execution it holds."""

    proc: object = None
    conn: object = None
    task: Task | None = None
    execution: int = 0
    started: float = 0.0
    deadline: float | None = None
    last_beat: float = 0.0


class WorkerPool:
    """Supervised execution of :class:`Task` objects on *jobs* workers.

    One thread submits, polls and closes; only :meth:`wake` may be called
    from others.  *fn* runs as ``fn(*task.args)``; *timeout* bounds one
    execution; *fault_plan* fires before each execution of a task with a
    ``fault_id``.  *fresh* forks a new worker per execution; *heartbeat*
    (seconds) turns on stall detection.  ``before_dispatch(task, execution,
    seq)`` runs just before an execution is dispatched (and before its
    worker forks); it returns the arguments to run, or None to drop the
    task unrun.
    """

    def __init__(
        self,
        fn: Callable,
        jobs: int,
        *,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        fault_plan=None,
        in_process: bool = False,
        fresh: bool = False,
        heartbeat: float | None = None,
        before_dispatch: Callable | None = None,
    ):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if not in_process:
            _check_picklable_fn(fn)
        self.fn = fn
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.in_process = in_process
        self.fresh = fresh
        self.heartbeat = heartbeat
        self.stall_timeout = (
            max(_STALL_FLOOR_S, 10.0 * heartbeat) if heartbeat else None
        )
        self.before_dispatch = before_dispatch
        self._slots = [] if in_process else [_Slot() for _ in range(jobs)]
        self._queue: deque[Task] = deque()  # pending tasks, FIFO
        self._open = 0  # tasks pending or running
        self._seq = 0
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._wake_lock = threading.Lock()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)

    # -- tasks -------------------------------------------------------------

    def submit(self, key, args: tuple, label: str | None = None,
               fault_id: str | None = None) -> Task:
        """Queue a task behind the pending ones; returns it."""
        task = Task(key, tuple(args), label or str(key), fault_id)
        self._queue.append(task)
        self._open += 1
        return task

    def unfinished(self) -> int:
        """Tasks still pending or running."""
        return self._open

    def has_pending(self) -> bool:
        """Whether a task waits for dispatch (backing off included)."""
        return bool(self._queue)

    def drop_unstarted(self) -> list[Task]:
        """Drop the queued tasks that never ran; returns them."""
        dropped = [t for t in self._queue if t.executions == 0]
        for task in dropped:
            task.state = "dropped"
        self._open -= len(dropped)
        self._queue = deque(t for t in self._queue if t.executions)
        return dropped

    def busy(self) -> list[tuple[Task, float]]:
        """``(task, started)`` of every execution in flight."""
        return [(s.task, s.started) for s in self._slots if s.task is not None]

    def idle(self) -> int:
        """Free worker slots."""
        return sum(1 for s in self._slots if s.task is None)

    def launch(self, task: Task) -> None:
        """Run one more execution of a running *task* on a free slot."""
        slot = next(s for s in self._slots if s.task is None)
        self._start(slot, task)

    def wake(self) -> None:
        """Make a blocked :meth:`poll` return now (any thread)."""
        with self._wake_lock:
            if self._wake_w is not None:
                try:
                    os.write(self._wake_w, b"\0")
                except BlockingIOError:
                    pass  # already woken

    def close(self, kill: bool = False) -> None:
        """Stop the workers: idle ones politely unless *kill*, busy ones
        by terminate-then-kill.  Idempotent."""
        polite = [s for s in self._slots
                  if s.proc is not None and s.task is None and not kill]
        for slot in polite:
            try:
                slot.conn.send(None)
            except (OSError, ValueError):
                pass
        for slot in polite:
            slot.proc.join(_TERM_GRACE_S)
        for slot in self._slots:
            if slot.proc is not None:
                self._kill(slot)
        with self._wake_lock:
            if self._wake_w is not None:
                os.close(self._wake_w)
                os.close(self._wake_r)
                self._wake_w = None

    # -- supervision -------------------------------------------------------

    def poll(self, timeout: float | None = None,
             dispatch: bool = True) -> list[PoolEvent]:
        """Dispatch ready tasks (unless *dispatch* is false), wait up to
        *timeout* (None: until something happens), and return the
        executions that finished."""
        if self.in_process:
            return self._poll_inline(timeout, dispatch)
        now = time.monotonic()
        if dispatch:
            for slot in self._slots:
                while slot.task is None and (task := self._next_ready(now)) is not None:
                    self._start(slot, task)
        bounds = [] if timeout is None else [timeout]
        for slot in self._slots:
            if slot.task is not None:
                if slot.deadline is not None:
                    bounds.append(slot.deadline - now)
                if self.stall_timeout is not None:
                    bounds.append(slot.last_beat + self.stall_timeout - now)
        if self.idle():
            bounds += [t.not_before - now for t in self._queue]
        sources = [self._wake_r]
        for slot in self._slots:
            if slot.proc is not None:
                sources.append(slot.proc.sentinel)
                if slot.task is not None:
                    sources.append(slot.conn)
        ready = connection_wait(sources, max(0.0, min(bounds)) if bounds else None)
        if self._wake_r in ready:
            os.read(self._wake_r, 4096)
        now = time.monotonic()
        events: list[PoolEvent] = []
        for slot in self._slots:
            if slot.task is not None and slot.conn in ready:
                self._receive(slot, now, events)
            if slot.proc is not None and slot.proc.sentinel in ready:
                self._receive(slot, now, events)  # a reply racing the exit
                if slot.task is not None:
                    events.append(self._lost(slot, "crash"))
                else:
                    self._reap(slot)
            if slot.task is None:
                continue
            if slot.deadline is not None and now >= slot.deadline:
                events.append(self._lost(slot, "timeout"))
            elif (self.stall_timeout is not None
                  and now - slot.last_beat >= self.stall_timeout):
                events.append(self._lost(slot, "stalled"))
        return [e for e in events if e is not None]

    def _next_ready(self, now: float) -> Task | None:
        """Pop the first pending task whose backoff has elapsed."""
        for _ in range(len(self._queue)):
            task = self._queue.popleft()
            if task.not_before <= now:
                return task
            self._queue.append(task)  # still backing off; rotate
        return None

    def _claim(self, task: Task):
        """Number the task's next execution and run the dispatch hook;
        ``(execution, seq, args)``, or None when the hook drops the task."""
        execution, seq, args = task.executions + 1, self._seq + 1, task.args
        if self.before_dispatch is not None:
            args = self.before_dispatch(task, execution, seq)
            if args is None:
                task.state = "dropped"
                self._open -= 1
                return None
        self._seq = seq
        task.executions = execution
        task.running += 1
        task.state = "running"
        return execution, seq, args

    def _start(self, slot: _Slot, task: Task) -> None:
        started = time.monotonic()
        claimed = self._claim(task)
        if claimed is None:
            return
        execution, seq, args = claimed
        for _ in range(2):
            if slot.proc is None:
                self._spawn(slot)
            try:
                slot.conn.send((seq, execution, task.fault_id, args))
                break
            except (OSError, ValueError):
                self._kill(slot)  # it died while idle: replace it
        else:
            raise RuntimeError("could not reach a freshly forked worker")
        slot.task, slot.execution = task, execution
        slot.started = slot.last_beat = started
        slot.deadline = None if self.timeout is None else started + self.timeout

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # A forked worker holds copies of these parent ends until it
        # closes them; other start methods copy nothing.
        inherited = []
        if self._ctx.get_start_method() == "fork":
            inherited = [parent_conn]
            inherited += [s.conn for s in self._slots if s.conn is not None]
        # Not daemonic: a task may start worker processes of its own.
        slot.proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, inherited, self.fn, self.fault_plan,
                  self.heartbeat, self.fresh),
            name="repro-pool-worker",
        )
        slot.proc.start()
        child_conn.close()  # the parent holds only its own end
        slot.conn = parent_conn

    def _kill(self, slot: _Slot) -> None:
        """Terminate-then-kill; never waits on a wedged worker forever."""
        if slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(_TERM_GRACE_S)
        if slot.proc.is_alive():
            slot.proc.kill()
        self._reap(slot)

    @staticmethod
    def _reap(slot: _Slot) -> None:
        slot.proc.join(_TERM_GRACE_S)
        slot.conn.close()
        slot.proc = slot.conn = None

    @staticmethod
    def _release(slot: _Slot) -> tuple[Task, int, float]:
        task, slot.task = slot.task, None
        task.running -= 1
        return task, slot.execution, time.monotonic() - slot.started

    def _receive(self, slot: _Slot, now: float, events: list) -> None:
        """Drain a busy worker's pipe: heartbeats, then its reply."""
        try:
            while slot.task is not None and slot.conn.poll():
                msg = slot.conn.recv()
                if msg[0] == "hb":
                    slot.last_beat = now
                    continue
                task, execution, elapsed = self._release(slot)
                if msg[0] == "ok":
                    events.append(self._succeeded(task, execution, elapsed, msg[1]))
                else:
                    events.append(self._failed(task, "error", execution, elapsed, **msg[1]))
                if self.fresh:
                    self._reap(slot)
        except (EOFError, OSError):
            pass  # the sentinel reports the death

    def _lost(self, slot: _Slot, kind: str) -> PoolEvent | None:
        """A busy worker died, overran its deadline or went silent."""
        if kind == "crash":
            exitcode = slot.proc.exitcode
            self._reap(slot)
        else:
            self._kill(slot)
        task, execution, elapsed = self._release(slot)
        what = f"{task.label} attempt {execution}"
        if kind == "crash":
            message = f"worker for {what} died without a result (exit code {exitcode})"
        elif kind == "timeout":
            message = f"{what} exceeded {self.timeout:.1f}s and its worker was killed"
        else:
            message = (f"{what} sent no heartbeat for {self.stall_timeout:.1f}s "
                       "and its worker was killed")
        return self._failed(task, kind, execution, elapsed, message)

    def _succeeded(self, task, execution, elapsed, result) -> PoolEvent:
        if task.state == "done":
            return PoolEvent("duplicate", task, execution, elapsed, result)
        task.state = "done"
        self._open -= 1
        return PoolEvent("ok", task, execution, elapsed, result)

    def _failed(self, task, kind, execution, elapsed, message,
                traceback=None, permanent=False) -> PoolEvent | None:
        """Account one failed execution: requeue the task or quarantine it."""
        if task.state == "done":
            return None  # a duplicate failed after the task completed
        task.failures += 1
        permanent = permanent or (
            kind in ("timeout", "stalled") and not self.retry.retry_timeouts
        )
        delay = None
        if task.running == 0:
            if permanent or task.executions >= self.retry.max_attempts:
                task.state = "failed"
                self._open -= 1
            else:
                delay = 0.0 if kind == "crash" else self.retry.delay(
                    str(task.key), task.failures
                )
                task.state = "pending"
                task.not_before = time.monotonic() + delay
                self._queue.append(task)
        return PoolEvent(kind, task, execution, elapsed, message=message,
                         traceback=traceback, permanent=permanent,
                         retry_delay=delay)

    def _poll_inline(self, timeout: float | None, dispatch: bool) -> list[PoolEvent]:
        now = time.monotonic()
        claimed = None
        while dispatch and claimed is None and (task := self._next_ready(now)) is not None:
            claimed = self._claim(task)
        if claimed is None:  # everything is backing off
            waits = [t.not_before - now for t in self._queue]
            if timeout is not None:
                waits.append(timeout)
            time.sleep(max(0.0, min(waits, default=0.0)))
            return []
        execution, seq, args = claimed
        previous = _telemetry.install(_telemetry.NULL_TELEMETRY)
        try:
            result = _execute(self.fn, self.fault_plan, task.fault_id,
                              execution, seq, args, True)
        except Exception as exc:  # noqa: BLE001 -- mirrors the worker
            task.running -= 1
            return [self._failed(task, "error", execution,
                                 time.monotonic() - now, **_failure(exc))]
        finally:
            _telemetry.install(previous)
        task.running -= 1
        return [self._succeeded(task, execution, time.monotonic() - now, result)]
