"""The supervised worker pool (repro.experiments.parallel.WorkerPool).

A Hypothesis property drives kill/raise/config schedules through the pool
on two worker processes and in-process, against a model of the retry
rules; example tests cover heartbeat stall detection and idle workers
exiting when their parent is SIGKILLed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import parallel
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import WorkerPool
from repro.experiments.retry import RetryPolicy

MAX_ATTEMPTS = 3
RETRY = RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_base=0.001, backoff_cap=0.002)
TASKS = 6


def _square(x):
    return x * x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _drive(pool, timeout=60.0):
    """Poll *pool* until every task settles; returns all events."""
    events = []
    deadline = time.monotonic() + timeout
    while pool.unfinished():
        assert time.monotonic() < deadline, "pool never settled"
        events += pool.poll(0.5)
    return events


# One schedule per task: the atom id's layer and the fault (or None) of
# each execution.  ``block<N>`` atoms accept ``kill``, experiment ids
# ``raise``/``config`` -- the per-layer kind sets of the fault grammar.
_block_faults = st.lists(st.sampled_from([None, "kill"]),
                         min_size=MAX_ATTEMPTS, max_size=MAX_ATTEMPTS)
_exp_faults = st.lists(st.sampled_from([None, "raise", "config"]),
                       min_size=MAX_ATTEMPTS, max_size=MAX_ATTEMPTS)
schedules = st.lists(
    st.one_of(st.tuples(st.just("block"), _block_faults),
              st.tuples(st.just("X"), _exp_faults)),
    min_size=TASKS, max_size=TASKS,
)


def _plan(schedule) -> FaultPlan:
    atoms = [
        f"{layer}{i}:{kind}@{execution}"
        for i, (layer, kinds) in enumerate(schedule)
        for execution, kind in enumerate(kinds, start=1)
        if kind is not None
    ]
    return FaultPlan.from_spec(",".join(atoms))


def _expected(kinds, in_process: bool) -> tuple[str, int]:
    """The model: the task's final state and how many executions it takes."""
    for execution, kind in enumerate(kinds, start=1):
        if kind is None:
            return "done", execution
        if kind == "config" or (kind == "kill" and in_process):
            return "failed", execution  # a ReproError: never retried
    return "failed", MAX_ATTEMPTS


def _check(schedule, in_process: bool) -> None:
    pool = WorkerPool(_square, 2, retry=RETRY, fault_plan=_plan(schedule),
                      in_process=in_process)
    with pool:
        tasks = [pool.submit(i, (i,), fault_id=f"{layer}{i}")
                 for i, (layer, _kinds) in enumerate(schedule)]
        events = _drive(pool)
    for task, (_layer, kinds) in zip(tasks, schedule):
        mine = [e for e in events if e.task is task]
        state, executions = _expected(kinds, in_process)
        assert (task.state, task.executions) == (state, executions)
        assert task.executions <= MAX_ATTEMPTS
        assert [e.execution for e in mine] == list(range(1, executions + 1))
        terminal = [e for e in mine if e.kind == "ok" or e.retry_delay is None]
        assert terminal == mine[-1:]  # exactly one terminal outcome, last
        if state == "done":
            assert mine[-1].result == task.key ** 2  # the fault-free payload
        for event in mine[:-1]:  # every failure before the last was retried
            assert not event.permanent and event.retry_delay is not None
        for event in mine:
            if "ConfigurationError" in event.message:
                assert event.permanent and event is mine[-1]
            if event.kind == "crash":
                assert event.retry_delay in (0.0, None)  # deaths: no backoff


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules)
def test_fault_schedules_on_two_workers(schedule):
    _check(schedule, in_process=False)


@settings(max_examples=60, deadline=None)
@given(schedules)
def test_fault_schedules_in_process(schedule):
    _check(schedule, in_process=True)


def test_in_process_kill_is_a_permanent_error():
    pool = WorkerPool(_square, 1, retry=RETRY, in_process=True,
                      fault_plan=FaultPlan.from_spec("block0:kill@1"))
    with pool:
        pool.submit(0, (3,), fault_id="block0")
        (event,) = _drive(pool)
    assert event.kind == "error" and event.permanent
    assert "needs worker processes" in event.message


def test_stalled_worker_is_killed_respawned_and_retried(monkeypatch):
    monkeypatch.setattr(parallel, "_STALL_FLOOR_S", 1.0)
    monkeypatch.setattr(parallel, "_TERM_GRACE_S", 0.2)  # SIGTERM waits on a stopped process
    retry = RetryPolicy(max_attempts=2, backoff_base=0.001, retry_timeouts=True)
    with WorkerPool(_nap, 1, retry=retry, heartbeat=0.05) as pool:
        task = pool.submit("nap", (0.6,))
        events = pool.poll(0.0)
        (slot,) = pool._slots
        frozen = slot.proc.pid
        os.kill(frozen, signal.SIGSTOP)  # a wedged worker: no more beats
        events += _drive(pool)
        assert [e.kind for e in events] == ["stalled", "ok"]
        stalled, ok = events
        assert "no heartbeat" in stalled.message
        assert stalled.retry_delay is not None and task.state == "done"
        assert ok.execution == 2 and ok.result == 0.6
        assert slot.proc is None or slot.proc.pid != frozen
    with pytest.raises(ProcessLookupError):
        os.kill(frozen, 0)  # the frozen worker is gone, not orphaned


#: A parent holding a non-fresh pool whose first worker is idle: every
#: other worker is busy napping (it was forked later, so it holds a copy
#: of the first worker's parent end).  It prints the idle pid, then the
#: busy ones, and sleeps until killed.
_POOL_PARENT = """
import time
from repro.experiments.parallel import WorkerPool
with WorkerPool(time.sleep, {jobs}) as pool:
    for key in range({jobs}):
        pool.submit(key, (120 if key else 0,))
    while pool.unfinished() == {jobs}:
        pool.poll(0.5)
    print(*(slot.proc.pid for slot in pool._slots), flush=True)
    time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is a live process (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
@pytest.mark.parametrize("jobs", [1, 2])
def test_idle_worker_exits_when_the_parent_is_killed(jobs):
    """An idle worker's pipe reaches EOF once its parent dies: no copy of
    the parent's end stays open in the worker itself (jobs=1) or in a
    sibling forked after it (jobs=2)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", _POOL_PARENT.format(jobs=jobs)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    workers = []
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == jobs, workers
        parent.send_signal(signal.SIGKILL)
        parent.wait(30)
        idle = workers[0]
        deadline = time.monotonic() + 5.0
        while _running(idle) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(idle), "an idle worker outlived its killed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(30)
        parent.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
