"""The supervised worker pool (repro.experiments.parallel.WorkerPool).

A Hypothesis property drives kill/raise/config schedules through the pool
on two worker processes and in-process, against a model of the retry
rules; an example test covers heartbeat stall detection.
"""

from __future__ import annotations

import os
import signal
import time

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
