"""Process-pool helpers shared by the experiment runners.

Simulations are pure CPU and hold the GIL, so parallel work fans out over
:mod:`multiprocessing` processes; these helpers pick the worker count, the
start method, and reject work functions that cannot cross a process
boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["default_jobs", "subprocess_context"]


def default_jobs() -> int:
    """A sensible process count: physical-ish core count, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def subprocess_context(threadsafe: bool = False) -> mp.context.BaseContext:
    """The preferred multiprocessing context for worker dispatch.

    ``fork`` keeps the warm imported state on POSIX and is the default.
    Pass ``threadsafe=True`` when the *caller* dispatches from multiple
    threads (as the fault-tolerant runner does with ``--jobs N``): forking
    a multi-threaded process can deadlock the child on locks held mid-fork
    (BLAS thread pools are the classic case), so that path prefers
    ``forkserver``, then ``spawn``.
    """
    methods = mp.get_all_start_methods()
    if not threadsafe and "fork" in methods:
        return mp.get_context("fork")
    for method in ("forkserver", "spawn"):
        if method in methods:
            return mp.get_context(method)
    return mp.get_context()


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
