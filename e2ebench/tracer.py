"""Per-layer timing wrappers, installed around the program from outside it.

:class:`Tracer` replaces the public entry points of each ``repro`` layer
with wrappers that time every call.  Modules are patched as they are
imported, so a traced process imports exactly what the plain command
imports.  Nested wrapped calls keep a per-thread stack, so each layer is
charged its *self* time: its own duration minus the time spent in wrapped
calls below it.

Forked workers inherit the wrappers.  Forkserver and spawn children re-run
``launch`` as ``__mp_main__``, which installs a fresh tracer in them.
Each process appends its totals and coarse spans to its own JSONL file in
the trace directory when an experiment attempt, a shard block or a service
run ends, and the main process does so once more when the command
returns.  :func:`load` reads a trace directory back and
:func:`chrome_events` turns its spans into Chrome trace events.

Per-slot entry points (policy and adversary methods) are counted in the
totals only; they get no spans.

Each process also records its CPU time, the CPU time it burnt before its
first named call (its start-up: a forkserver child imports the program
then), and the CPU time its threads spent inside an outermost named layer,
one that is not a catch-all (``cli``, ``wait``, ``import``).  Over the
worker processes, start-up plus named CPU over all CPU is the trace's
coverage: the kernel measures the whole, so CPU burnt outside every named
layer after start-up lowers it.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import os
import re
import sys
import threading
import time
from pathlib import Path

# (layer, module, attributes).  ``Class.method`` patches the method on the
# class; a plain name patches the module attribute and every reference to
# the same function object held by other loaded ``repro`` modules.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli", "repro.experiments.run_all", ("main",)),
    ("cli", "repro.experiments.sweep", ("main",)),
    ("cli", "repro.service.cli", ("serve_main",)),
    ("experiments.runner", "repro.experiments.runner", ("Runner.run", "_attempt_worker")),
    ("experiments.shard", "repro.experiments.shard_supervisor", ("BlockSupervisor.run",)),
    ("experiments.cells", "repro.experiments.cells", (
        "lesk_cell", "lesu_cell", "estimation_cell", "sweep_cell", "nocd_cell",
        "run_shard", "run_cell_direct", "run_cells", "run_cells_sharded",
        "run_cells_sharded_report",
    )),
    ("experiments.cells", "repro.experiments.harness", (
        "replicate", "replicate_batched", "replicate_megakernel",
        "replicate_vectorized", "summarize_times",
    )),
    ("experiments.checkpoint", "repro.experiments.checkpoint", ("atomic_write_text",)),
    ("service.scenario", "repro.service.scenario", (
        "scenario_from_jsonable", "parse_scenario", "expand",
    )),
    ("service.store", "repro.service.store", ("RunStore.execute",)),
    ("applications", "repro.applications.fair_use", ("simulate_fair_use",)),
    ("applications", "repro.applications.k_selection", ("select_k_leaders",)),
    ("applications", "repro.applications.size_estimation", ("estimate_size_walk",)),
    ("sim.batched", "repro.sim.batched", ("simulate_uniform_batched",)),
    ("sim.megakernel", "repro.sim.megakernel", ("simulate_uniform_megakernel",)),
    ("sim.megakernel_fallback", "repro.sim.megakernel", ("_record_fallback",)),
    ("sim.fast", "repro.sim.fast", ("simulate_uniform_fast",)),
    ("sim.faithful", "repro.sim.engine", ("simulate_stations",)),
    ("sim.vectorized", "repro.sim.vectorized", ("simulate_stations_vectorized",)),
    ("sim.baselines", "repro.protocols.baselines.geometric_fast", ("simulate_geometric_fast",)),
    ("sim.baselines", "repro.protocols.baselines.ars_fast", ("simulate_ars_fast",)),
    ("adversary.vector", "repro.adversary.vector", (
        "BatchedAdversary.decide", "BatchedAdversary.observe_outcomes",
        "BatchedAdversary.compact",
    )),
    ("wait", "multiprocessing.connection", ("wait",)),
)

# Each experiment module's ``run`` is the table layer.
TABLE_MODULE = re.compile(r"repro\.experiments\.e\d\d_\w+")

# Every concrete vector policy class in this module gets these methods wrapped.
POLICY_MODULE = "repro.protocols.vector"
POLICY_METHODS = ("transmit_probabilities", "observe_batch", "compact")

# Layers that wrap whole commands or idle time; they do not count as
# coverage.
CATCH_ALL = frozenset({"cli", "wait", "import"})

# Calls that end a unit of work in some process: each records a span
# labelled by the unit, and the process appends its state to its file.
# Runner.run and BlockSupervisor.run record a span without flushing.
FLUSH_LABELS = {
    "_attempt_worker": lambda args: str(args[2]),
    "run_shard": lambda args: f"{args[0][0].kind}/n={args[0][0].n}/"
    f"{args[0][0].adversary}#{args[0][1]}",
    "RunStore.execute": lambda args: str(args[1].run_id),
}
SPAN_ONLY = {"Runner.run", "BlockSupervisor.run"}


class _ThreadState:
    __slots__ = ("stack", "stats", "named", "named_cpu")

    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[str, list[float]] = {}
        self.named = 0  # depth of non-catch-all wrapped calls
        self.named_cpu = 0.0


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds traced modules with the other finders, patches them once loaded."""

    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not self.tracer.traces(name):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.tracer.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class Tracer:
    """Installs the wrappers and owns this process's trace state."""

    def __init__(self, trace_dir: str | Path, role: str = "main"):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.startup_cpu: float | None = None
        self.batched = {"slot_iters": 0, "rep_slots": 0, "width": 0, "lane_slots": 0}
        self._lock = threading.Lock()
        self._targets: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for layer, module, attrs in LAYERS:
            self._targets.setdefault(module, []).append((layer, attrs))
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self._tls = threading.local()
        self._threads: list[_ThreadState] = []
        self._spans: list[list] = []
        self._path = self.trace_dir / f"proc-{os.getpid()}-{os.urandom(4).hex()}.jsonl"

    def _after_fork(self) -> None:
        self.role = "worker"
        self.startup_cpu = None
        self._lock = threading.Lock()
        self.batched = dict.fromkeys(self.batched, 0)
        self._reset()

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def add(self, layer: str, seconds: float) -> None:
        """Charge *seconds* of self time to *layer* outside any wrapper."""
        stat = self._state().stats.setdefault(layer, [0.0, 0])
        stat[0] += seconds
        stat[1] += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        label_of = FLUSH_LABELS.get(name)
        span = label_of is not None or name in SPAN_ONLY
        observe = self._observe_batched if layer == "sim.batched" else None
        named = layer not in CATCH_ALL
        perf = time.perf_counter
        thread_cpu = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            outermost = named and not state.named
            if outermost:
                if self.startup_cpu is None:
                    self.startup_cpu = time.process_time()
                cpu = thread_cpu()
            if named:
                state.named += 1
            start = perf()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                stat = state.stats.get(layer)
                if stat is None:
                    stat = state.stats[layer] = [0.0, 0]
                stat[0] += elapsed - child
                stat[1] += 1
                if stack:
                    stack[-1] += elapsed
                if named:
                    state.named -= 1
                if outermost:
                    state.named_cpu += thread_cpu() - cpu
            if observe is not None:
                observe(result)
            if span:
                label = label_of(args) if label_of is not None else ""
                self._spans.append([layer, name, label, start, elapsed])
                if label_of is not None:
                    self.flush()
            return result

        return wrapper

    def _observe_batched(self, result) -> None:
        slots = result.slots
        longest = int(slots.max())
        stats = self.batched
        stats["slot_iters"] += longest
        stats["rep_slots"] += int(slots.sum())
        stats["width"] += int(result.reps)
        stats["lane_slots"] += longest * int(result.reps)

    def traces(self, module_name: str) -> bool:
        return (
            module_name in self._targets
            or module_name == POLICY_MODULE
            or TABLE_MODULE.fullmatch(module_name) is not None
        )

    def install(self) -> None:
        """Patch the traced modules already loaded, and the rest on import."""
        sys.meta_path.insert(0, _PatchOnImport(self))
        for name, module in list(sys.modules.items()):
            if module is not None and self.traces(name):
                self.patch(module)

    def patch(self, module) -> None:
        """Wrap the entry points of one freshly loaded traced module."""
        name = module.__name__
        targets = list(self._targets.get(name, ()))
        if TABLE_MODULE.fullmatch(name):
            targets.append(("experiments.tables", ("run",)))
        replaced: dict[int, object] = {}
        for layer, attrs in targets:
            for attr in attrs:
                owner, _, fn_name = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = getattr(target, fn_name)
                wrapper = self._wrap(layer, attr, original)
                setattr(target, fn_name, wrapper)
                replaced[id(original)] = wrapper
        if name == POLICY_MODULE:
            for cls in vars(module).values():
                if not isinstance(cls, type) or cls.__module__ != POLICY_MODULE:
                    continue
                for method_name in POLICY_METHODS:
                    method = cls.__dict__.get(method_name)
                    if method is not None and not getattr(
                        method, "__isabstractmethod__", False
                    ):
                        setattr(cls, method_name,
                                self._wrap("protocols.vector", method_name, method))
        if not replaced:
            return
        # ``from x import f`` copies (and registries such as CELL_KINDS)
        # loaded before this patch still point at the originals: repoint them.
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if id(value) in replaced:
                    setattr(loaded, key, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]

    # -- output --------------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """Self seconds and calls per layer, summed over this process's threads."""
        merged: dict[str, list[float]] = {}
        for state in list(self._threads):
            for layer, (seconds, calls) in list(state.stats.items()):
                stat = merged.setdefault(layer, [0.0, 0])
                stat[0] += seconds
                stat[1] += calls
        return merged

    def flush(self) -> None:
        """Append new spans and a totals snapshot to this process's file."""
        spans, self._spans = self._spans, []
        lines = [json.dumps({"span": s}) for s in spans]
        cpu = time.process_time()
        lines.append(
            json.dumps(
                {
                    "totals": self.totals(),
                    "batched": self.batched,
                    "cpu": cpu,
                    "startup_cpu": cpu if self.startup_cpu is None else self.startup_cpu,
                    "named_cpu": sum(s.named_cpu for s in list(self._threads)),
                    "role": self.role,
                    "pid": os.getpid(),
                }
            )
        )
        with open(self._path, "a") as fh:
            fh.write("\n".join(lines) + "\n")


def load(trace_dir: str | Path) -> list[dict]:
    """Every process of one traced command: role, pid, totals and spans."""
    procs = []
    for path in sorted(Path(trace_dir).glob("proc-*.jsonl")):
        spans, last = [], None
        for line in path.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a process killed mid-write leaves a torn tail
            if "span" in record:
                spans.append(record["span"])
            else:
                last = record
        if last is not None:
            procs.append({**last, "spans": spans})
    return procs


def chrome_events(procs: list[dict], unit: str) -> list[dict]:
    """Spans as Chrome trace ``X`` events (``perf_counter`` microseconds)."""
    events = []
    for proc in procs:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": proc["pid"],
                "args": {"name": f"{unit} {proc['role']} {proc['pid']}"},
            }
        )
        for layer, name, label, start, elapsed in proc["spans"]:
            events.append(
                {
                    "name": f"{name} {label}".strip(),
                    "cat": layer,
                    "ph": "X",
                    "ts": round(start * 1e6, 1),
                    "dur": round(elapsed * 1e6, 1),
                    "pid": proc["pid"],
                    "tid": proc["pid"],
                    "args": {"unit": unit, "label": label},
                }
            )
    return events
