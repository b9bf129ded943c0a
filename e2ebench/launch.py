"""Run one repro CLI in-process with the per-layer wrappers installed.

    PYTHONPATH=src:e2ebench python3 -m launch TRACE_DIR run_all|sweep|serve [ARGS...]

The command's arguments are passed unchanged to ``run_all.main``,
``sweep.main`` or ``cli.serve_main``, so the traced run does exactly the
work of the plain CLI.  It runs as a module (``-m``) so that forkserver
and spawn children of the command re-import it as ``__mp_main__``, as they
re-import the plain CLI's module; on that import it installs a tracer in
the child.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

_START = time.perf_counter()

from tracer import Tracer  # noqa: E402  (e2ebench is on PYTHONPATH)

TRACE_DIR_ENV = "E2EBENCH_TRACE_DIR"
ENTRY_POINTS = {
    "run_all": ("repro.experiments.run_all", "main"),
    "sweep": ("repro.experiments.sweep", "main"),
    "serve": ("repro.service.cli", "serve_main"),
}


def main(argv: list[str]) -> int:
    trace_dir, command, args = argv[0], argv[1], argv[2:]
    module_name, attr = ENTRY_POINTS[command]
    os.environ[TRACE_DIR_ENV] = trace_dir
    tracer = Tracer(trace_dir)
    tracer.install()
    entry = getattr(importlib.import_module(module_name), attr)
    tracer.add("import", time.perf_counter() - _START)
    try:
        return entry(args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and TRACE_DIR_ENV in os.environ:
    Tracer(os.environ[TRACE_DIR_ENV], role="worker").install()
