"""Meta-tests: documentation coverage of the public API.

The reproduction promises doc comments on every public item; this test
walks the package and asserts every module, public class and public
function carries a non-trivial docstring.  The prose docs are held to the
tree too: every repository path they name in backquotes must exist, and so
is the benchmark's tracer: every entry point it wraps by name must exist.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and len(module.__doc__.strip()) > 20, module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_") or not inspect.isfunction(member):
                    continue
                if member.__doc__ and member.__doc__.strip():
                    continue
                # Interface overrides inherit the base class's contract.
                inherited = any(
                    getattr(getattr(base, mname, None), "__doc__", None)
                    for base in obj.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{mname}")
    assert not undocumented, f"{module.__name__}: undocumented {undocumented}"


def test_design_doc_mentions_every_experiment():
    from repro.experiments.run_all import EXPERIMENT_MODULES

    text = (ROOT / "DESIGN.md").read_text()
    missing = [e for e in EXPERIMENT_MODULES if f"**{e}**" not in text]
    assert not missing, f"DESIGN.md lacks experiment index rows for {missing}"


#: Committed tables no CI golden step regenerates: A1 waits for its move to
#: the batched engine, which changes its stream (ROADMAP item 7).
UNCHECKED_TABLES = {"A1"}


def golden_checks(ci_text: str) -> dict[str, set[str]]:
    """The CI steps that run ``run_all`` and ``cmp`` its tables against
    ``results/``: step name -> ids both regenerated (``--only``, or every
    id without it) and compared as ``.csv`` and ``.txt``."""
    import yaml

    from repro.experiments.run_all import EXPERIMENT_MODULES

    def unroll(loop):
        ids, body = loop.group(1).split(), loop.group(2)
        return "\n".join(body.replace("$id", i) for i in ids)

    checks = {}
    for job in yaml.safe_load(ci_text)["jobs"].values():
        for step in job["steps"]:
            script = step.get("run", "")
            if "run_all" not in script or "cmp" not in script:
                continue
            only = re.search(r"--only\s+([\w,]+)", script)
            ran = set(only.group(1).split(",")) if only else set(EXPERIMENT_MODULES)
            script = re.sub(
                r"for id in ([^;\n]+); do\n(.*?)\n\s*done", unroll, script, flags=re.S
            )
            compared = set(
                re.findall(
                    r'cmp\s+"?\S+/(\w+)\.(csv|txt)"?\s+"?results/\1\.\2"?', script
                )
            )
            both = {i for i, _ in compared if {(i, "csv"), (i, "txt")} <= compared}
            checks[step.get("name", script[:40])] = ran & both
    return checks


def test_ci_golden_checks_every_table():
    from repro.experiments.run_all import EXPERIMENT_MODULES

    checks = golden_checks((ROOT / ".github/workflows/ci.yml").read_text())
    checked = set().union(*checks.values())
    unchecked = set(EXPERIMENT_MODULES) - checked
    assert unchecked == UNCHECKED_TABLES, (
        f"tables without a CI golden step: {sorted(unchecked - UNCHECKED_TABLES)}; "
        f"named exceptions now checked: {sorted(UNCHECKED_TABLES - unchecked)}"
    )


#: The prose docs.  CHANGES.md and ROADMAP.md are history, and e2ebench/
#: documents itself.
PROSE_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    f"docs/{path.name}" for path in (ROOT / "docs").glob("*.md")
)
_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(
    r"(?:^|(?<=[\s=]))((?:src|tests|benchmarks|docs|examples|results)/[^\s:`'\"]*)"
)
#: Written by ``run_all --telemetry``; not committed.
_RUN_OUTPUTS = {"results/telemetry/"}


@pytest.mark.parametrize("doc", PROSE_DOCS)
def test_documented_paths_exist(doc):
    named = {
        path
        for span in _SPAN.findall((ROOT / doc).read_text())
        for path in _PATH.findall(span)
    }
    stale = sorted(p for p in named - _RUN_OUTPUTS if not (ROOT / p).exists())
    assert not stale, f"{doc} names paths that do not exist: {stale}"


def test_tracer_layers_resolve():
    """``e2ebench/tracer.py`` wraps entry points by module and attribute
    name as their modules load, so a renamed entry point breaks
    ``e2ebench/run.py --trace 1``.  Every name it lists must resolve, and
    so must the module whose vector policies it wraps."""
    spec = importlib.util.spec_from_file_location(
        "e2ebench_tracer", ROOT / "e2ebench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries, missing = 0, []
    for _layer, module_name, attrs in tracer.LAYERS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            entries += 1
            target = module
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module_name}.{attr}")
    assert entries > 0
    assert not missing, f"tracer layers that no longer resolve: {missing}"
    importlib.import_module(tracer.POLICY_MODULE)
