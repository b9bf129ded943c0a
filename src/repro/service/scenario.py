"""Declarative scenario documents: the service's input language.

A *scenario* is a schema-versioned YAML/JSON document that composes
protocol (cell kind) x adversary x fault model x ``n``/``eps``/``T``
grids plus engine, sharding, and telemetry options into a validated list
of :class:`~repro.experiments.cells.CellSpec` cells::

    scenario: lesk-vs-adaptive
    schema: 1
    seed: 1234
    grid:
      kind: [lesk, lesu]
      n: [64, 128]
      eps: [0.3]
      T: [16]
      adversary: [random, saturating]
    reps: 64
    engine: {batched: true}
    sharding: {block_size: 64}

Validation is strict and total: every problem is reported with the path
of the offending key (``grid.adversary[1]: unknown adversary ...``),
unknown keys are rejected at every level, adversary names are checked
against :func:`repro.adversary.suite.strategy_names`, cell kinds against
:data:`repro.experiments.cells.CELL_KINDS`, the ``faults`` section
round-trips through :meth:`repro.resilience.faults.FaultModel
.from_jsonable`, and grid-size/budget sanity is enforced against the
``limits`` section.

A validated scenario fully determines its bitstream: :func:`expand`
derives every cell's seed path as ``(path_tag, ordinal)`` in fixed
kind -> adversary -> n -> eps -> T grid order, and execution always
takes the sharded path whose block seeds depend only on the document
(``(root_seed, *path, SHARD_BLOCK_TAG, block)``).  The canonical
content digest (:func:`scenario_digest`) covers exactly the
result-determining fields -- ``telemetry`` and ``limits`` are excluded
-- so it is the natural run-store key (:mod:`repro.service.store`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.adversary.suite import strategy_names
from repro.errors import ConfigurationError
from repro.experiments.cells import CELL_KINDS, CellSpec
from repro.resilience.faults import FaultModel

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "DEFAULT_MAX_CELLS",
    "DEFAULT_MAX_TOTAL_REPS",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "scenario_from_jsonable",
    "expand",
    "scenario_digest",
]

#: The scenario document schema this build reads and writes.
SCENARIO_SCHEMA_VERSION = 1

#: Default grid-size guardrails (overridable via the ``limits`` section).
DEFAULT_MAX_CELLS = 4096
DEFAULT_MAX_TOTAL_REPS = 1 << 20

_NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)

_TOP_KEYS = {
    "scenario", "schema", "seed", "path_tag", "grid", "reps",
    "engine", "sharding", "faults", "telemetry", "limits",
}
_GRID_KEYS = {"kind", "n", "eps", "T", "adversary"}
_ENGINE_KEYS = {"batched", "max_slots"}
_SHARDING_KEYS = {"block_size"}
_TELEMETRY_KEYS = {"enabled", "stride"}
_LIMITS_KEYS = {"max_cells", "max_total_reps"}


@dataclass(frozen=True, slots=True)
class Scenario:
    """A validated, normalized scenario document.

    Construct via :func:`parse_scenario` / :func:`load_scenario` /
    :func:`scenario_from_jsonable` -- direct construction skips
    validation and is reserved for the compilers in this package.
    """

    name: str
    schema: int
    seed: int
    path_tag: int
    kinds: tuple[str, ...]
    ns: tuple[int, ...]
    epss: tuple[float, ...]
    Ts: tuple[int, ...]
    adversaries: tuple[str, ...]
    reps: int
    batched: bool
    max_slots: int | None
    block_size: int
    faults: FaultModel | None
    telemetry_enabled: bool
    telemetry_stride: int
    max_cells: int
    max_total_reps: int

    @property
    def cell_count(self) -> int:
        """Cells in the grid (product of the five axis lengths)."""
        return (
            len(self.kinds) * len(self.adversaries) * len(self.ns)
            * len(self.epss) * len(self.Ts)
        )

    def to_jsonable(self) -> dict:
        """The full normalized document (defaults made explicit)."""
        doc = self.canonical_jsonable()
        doc["telemetry"] = {
            "enabled": self.telemetry_enabled,
            "stride": self.telemetry_stride,
        }
        doc["limits"] = {
            "max_cells": self.max_cells,
            "max_total_reps": self.max_total_reps,
        }
        return doc

    def canonical_jsonable(self) -> dict:
        """The digest payload: exactly the result-determining fields.

        ``telemetry`` and ``limits`` are excluded -- neither changes a
        single result bit -- so re-running a stored scenario with
        different observability or guardrails still addresses the same
        run.
        """
        return {
            "schema": self.schema,
            "scenario": self.name,
            "seed": self.seed,
            "path_tag": self.path_tag,
            "grid": {
                "kind": list(self.kinds),
                "adversary": list(self.adversaries),
                "n": list(self.ns),
                "eps": list(self.epss),
                "T": list(self.Ts),
            },
            "reps": self.reps,
            "engine": {
                "batched": self.batched,
                "max_slots": self.max_slots,
            },
            "sharding": {"block_size": self.block_size},
            "faults": None if self.faults is None else self.faults.to_jsonable(),
        }

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of the canonical document."""
        return scenario_digest(self)


def scenario_digest(scenario: Scenario) -> str:
    """Content address of a scenario: SHA-256 over its canonical JSON."""
    payload = json.dumps(
        scenario.canonical_jsonable(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- validation --------------------------------------------------------------


class _Report:
    """Accumulates path-qualified validation errors, then raises once."""

    def __init__(self, source: str):
        self.source = source
        self.errors: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigurationError(
                f"invalid scenario document ({self.source}):\n  "
                + "\n  ".join(self.errors)
            )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_list(value) -> list:
    """Normalize a scalar axis value to a one-element list."""
    return value if isinstance(value, list) else [value]


def _check_unknown(section: dict, known: set, prefix: str, rep: _Report) -> None:
    for key in sorted(set(section) - known):
        where = f"{prefix}{key}" if prefix else str(key)
        rep.error(where, f"unknown key; known: {', '.join(sorted(known))}")


def _int_axis(values, path: str, rep: _Report, what: str) -> tuple[int, ...]:
    out = []
    for i, v in enumerate(values):
        if not _is_int(v) or v < 1:
            rep.error(f"{path}[{i}]", f"{what} must be a positive integer, got {v!r}")
        else:
            out.append(v)
    return tuple(out)


def _validate_grid(doc: dict, rep: _Report):
    grid = doc.get("grid")
    if not isinstance(grid, dict):
        rep.error("grid", f"must be a mapping of axis lists, got {type(grid).__name__}")
        return (), (), (), (), ()
    _check_unknown(grid, _GRID_KEYS, "grid.", rep)

    kinds_raw = _as_list(grid.get("kind", "lesk"))
    kinds = []
    if not kinds_raw:
        rep.error("grid.kind", "must be a non-empty list")
    for i, kind in enumerate(kinds_raw):
        if not isinstance(kind, str) or kind not in CELL_KINDS:
            rep.error(
                f"grid.kind[{i}]",
                f"unknown cell kind {kind!r}; known: {', '.join(sorted(CELL_KINDS))}",
            )
        else:
            kinds.append(kind)

    advs_raw = _as_list(grid.get("adversary", "random"))
    advs = []
    if not advs_raw:
        rep.error("grid.adversary", "must be a non-empty list")
    known_advs = strategy_names()
    for i, adv in enumerate(advs_raw):
        if not isinstance(adv, str) or adv not in known_advs:
            rep.error(
                f"grid.adversary[{i}]",
                f"unknown adversary {adv!r}; known: {', '.join(known_advs)}",
            )
        else:
            advs.append(adv)

    if "n" not in grid:
        rep.error("grid.n", "required axis is missing")
        ns: tuple[int, ...] = ()
    else:
        ns_raw = _as_list(grid["n"])
        if not ns_raw:
            rep.error("grid.n", "must be a non-empty list")
        ns = _int_axis(ns_raw, "grid.n", rep, "station count")

    epss_raw = _as_list(grid.get("eps", 0.3))
    epss = []
    if not epss_raw:
        rep.error("grid.eps", "must be a non-empty list")
    for i, eps in enumerate(epss_raw):
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            rep.error(f"grid.eps[{i}]", f"eps must be a number in (0, 1), got {eps!r}")
        elif not (0.0 < float(eps) < 1.0) or not math.isfinite(float(eps)):
            rep.error(f"grid.eps[{i}]", f"eps must be in (0, 1), got {eps!r}")
        else:
            epss.append(float(eps))

    Ts_raw = _as_list(grid.get("T", 16))
    if not Ts_raw:
        rep.error("grid.T", "must be a non-empty list")
    Ts = _int_axis(Ts_raw, "grid.T", rep, "window parameter T")

    return tuple(kinds), tuple(advs), ns, tuple(epss), Ts


def _validate_engine(doc: dict, rep: _Report) -> tuple[bool, int | None]:
    engine = doc.get("engine", {})
    if engine is None:
        engine = {}
    if not isinstance(engine, dict):
        rep.error("engine", f"must be a mapping, got {type(engine).__name__}")
        return True, None
    _check_unknown(engine, _ENGINE_KEYS, "engine.", rep)
    batched = engine.get("batched", True)
    if not isinstance(batched, bool):
        rep.error("engine.batched", f"must be true or false, got {batched!r}")
        batched = True
    max_slots = engine.get("max_slots")
    if max_slots is not None and (not _is_int(max_slots) or max_slots < 1):
        rep.error(
            "engine.max_slots", f"must be a positive integer or null, got {max_slots!r}"
        )
        max_slots = None
    return batched, max_slots


def _validate_faults(doc: dict, rep: _Report) -> FaultModel | None:
    faults = doc.get("faults")
    if faults is None:
        return None
    if not isinstance(faults, dict):
        rep.error(
            "faults",
            f"must be a FaultModel mapping or null, got {type(faults).__name__}",
        )
        return None
    try:
        model = FaultModel.from_jsonable(faults)
    except (ConfigurationError, TypeError, ValueError) as exc:
        rep.error("faults", str(exc))
        return None
    # Round-trip so the canonical document (and hence the digest) is
    # exactly what a replay will reconstruct.
    return FaultModel.from_jsonable(model.to_jsonable())


def _validate_section(
    doc: dict, key: str, known: set, defaults: dict, rep: _Report
) -> dict:
    """Validate a flat optional {str: scalar} section against defaults."""
    section = doc.get(key, {})
    if section is None:
        section = {}
    if not isinstance(section, dict):
        rep.error(key, f"must be a mapping, got {type(section).__name__}")
        return dict(defaults)
    _check_unknown(section, known, f"{key}.", rep)
    return {**defaults, **{k: v for k, v in section.items() if k in known}}


def scenario_from_jsonable(doc, source: str = "<document>") -> Scenario:
    """Validate a parsed scenario document into a :class:`Scenario`.

    Raises :class:`~repro.errors.ConfigurationError` carrying **every**
    problem found, one path-qualified line each.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"invalid scenario document ({source}): top level must be a "
            f"mapping, got {type(doc).__name__}"
        )
    rep = _Report(source)
    _check_unknown(doc, _TOP_KEYS, "", rep)

    name = doc.get("scenario")
    if not isinstance(name, str) or not name:
        rep.error("scenario", f"required: a non-empty scenario name, got {name!r}")
        name = "invalid"
    elif not set(name) <= _NAME_CHARS:
        bad = "".join(sorted(set(name) - _NAME_CHARS))
        rep.error(
            "scenario",
            f"name may only contain letters, digits, '.', '_', '-' "
            f"(offending: {bad!r})",
        )

    schema = doc.get("schema")
    if schema != SCENARIO_SCHEMA_VERSION:
        rep.error(
            "schema",
            f"unsupported scenario schema {schema!r}; this build supports "
            f"{SCENARIO_SCHEMA_VERSION}",
        )

    seed = doc.get("seed", 1234)
    if not _is_int(seed) or not (0 <= seed < 2**63):
        rep.error("seed", f"must be an integer in [0, 2**63), got {seed!r}")
        seed = 1234
    path_tag = doc.get("path_tag", 99)
    if not _is_int(path_tag) or path_tag < 0:
        rep.error("path_tag", f"must be a non-negative integer, got {path_tag!r}")
        path_tag = 99

    kinds, advs, ns, epss, Ts = _validate_grid(doc, rep)

    reps = doc.get("reps", 64)
    if not _is_int(reps) or reps < 1:
        rep.error("reps", f"must be an integer >= 1, got {reps!r}")
        reps = 1

    batched, max_slots = _validate_engine(doc, rep)

    sharding = _validate_section(
        doc, "sharding", _SHARDING_KEYS, {"block_size": 64}, rep
    )
    block_size = sharding["block_size"]
    if not _is_int(block_size) or block_size < 1:
        rep.error(
            "sharding.block_size", f"must be an integer >= 1, got {block_size!r}"
        )
        block_size = 64

    faults = _validate_faults(doc, rep)

    telemetry = _validate_section(
        doc, "telemetry", _TELEMETRY_KEYS, {"enabled": False, "stride": 64}, rep
    )
    tel_enabled = telemetry["enabled"]
    if not isinstance(tel_enabled, bool):
        rep.error("telemetry.enabled", f"must be true or false, got {tel_enabled!r}")
        tel_enabled = False
    tel_stride = telemetry["stride"]
    if not _is_int(tel_stride) or tel_stride < 1:
        rep.error("telemetry.stride", f"must be an integer >= 1, got {tel_stride!r}")
        tel_stride = 64

    limits = _validate_section(
        doc,
        "limits",
        _LIMITS_KEYS,
        {"max_cells": DEFAULT_MAX_CELLS, "max_total_reps": DEFAULT_MAX_TOTAL_REPS},
        rep,
    )
    max_cells = limits["max_cells"]
    if not _is_int(max_cells) or max_cells < 1:
        rep.error("limits.max_cells", f"must be an integer >= 1, got {max_cells!r}")
        max_cells = DEFAULT_MAX_CELLS
    max_total_reps = limits["max_total_reps"]
    if not _is_int(max_total_reps) or max_total_reps < 1:
        rep.error(
            "limits.max_total_reps",
            f"must be an integer >= 1, got {max_total_reps!r}",
        )
        max_total_reps = DEFAULT_MAX_TOTAL_REPS

    # Grid-size / budget sanity (only meaningful once the axes parsed).
    if not rep.errors:
        cells = len(kinds) * len(advs) * len(ns) * len(epss) * len(Ts)
        if cells > max_cells:
            rep.error(
                "grid",
                f"{cells} cells exceed limits.max_cells {max_cells}; shrink "
                "an axis or raise the limit explicitly",
            )
        elif cells * reps > max_total_reps:
            rep.error(
                "reps",
                f"{cells} cells x {reps} reps = {cells * reps} total "
                f"replications exceed limits.max_total_reps {max_total_reps}; "
                "lower reps or raise the limit explicitly",
            )

    rep.raise_if_failed()
    return Scenario(
        name=name,
        schema=SCENARIO_SCHEMA_VERSION,
        seed=seed,
        path_tag=path_tag,
        kinds=kinds,
        ns=ns,
        epss=epss,
        Ts=Ts,
        adversaries=advs,
        reps=reps,
        batched=batched,
        max_slots=max_slots,
        block_size=block_size,
        faults=faults,
        telemetry_enabled=tel_enabled,
        telemetry_stride=tel_stride,
        max_cells=max_cells,
        max_total_reps=max_total_reps,
    )


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate one YAML or JSON scenario document.

    YAML is a superset of JSON here, so a single loader covers both
    formats; syntax errors are reported with the *source* label.
    """
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(
            f"invalid scenario document ({source}): not parseable as "
            f"YAML/JSON -- {exc}"
        ) from exc
    return scenario_from_jsonable(doc, source=source)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, source=str(path))


def expand(scenario: Scenario) -> list[CellSpec]:
    """Compile a scenario into its deterministic :class:`CellSpec` list.

    Grid order is fixed (kind -> adversary -> n -> eps -> T) and each
    cell's seed path is ``(path_tag, ordinal)``, so the document alone
    -- never the job count, visit order, or store state -- determines
    every seed derivation.  This is the same scheme ``python -m repro
    sweep`` uses, pinned bit-identical by
    ``tests/service/test_scenario.py``.
    """
    specs: list[CellSpec] = []
    for kind in scenario.kinds:
        for adversary in scenario.adversaries:
            for n in scenario.ns:
                for eps in scenario.epss:
                    for T in scenario.Ts:
                        specs.append(
                            CellSpec(
                                kind=kind,
                                n=n,
                                eps=eps,
                                T=T,
                                adversary=adversary,
                                reps=scenario.reps,
                                root_seed=scenario.seed,
                                path=(scenario.path_tag, len(specs)),
                                batched=scenario.batched,
                                max_slots=scenario.max_slots,
                                faults=scenario.faults,
                            )
                        )
    return specs
