"""``repro.service`` -- simulation-as-a-service.

The service stack turns the reproduction's python entry points into a
declarative, replayable pipeline (see ``docs/service.md``):

* :mod:`repro.service.scenario` -- schema-versioned YAML/JSON scenario
  documents compiled into validated
  :class:`~repro.experiments.cells.CellSpec` lists with deterministic
  ``(root_seed, path)`` derivations and a canonical content digest;
* :mod:`repro.service.store` -- a content-addressed on-disk store of run
  directories keyed by scenario digest: register, list (the directories
  are the only index), execute with shard checkpoints, stream journals,
  load checksummed result tables, and bit-replay any run from its
  manifest;
* :mod:`repro.service.jobs` -- a restart-surviving job queue with bounded
  concurrency and backpressure scheduling scenario runs onto the
  supervised worker pool of :mod:`repro.experiments.parallel`
  (heartbeats, per-run deadlines, crash requeue, bounded seeded retry,
  quarantine), plus degraded mode;
* :mod:`repro.service.chaos` -- deterministic service-level fault
  injection (``worker:kill/hang``, ``store:tamper``, ``disk:full``);
* :mod:`repro.service.api` -- the local HTTP surface
  (``python -m repro serve``) exposing submit/status/progress/results/
  cancel/replay/failures plus Prometheus metrics;
* :mod:`repro.service.cli` -- ``python -m repro scenario
  {validate,run,submit,status,results,replay,list}``.
"""

from __future__ import annotations

from repro.service.scenario import (
    SCENARIO_SCHEMA_VERSION,
    Scenario,
    expand,
    load_scenario,
    parse_scenario,
    scenario_digest,
)
from repro.service.jobs import (
    BackpressureError,
    JobService,
    ServiceDegradedError,
)
from repro.service.store import ReplayReport, RunRecord, RunStore

__all__ = [
    "JobService",
    "BackpressureError",
    "ServiceDegradedError",
    "SCENARIO_SCHEMA_VERSION",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "expand",
    "scenario_digest",
    "RunStore",
    "RunRecord",
    "ReplayReport",
]
