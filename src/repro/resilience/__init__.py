"""Model-level fault injection and runtime invariant auditing.

Two halves (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` -- a deterministic, seeded
  :class:`FaultModel` composing station churn, feedback corruption and
  clock skew, injected through all three engines;
* :mod:`repro.resilience.auditor` -- opt-in per-slot verification that the
  adversary honored its (T, 1-eps) budget, the channel stayed consistent,
  and election safety held, raising
  :class:`~repro.errors.InvariantViolationError` with a replayable
  :class:`ReproBundle`.

:mod:`repro.resilience.replay` re-executes saved bundles
(``python -m repro replay``).  Scalar and vector semantics are checked in
lockstep by the conformance registry, ``tests/sim/test_conformance.py``.
"""

from repro.resilience.auditor import (
    AuditContext,
    BatchInvariantAuditor,
    InvariantAuditor,
    OverBudgetAdversary,
)
from repro.resilience.bundle import ReproBundle
from repro.resilience.faults import (
    NO_FAULTS,
    BatchFaultState,
    FaultModel,
    RealizedFaults,
    SlotFaults,
)

__all__ = [
    "FaultModel",
    "RealizedFaults",
    "BatchFaultState",
    "SlotFaults",
    "NO_FAULTS",
    "AuditContext",
    "InvariantAuditor",
    "BatchInvariantAuditor",
    "OverBudgetAdversary",
    "ReproBundle",
]
