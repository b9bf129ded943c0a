"""Deterministic fault injection for chaos-testing the supervised pool.

A :class:`FaultPlan` names, ahead of time, exactly which fault fires on
which execution of which task -- no probabilistic triggering -- so a
chaos test replays bit-for-bit.  The plan is plain picklable data.  Every
``kill``/``hang``/``raise``/``config`` atom fires from one place: the
worker of :class:`~repro.experiments.parallel.WorkerPool` calls
:meth:`FaultPlan.fire` right before it runs a task.  The atom's id names
the layer it attacks, and its ``@N`` counts that layer's unit:

* an **experiment id** (``T1``) and the experiment's attempt (``run_all``);
* ``block<N>`` and that rep-block's execution (the shard supervisor);
* ``worker`` and the pool-wide dispatch sequence (``repro serve``).

The compact spec syntax used by ``--inject-faults`` is ``ID:KIND@N``
joined by commas, e.g. ``"T1:raise@1,T7:hang@2"`` (``@N`` defaults to 1).

Experiment fault kinds:

``raise``
    Raise :class:`InjectedFaultError` (a transient crash; retried with
    backoff).
``config``
    Raise :class:`~repro.errors.ConfigurationError` (a permanent,
    never-retried failure).
``hang``
    Sleep until the supervisor's wall-clock timeout kills the worker.
``corrupt``
    Let the attempt succeed, then corrupt its on-disk checkpoint
    (:meth:`FaultPlan.should_corrupt`), so a later ``--resume`` must
    detect the bad checksum and recompute.

**Shard-level faults**: the pseudo-id ``block<N>`` names the N-th work
unit of a sharded sweep (its deterministic global task ordinal, counting
``(spec, block)`` pairs in dispatch order), and ``@EXECUTION`` counts that
block's dispatches -- so ``block2:kill@1`` SIGKILLs the worker the first
time block 2 runs, and the retry (execution 2) is undisturbed.  Block
fault kinds:

``kill``
    ``SIGKILL`` the worker process mid-block: exercises death detection
    and orphan re-dispatch.  Needs real worker processes (``jobs > 1``).
``hang``
    Sleep forever: exercises the per-block deadline kill.  Also needs
    ``jobs > 1``.
``corrupt-result``
    Let the block succeed but deterministically perturb its results:
    exercises speculative-duplicate mismatch detection.

**Service-level faults** target the job service's workers.  Three
pseudo-ids name the substrate being attacked, and ``@SEQ`` counts
*dispatches across the whole pool* (starting at 1) -- so a requeued run's
retry lands on the next sequence number and is undisturbed unless
separately targeted:

``worker:kill@SEQ`` / ``worker:hang@SEQ``
    SIGKILL the worker process executing dispatch SEQ (exercises death
    detection + requeue) or hang it forever (exercises the per-run
    wall-clock deadline; heartbeats keep flowing, so this specifically
    proves the deadline path, not staleness detection).
``store:tamper@SEQ``
    Let dispatch SEQ complete, then silently perturb its stored result
    table without updating the checksum -- exercises verify-on-read
    quarantine.
``disk:full@SEQ``
    Make every atomic write during dispatch SEQ fail with ``ENOSPC``
    (via :func:`repro.experiments.checkpoint.failing_writes`).

The last two act inside the service's run executor
(:class:`repro.service.chaos.ServiceFaultPlan`).
"""

from __future__ import annotations

import dataclasses
import os
import re
import signal
import time
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "FAULT_KINDS",
    "BLOCK_FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
]

FAULT_KINDS = ("raise", "config", "hang", "corrupt")

#: Fault kinds valid for ``block<N>`` pseudo-ids (shard-level chaos).
BLOCK_FAULT_KINDS = ("kill", "hang", "corrupt-result")

#: Service-level pseudo-ids and the fault kinds each accepts
#: (``@SEQ`` counts pool-wide dispatches).
SERVICE_FAULT_KINDS = {
    "worker": ("kill", "hang"),
    "store": ("tamper",),
    "disk": ("full",),
}

#: Pseudo-id naming a sharded work unit by its global task ordinal.
_BLOCK_ID_RE = re.compile(r"^block(\d+)$")

#: How long a ``hang`` fault sleeps per poll; the loop below never exits,
#: short naps just keep the worker promptly killable.
_HANG_NAP_S = 0.05


class InjectedFaultError(RuntimeError):
    """The transient crash raised by a ``raise`` fault (retried)."""


@dataclass(frozen=True, slots=True)
class Fault:
    """One planned fault: *kind* fires on the *attempt*-th try of *exp_id*."""

    exp_id: str
    kind: str
    attempt: int = 1

    def __post_init__(self):
        index = self.block_index()
        if index is not None:
            # One spelling per block, so the pool's ``block<N>`` lookup hits.
            object.__setattr__(self, "exp_id", f"block{index}")
            if self.kind not in BLOCK_FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown block fault kind {self.kind!r} for "
                    f"{self.exp_id!r}; expected one of {BLOCK_FAULT_KINDS}"
                )
        elif self.exp_id in SERVICE_FAULT_KINDS:
            allowed = SERVICE_FAULT_KINDS[self.exp_id]
            if self.kind not in allowed:
                raise ConfigurationError(
                    f"unknown service fault kind {self.kind!r} for "
                    f"{self.exp_id!r}; expected one of {allowed}"
                )
        elif self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ConfigurationError(
                f"fault attempt must be >= 1, got {self.attempt}"
            )

    def block_index(self) -> int | None:
        """The task ordinal for ``block<N>`` pseudo-ids, else None."""
        match = _BLOCK_ID_RE.match(self.exp_id)
        return int(match.group(1)) if match else None

    def service_target(self) -> str | None:
        """The substrate name for service pseudo-ids, else None."""
        return self.exp_id if self.exp_id in SERVICE_FAULT_KINDS else None

    def to_spec(self) -> str:
        """Render as one ``ID:KIND@ATTEMPT`` spec atom."""
        return f"{self.exp_id}:{self.kind}@{self.attempt}"


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable, seeded schedule of faults keyed by (experiment, attempt).

    *seed* feeds the byte pattern of ``corrupt`` faults (see
    :func:`repro.experiments.checkpoint.corrupt_checkpoint`), keeping even
    the corruption deterministic.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"T1:raise@1,T7:hang"`` (``@attempt`` defaults to 1)."""
        faults = []
        for atom in spec.split(","):
            atom = atom.strip()
            if not atom:
                continue
            try:
                exp_id, rest = atom.split(":", 1)
                kind, _, attempt = rest.partition("@")
                faults.append(
                    Fault(exp_id.strip(), kind.strip(), int(attempt) if attempt else 1)
                )
            except ConfigurationError:
                raise  # Fault.__post_init__ already said what is wrong
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault spec {atom!r}; expected ID:KIND[@ATTEMPT] with "
                    f"KIND in {FAULT_KINDS}"
                ) from exc
        return cls(faults=tuple(faults), seed=seed)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec`."""
        return ",".join(f.to_spec() for f in self.faults)

    def validate_ids(self, known_ids: "Iterable[str]") -> "FaultPlan":
        """Reject faults naming experiments that do not exist.

        ``from_spec`` can only check syntax; a typo like ``T99:raise`` used
        to parse fine and then silently never fire, making the chaos run
        vacuous.  The runner calls this with its experiment registry so the
        mistake fails fast at the CLI.  Returns ``self`` for chaining.
        """
        known = set(known_ids)
        unknown = sorted(
            {
                f.exp_id
                for f in self.faults
                if f.block_index() is None and f.service_target() is None
            }
            - known
        )
        if unknown:
            raise ConfigurationError(
                f"fault plan names unknown experiment ids {unknown}; "
                f"known ids: {sorted(known)}"
            )
        return self

    def fault_for(self, exp_id: str, attempt: int) -> Fault | None:
        """The fault planned for this (experiment, attempt), if any."""
        for fault in self.faults:
            if fault.exp_id == exp_id and fault.attempt == attempt:
                return fault
        return None

    def fire(self, target: str, execution: int, seq: int = 0,
             in_process: bool = False) -> None:
        """Trigger the kill/hang/raise/config fault planned for one execution.

        *target* is the task's atom id (an experiment id, ``block<N>`` or
        ``worker``); ``worker`` atoms count the pool's dispatch sequence
        *seq*, all others the task's *execution*.  With ``in_process=True``
        (a pool running tasks inline) ``kill``/``hang`` raise
        :class:`~repro.errors.ConfigurationError` instead of firing:
        killing or hanging would take down the caller itself, and a chaos
        drill that silently skips its faults is worse than one that fails
        loudly.
        """
        fault = self.fault_for(target, seq if target == "worker" else execution)
        if fault is None or fault.kind not in ("raise", "config", "kill", "hang"):
            return
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"injected transient crash ({target} attempt {execution})"
            )
        if fault.kind == "config":
            raise ConfigurationError(
                f"injected permanent config failure ({target} attempt {execution})"
            )
        if in_process:
            raise ConfigurationError(
                f"injected {fault.to_spec()} fault needs worker processes; "
                "run with jobs > 1"
            )
        if fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        while True:  # hang: hold the worker until the supervisor kills it
            time.sleep(_HANG_NAP_S)

    def should_corrupt(self, exp_id: str, attempt: int) -> bool:
        """Whether to corrupt the checkpoint written by this attempt."""
        fault = self.fault_for(exp_id, attempt)
        return fault is not None and fault.kind == "corrupt"

    # -- shard-level (block) faults -----------------------------------------

    def block_fault_for(self, task_id: int, execution: int) -> Fault | None:
        """The fault planned for this (task ordinal, execution), if any."""
        return self.fault_for(f"block{task_id}", execution)

    def service_seqs(self) -> tuple[int, ...]:
        """All dispatch sequence numbers named by service faults (sorted)."""
        return tuple(
            sorted(f.attempt for f in self.faults if f.service_target())
        )

    def should_corrupt_block(self, task_id: int, execution: int) -> bool:
        """Whether to perturb the payload produced by this execution."""
        fault = self.block_fault_for(task_id, execution)
        return fault is not None and fault.kind == "corrupt-result"

    def corrupt_block_payload(self, payload):
        """Deterministically perturb a block payload (silent-corruption drill).

        Bumps ``slots`` on every run result so the corrupted payload is
        structurally valid but numerically wrong -- exactly what the
        supervisor's speculative-duplicate verification must catch.
        Payloads without run results pass through unchanged.
        """
        if isinstance(payload, tuple) and len(payload) == 2:
            results, tel = payload
        else:
            results, tel = payload, None
        try:
            corrupted = [
                dataclasses.replace(r, slots=r.slots + 1) for r in results
            ]
        except (TypeError, AttributeError):
            return payload
        return (corrupted, tel) if tel is not None or isinstance(
            payload, tuple
        ) else corrupted
