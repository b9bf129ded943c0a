"""Runtime invariant auditor for the simulation engines.

Opt-in correctness instrumentation: an engine handed an
:class:`InvariantAuditor` (or :class:`BatchInvariantAuditor` for the
batched engines) reports every slot -- the vectorized engine a draw
block of slots at a time -- and the auditor verifies, *while the run
executes*, that:

* **budget** -- the granted jam sequence honors the (T, 1-eps) definition
  over every realized window of length >= T, via the online
  :class:`~repro.adversary.validation.WindowAuditor`;
* **channel** -- the observed state is consistent with the transmitter
  count and the jam flag (``Single`` iff exactly one transmitter and not
  jammed), except in slots the fault model deliberately corrupted;
* **election** -- at most one station believes it is the leader, and the
  winner transmitted (awake) in the deciding slot.

A violated invariant raises a typed
:class:`~repro.errors.InvariantViolationError` carrying a
:class:`~repro.resilience.bundle.ReproBundle`: seed, configuration and
offending slot window, replayable with ``python -m repro replay``.

The honest engines never trip the auditor (their adversaries are clamped
by :class:`~repro.adversary.budget.JammingBudget` and their channels are
:func:`~repro.channel.channel.resolve_slot`); the auditor exists to catch
the dishonest and the broken -- e.g. :class:`OverBudgetAdversary` below,
which deliberately ignores its clamp, or a miswired fault path.  Auditing
is opt-in precisely so the hot path stays branch-free when off.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.adversary.base import Adversary, AdversaryView
from repro.adversary.validation import WindowAuditor, WindowViolation
from repro.errors import ConfigurationError, InvariantViolationError
from repro.resilience.bundle import ReproBundle
from repro.resilience.faults import FaultModel
from repro.types import ChannelState

__all__ = [
    "AuditContext",
    "InvariantAuditor",
    "BatchInvariantAuditor",
    "OverBudgetAdversary",
]


@dataclass(slots=True)
class AuditContext:
    """Run description attached to violations for replayable bundles."""

    seed: int | None = None
    engine: str = "unknown"
    n: int | None = None
    protocol: str | None = None
    T: int | None = None
    eps: float | None = None
    max_slots: int | None = None
    adversary: str | None = None
    faults: FaultModel | None = None
    params: dict = field(default_factory=dict)

    def bundle(
        self,
        invariant: str,
        detail: str,
        start: int,
        end: int,
        column: "int | None" = None,
    ) -> ReproBundle:
        """Build a :class:`ReproBundle` for a violation of *invariant*
        spanning slots ``[start, end)`` in this run context."""
        return ReproBundle(
            invariant=invariant,
            detail=detail,
            slot_start=start,
            slot_end=end,
            seed=self.seed,
            engine=self.engine,
            n=self.n,
            protocol=self.protocol,
            T=self.T,
            eps=self.eps,
            max_slots=self.max_slots,
            adversary=self.adversary,
            faults=self.faults.to_jsonable() if self.faults is not None else None,
            column=column,
            params=dict(self.params),
        )


def _fail(
    context: "AuditContext | None",
    invariant: str,
    detail: str,
    start: int,
    end: int,
    column: "int | None" = None,
) -> None:
    bundle = None
    if context is not None:
        bundle = context.bundle(invariant, detail, start, end, column=column)
    where = f"slot {start}" if end == start + 1 else f"slots [{start}, {end})"
    raise InvariantViolationError(
        f"{invariant} invariant violated at {where}: {detail}", bundle=bundle
    )


class InvariantAuditor:
    """Per-slot invariant checks for the scalar engines (opt-in)."""

    def __init__(
        self, T: int, eps: float, context: "AuditContext | None" = None
    ) -> None:
        self._window = WindowAuditor(T, eps)
        self.context = context
        self.slots_checked = 0

    def observe_slot(
        self,
        slot: int,
        transmitters: int,
        jammed: bool,
        observed: "ChannelState | None" = None,
        corrupted: bool = False,
    ) -> None:
        """Audit one resolved slot (must be called in slot order).

        *observed* is the state delivered to the stations (after any fault
        corruption; ``None`` for an erased slot); *corrupted* marks slots
        the fault model deliberately rewrote, which are exempt from the
        channel-consistency check (but never from the budget check).
        """
        violation = self._window.append(jammed)
        if violation is not None:
            _fail(
                self.context,
                "budget",
                violation.describe(),
                violation.start,
                violation.end,
            )
        if not corrupted and observed is not None:
            expected = (
                ChannelState.COLLISION
                if jammed
                else ChannelState.from_transmitter_count(transmitters)
            )
            if observed is not expected:
                _fail(
                    self.context,
                    "channel",
                    f"k={transmitters}, jammed={jammed} must be observed as "
                    f"{expected.name}, engine delivered {observed.name}",
                    slot,
                    slot + 1,
                )
        elif not corrupted and observed is None:
            _fail(
                self.context,
                "channel",
                "feedback withheld (observed=None) in a slot the fault model "
                "did not erase",
                slot,
                slot + 1,
            )
        self.slots_checked += 1

    def check_election(
        self,
        leaders_count: int,
        leader: "int | None" = None,
        deciding_slot: "int | None" = None,
        leader_transmitted: bool = True,
        leader_awake: bool = True,
    ) -> None:
        """Audit the run's election outcome (engine calls once at the end)."""
        end = self._window.slot
        if leaders_count > 1:
            _fail(
                self.context,
                "election",
                f"{leaders_count} stations believe they are the leader "
                f"(must be at most 1)",
                deciding_slot if deciding_slot is not None else max(0, end - 1),
                end,
            )
        if leaders_count == 1:
            if not leader_transmitted:
                _fail(
                    self.context,
                    "election",
                    f"station {leader} won without transmitting in the "
                    f"deciding slot",
                    deciding_slot if deciding_slot is not None else max(0, end - 1),
                    deciding_slot + 1 if deciding_slot is not None else end,
                )
            if not leader_awake:
                _fail(
                    self.context,
                    "election",
                    f"station {leader} won while not awake in the deciding "
                    f"slot",
                    deciding_slot if deciding_slot is not None else max(0, end - 1),
                    deciding_slot + 1 if deciding_slot is not None else end,
                )


class BatchInvariantAuditor:
    """Vectorized invariant checks for the batched engines.

    Runs the same potential-based budget detection as
    :class:`~repro.adversary.validation.WindowAuditor`, but over all
    ``reps`` columns in lockstep NumPy (mirroring
    :class:`~repro.adversary.budget.JammingBudgetArray`): per column the
    prefix potential ``phi = J - (1-eps)*slot`` is compared against its
    ``T``-lagged running minimum.  Channel consistency is one mask
    expression.

    :meth:`observe_block` audits a block of slots in a few array passes;
    :meth:`observe_slot` is its one-row case.  A block that holds a
    violation is replayed one slot at a time, so the raised error (its
    message, slot window, column and bundle) and the state it leaves are
    those of slot-by-slot auditing.
    """

    def __init__(
        self, T: int, eps: float, reps: int, context: "AuditContext | None" = None
    ) -> None:
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if not (0.0 < eps <= 1.0):
            raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
        if reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {reps}")
        self.T = int(T)
        self.eps = float(eps)
        self.reps = int(reps)
        self.context = context
        self.slots_checked = 0
        self._rate = 1.0 - self.eps
        self._slot = 0
        self._J = np.zeros(reps, dtype=np.int64)
        # Chunks of rows (phi[s], J[s]) for the prefixes s = _folded, ...,
        # _slot not yet folded into the running minimum, oldest first.
        self._pending: deque[tuple[np.ndarray, np.ndarray]] = deque(
            [(np.zeros((1, reps)), np.zeros((1, reps), dtype=np.int64))]
        )
        self._min_phi = np.full(reps, np.inf)
        self._argmin = np.zeros(reps, dtype=np.int64)
        self._argmin_J = np.zeros(reps, dtype=np.int64)
        self._folded = 0
        self._cols = np.arange(reps)

    def observe_slot(
        self,
        slot: int,
        k: np.ndarray,
        jammed: np.ndarray,
        observed: np.ndarray,
        corrupted: "np.ndarray | None" = None,
        active: "np.ndarray | None" = None,
    ) -> None:
        """Audit one batched slot; arrays are all shape ``(reps,)``.

        *observed* uses the int8 state codes of the batched engine.  The
        budget is audited for every column (retired columns' budgets still
        advance in lockstep, exactly like the engine); channel consistency
        only for *active*, un-*corrupted* columns.
        """
        self.observe_block(
            slot,
            k[None],
            np.asarray(jammed)[None],
            observed[None],
            corrupted=None if corrupted is None else corrupted[None],
            active=None if active is None else active[None],
        )

    def observe_block(
        self,
        start: int,
        k: np.ndarray,
        jammed: np.ndarray,
        observed: np.ndarray,
        corrupted: "np.ndarray | None" = None,
        active: "np.ndarray | None" = None,
    ) -> None:
        """Audit slots ``start .. start+B-1`` (in slot order, after every
        earlier slot); row ``i`` of each ``(B, reps)`` array is slot
        ``start + i``, and *jammed* may be ``(B, 1)`` when every column
        shares its grants.  The checks, the error a violation raises and
        the state left behind are those of ``B`` :meth:`observe_slot`
        calls.
        """
        rows = k.shape[0]
        if jammed.shape != k.shape:
            jammed = np.broadcast_to(jammed, k.shape)
        J = self._J + np.cumsum(jammed, axis=0)
        ends = np.arange(self._slot + 1, self._slot + rows + 1)
        phi = J - self._rate * ends[:, None]
        # Slot ``e`` folds in every phi[s] with s <= e - T; by the block's
        # last slot that is the first ``fold`` pending rows.
        fold = max(0, int(ends[-1]) - self.T + 1 - self._folded)
        min_phi, argmin, argmin_J = self._min_phi, self._argmin, self._argmin_J
        over = None
        if fold:
            phis, Js, need = [], [], fold
            for phi_c, J_c in itertools.chain(self._pending, [(phi, J)]):
                phis.append(phi_c)
                Js.append(J_c)
                need -= len(phi_c)
                if need <= 0:
                    break
            folding = (phis[0] if len(phis) == 1 else np.concatenate(phis))[:fold]
            first = folding.argmin(axis=0)
            cols = self._cols
            best = folding[first, cols]
            # Strictly lower, as slot-by-slot folding keeps the earliest.
            better = best < min_phi
            min_phi = np.where(better, best, min_phi)
            argmin = np.where(better, self._folded + first, argmin)
            folding_J = Js[0] if len(Js) == 1 else np.concatenate(Js)
            argmin_J = np.where(better, folding_J[first, cols], argmin_J)
            checked = ends >= self.T
            bound = np.minimum(
                self._min_phi,
                np.minimum.accumulate(folding, axis=0)[
                    ends[checked] - self.T - self._folded
                ],
            )
            over = phi[checked] > bound + 1e-9
        check = np.ones(k.shape, dtype=bool) if active is None else active.copy()
        if corrupted is not None:
            check &= ~corrupted
        expected = np.where(
            jammed, np.int8(ChannelState.COLLISION), np.minimum(k, 2).astype(np.int8)
        )
        bad = check & (observed != expected)
        failed = (over is not None and over.any()) or bad.any()
        if failed and rows > 1:
            for i in range(rows):
                self.observe_block(
                    start + i,
                    k[i : i + 1],
                    jammed[i : i + 1],
                    observed[i : i + 1],
                    corrupted=None if corrupted is None else corrupted[i : i + 1],
                    active=None if active is None else active[i : i + 1],
                )
            return

        self._J = J[-1]
        self._slot += rows
        self._pending.append((phi, J))
        left = fold
        while left:
            phi_c, J_c = self._pending.popleft()
            if len(phi_c) > left:
                self._pending.appendleft((phi_c[left:], J_c[left:]))
                break
            left -= len(phi_c)
        self._min_phi, self._argmin, self._argmin_J = min_phi, argmin, argmin_J
        self._folded += fold
        if over is not None and over.any():
            c = int(np.argmax(over[0]))
            s = int(argmin[c])
            e = int(ends[0])
            violation = WindowViolation(
                start=s,
                end=e,
                jams=int(J[0, c] - argmin_J[c]),
                allowed=self._rate * (e - s),
            )
            _fail(
                self.context,
                "budget",
                f"column {c}: {violation.describe()}",
                violation.start,
                violation.end,
                column=c,
            )
        if failed:
            c = int(np.argmax(bad[0]))
            _fail(
                self.context,
                "channel",
                f"column {c}: k={int(k[0, c])}, jammed={bool(jammed[0, c])} "
                f"must be observed as state {int(expected[0, c])}, engine "
                f"delivered {int(observed[0, c])}",
                start,
                start + 1,
                column=c,
            )
        self.slots_checked += rows


class OverBudgetAdversary(Adversary):
    """A *cheating* adversary that ignores its budget's clamp decisions.

    Test/CI harness only: it keeps the budget accounting running (so
    ``jams_granted`` / ``denied_requests`` stay meaningful) but returns the
    strategy's raw intent, jamming even when the (T, 1-eps) budget said no.
    Driven with a saturating strategy it violates the definition within the
    first T slots -- the canonical way to prove the auditor actually trips.
    """

    def decide(self, view: AdversaryView) -> bool:
        want = self.strategy.wants_jam(view, self._rng)
        self.budget.grant(want)
        return want
