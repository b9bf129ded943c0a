"""Online enforcement of the (T, 1-eps) jamming constraint.

Definition (Section 1.1): the adversary may jam at most ``(1-eps) * w`` out
of any ``w >= T`` contiguous time slots, for ``0 < eps < 1``.

Online enforcement
------------------
Let ``J[s]`` be the number of jammed slots among slots ``0 .. s-1`` (prefix
count).  The constraint over every *realized* window ``[s, e)`` with
``e - s >= T`` is ``J[e] - J[s] <= (1-eps) * (e - s)``.

Because the run length is not known in advance (the run ends when a leader
is elected), a sound online rule must also keep every *future* window
satisfiable.  A window ``[s, e)`` that contains the current slot ``t`` can
always be satisfied by refraining from jamming after ``t``; the binding
requirement at grant time is therefore, for every start ``s <= t``::

    jams in [s, t+1)  <=  (1-eps) * max(t+1-s, T)

i.e. windows shorter than ``T`` are padded to length ``T``.  Splitting on
whether ``t+1-s >= T`` gives two O(1)-per-slot checks:

* **(A) padded windows** (``s > t+1-T``): the count of jams in the trailing
  ``min(T, t+1)`` slots, including the requested one, must not exceed
  ``(1-eps) * T``.  Since ``J`` is non-decreasing the tightest start is the
  earliest one, ``max(0, t+1-T)``.  Once ``t+1 >= T`` that window
  ``[t+1-T, t+1)`` is a full window, checked by (B), so (A) only binds
  while ``t+1 < T``; its start is then slot 0 and ``J[0] = 0``, so it
  reads ``J[t+1] <= (1-eps) * T``.
* **(B) full windows** (``s <= t+1-T``): with the potential
  ``phi[s] = J[s] - (1-eps) * s`` the constraint reads
  ``phi[t+1] <= min_{s <= t+1-T} phi[s]``; the right-hand side is a lagged
  running minimum updated in O(1) per slot.

Every window of the finished run ends at some slot, so granting jams only
when (A) and (B) hold guarantees the final jam sequence is
(T, 1-eps)-bounded (verified post-hoc by
:func:`repro.adversary.validation.check_bounded`).  The rule is marginally
conservative for runs that end before a final partial window closes; this
is the sound side of the definition and is documented in DESIGN.md.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.errors import BudgetViolationError, ConfigurationError

__all__ = ["JammingBudget", "JammingBudgetArray"]


class JammingBudget:
    """Tracks jams granted so far and answers "may the adversary jam now?".

    Parameters
    ----------
    T:
        Window-size parameter of the adversary, ``T >= 1``.
    eps:
        Fraction of each window that must remain un-jammed, ``0 < eps < 1``.
        (``eps = 1`` is accepted and means "no jamming allowed at all in any
        window of length >= T", the degenerate limit.)
    strict:
        If true, :meth:`grant` raises :class:`BudgetViolationError` when a
        jam is requested but not allowed; otherwise it clamps silently.
    """

    def __init__(self, T: int, eps: float, strict: bool = False) -> None:
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if not (0.0 < eps <= 1.0):
            raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
        self.T = int(T)
        self.eps = float(eps)
        self.strict = strict
        self._rate = 1.0 - self.eps  # allowed jam fraction per window
        self._slot = 0  # next slot to be decided
        self._jams = 0  # J[slot]: jams granted so far
        self._denied = 0  # requests clamped (non-strict mode)
        # Lagged minimum of phi[s] = J[s] - rate*s over s <= slot - T + 1
        # ... maintained so that when deciding slot t it covers s <= t+1-T.
        self._min_phi_lagged = math.inf
        # phi values waiting to age into the lagged minimum: phi[s] enters
        # once s <= (t+1) - T, i.e. T slots after being produced.
        self._pending_phi: deque[float] = deque([0.0])  # phi[0] = 0
        # Number of phi values already folded into the lagged minimum; the
        # index of the first pending phi value is exactly this count.
        self._folded = 0

    # -- public API ---------------------------------------------------------

    @property
    def slot(self) -> int:
        """Index of the next slot to be decided."""
        return self._slot

    @property
    def jams_granted(self) -> int:
        return self._jams

    @property
    def denied_requests(self) -> int:
        return self._denied

    def can_jam(self) -> bool:
        """Would a jam request for the current slot be granted?"""
        return self._allowed(jam=True)

    def grant(self, want_jam: bool) -> bool:
        """Decide the current slot and advance to the next one.

        Returns the granted jam flag (clamped to the budget).  Must be
        called exactly once per slot, in slot order.
        """
        granted = bool(want_jam) and self._allowed(jam=True)
        if want_jam and not granted:
            if self.strict:
                raise BudgetViolationError(
                    f"jam request at slot {self._slot} exceeds (T={self.T}, "
                    f"1-eps={self._rate:.4g}) budget"
                )
            self._denied += 1
        self._advance(granted)
        return granted

    def grant_block(self, wants: np.ndarray) -> np.ndarray:
        """Decide ``len(wants)`` slots in order, exactly as that many
        :meth:`grant` calls would, and return their granted flags.

        For engines that decide a block of slots ahead of the slot loop;
        each stretch of slots without a jam request advances in one step.
        """
        granted = np.zeros(len(wants), dtype=bool)
        done = 0
        for i in np.flatnonzero(wants).tolist():
            self._advance_free(i - done)
            granted[i] = self.grant(True)
            done = i + 1
        self._advance_free(len(wants) - done)
        return granted

    # -- internals ----------------------------------------------------------

    def _allowed(self, jam: bool) -> bool:
        """Check conditions (A) and (B) for deciding the current slot."""
        t = self._slot
        new_prefix = self._jams + (1 if jam else 0)  # J[t+1]
        if t + 1 < self.T:
            # (A) the padded window [0, t+1); no full window has ended.
            return new_prefix <= self._rate * self.T + 1e-12
        # (B) all full windows ending at t+1.
        phi_new = new_prefix - self._rate * (t + 1)
        return phi_new <= self._lagged_min_for_end(t + 1) + 1e-12

    def _lagged_min_for_end(self, end: int) -> float:
        """min over s <= end - T of phi[s]; +inf when no full window exists."""
        if end < self.T:
            return math.inf
        # phi[s] values for s = 0 .. end-T must have been folded in.  The
        # pending deque holds phi[s] for s > (previously folded horizon).
        horizon = end - self.T  # largest s to include
        # The first pending value is phi[self._folded]; fold in those whose
        # index is <= horizon.
        while self._pending_phi and self._folded <= horizon:
            self._min_phi_lagged = min(self._min_phi_lagged, self._pending_phi.popleft())
            self._folded += 1
        return self._min_phi_lagged

    def _advance(self, granted: bool) -> None:
        self._jams += 1 if granted else 0
        self._slot += 1
        self._pending_phi.append(self._jams - self._rate * self._slot)  # phi[slot]

    def _advance_free(self, count: int) -> None:
        """*count* slots without a jam request: ``count`` :meth:`_advance`
        calls with nothing granted."""
        jams, rate, slot = self._jams, self._rate, self._slot
        self._pending_phi.extend(
            [jams - rate * s for s in range(slot + 1, slot + count + 1)]
        )
        self._slot = slot + count

    # -- introspection -------------------------------------------------------

    def headroom(self) -> int:
        """Maximum number of consecutive jams grantable starting now.

        Computed by simulating grants on a copy; cost O(answer).
        """
        clone = self.copy()
        count = 0
        while clone.can_jam():
            clone.grant(True)
            count += 1
            if count > clone.T + 1:  # can never exceed (1-eps)T consecutive
                break
        return count

    def copy(self) -> "JammingBudget":
        """Deep copy of the budget state (used by :meth:`headroom`)."""
        clone = JammingBudget(self.T, self.eps, strict=self.strict)
        clone._slot = self._slot
        clone._jams = self._jams
        clone._denied = self._denied
        clone._min_phi_lagged = self._min_phi_lagged
        clone._pending_phi = deque(self._pending_phi)
        clone._folded = self._folded
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JammingBudget(T={self.T}, eps={self.eps}, slot={self._slot}, "
            f"jams={self._jams})"
        )


class JammingBudgetArray:
    """:class:`JammingBudget` lifted to ``reps`` independent replications.

    All replications share the same ``(T, eps)`` parameters and advance in
    lockstep (the batched engine decides one global slot for every
    replication per :meth:`grant` call), but each column tracks its own jam
    history.  The enforcement rule is the same (A)/(B) pair of O(1) checks
    as the scalar class -- the prefix count and the lagged-min ``phi``
    recursion -- applied elementwise to ``(reps,)`` arrays, so a
    column's decisions are *identical* to a scalar :class:`JammingBudget`
    fed the same want-sequence (asserted exhaustively in
    ``tests/adversary/test_budget_array.py``).
    """

    def __init__(self, T: int, eps: float, reps: int, strict: bool = False) -> None:
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if not (0.0 < eps <= 1.0):
            raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
        if reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {reps}")
        self.T = int(T)
        self.eps = float(eps)
        self.reps = int(reps)
        self.strict = strict
        self._rate = 1.0 - self.eps
        self._slot = 0
        self._jams = np.zeros(self.reps, dtype=np.int64)
        self._denied = np.zeros(self.reps, dtype=np.int64)
        self._min_phi_lagged = np.full(self.reps, math.inf)
        self._pending_phi: deque[np.ndarray] = deque(
            [np.zeros(self.reps, dtype=np.float64)]
        )
        self._folded = 0

    # -- public API ---------------------------------------------------------

    @property
    def slot(self) -> int:
        """Index of the next slot to be decided (shared by all columns)."""
        return self._slot

    @property
    def jams_granted(self) -> np.ndarray:
        """Per-replication jam counts, shape ``(reps,)``."""
        return self._jams

    @property
    def denied_requests(self) -> np.ndarray:
        """Per-replication clamped-request counts, shape ``(reps,)``."""
        return self._denied

    def can_jam(self) -> np.ndarray:
        """Boolean mask of columns whose jam request would be granted now."""
        return self._allowed()

    def grant(self, want_jam: np.ndarray) -> np.ndarray:
        """Decide the current slot for every column and advance.

        ``want_jam`` is a ``(reps,)`` boolean mask of jam requests; the
        returned mask is the budget-clamped grants.  Must be called exactly
        once per slot, in slot order.
        """
        want = np.asarray(want_jam, dtype=bool)
        if want.shape != (self.reps,):
            raise ConfigurationError(
                f"want_jam must have shape ({self.reps},), got {want.shape}"
            )
        granted = want & self._allowed()
        # granted is a subset of want, so xor is the set difference.
        refused = want ^ granted
        if self.strict and refused.any():
            rep = int(np.flatnonzero(refused)[0])
            raise BudgetViolationError(
                f"jam request at slot {self._slot} (replication {rep}) exceeds "
                f"(T={self.T}, 1-eps={self._rate:.4g}) budget"
            )
        self._denied += refused
        # Rebind: an array handed out by jams_granted stays a snapshot.
        self._jams = self._jams + granted
        self._slot += 1
        self._pending_phi.append(self._jams - self._rate * self._slot)
        return granted

    def compact(self, keep: np.ndarray) -> None:
        """Drop every column not selected by ``keep`` (sorted index array).

        The surviving columns' decision streams are unchanged: conditions
        (A) and (B) are elementwise, so slicing every per-column array --
        including the pending/lagged ``phi`` state -- preserves each kept
        column's grant sequence exactly.
        """
        keep = np.asarray(keep, dtype=np.int64)
        self.reps = int(keep.size)
        self._jams = self._jams[keep]
        self._denied = self._denied[keep]
        self._min_phi_lagged = self._min_phi_lagged[keep]
        self._pending_phi = deque(col[keep] for col in self._pending_phi)

    # -- internals ----------------------------------------------------------

    def _allowed(self) -> np.ndarray:
        """Elementwise conditions (A) and (B) for jamming the current slot."""
        t = self._slot
        new_prefix = self._jams + 1  # J[t+1] if the jam were granted
        if t + 1 < self.T:
            # (A) the padded window [0, t+1); no full window has ended.
            return new_prefix <= self._rate * self.T + 1e-12
        # (B) all full windows ending at t+1.
        phi_new = new_prefix - self._rate * (t + 1)
        return phi_new <= self._lagged_min_for_end(t + 1) + 1e-12

    def _lagged_min_for_end(self, end: int):
        """Columnwise min over s <= end - T of phi[s]; +inf with no full window."""
        if end < self.T:
            return math.inf
        horizon = end - self.T
        while self._pending_phi and self._folded <= horizon:
            np.minimum(
                self._min_phi_lagged,
                self._pending_phi.popleft(),
                out=self._min_phi_lagged,
            )
            self._folded += 1
        return self._min_phi_lagged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JammingBudgetArray(T={self.T}, eps={self.eps}, reps={self.reps}, "
            f"slot={self._slot})"
        )
