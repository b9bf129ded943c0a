"""Post-hoc validation of jam sequences against the paper's definition.

:func:`check_bounded` verifies the *exact* definition of a
(T, 1-eps)-bounded adversary -- at most ``(1-eps) * w`` jams in every
realized window of ``w >= T`` contiguous slots -- in O(len * ...) using a
prefix-sum reformulation that is O(len) per window length class, and
overall O(len) via the potential argument below.

Used by property-based tests to certify that the online budget
(:class:`repro.adversary.budget.JammingBudget`) never lets a violation
through, and by experiments to report realized jam intensity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_bounded",
    "max_window_violation",
    "WindowViolation",
    "WindowAuditor",
]


@dataclass(frozen=True, slots=True)
class WindowViolation:
    """Structured description of one offending window.

    Everything a violation report needs: where the window sits
    (``[start, end)``), how many of its slots were jammed, and how many the
    (T, 1-eps) definition would have allowed.  Returned by
    :func:`max_window_violation` and :class:`WindowAuditor`.
    """

    start: int
    end: int  # exclusive
    jams: int
    allowed: float

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def excess(self) -> float:
        """Jams beyond the allowed maximum (positive for a real violation)."""
        return self.jams - self.allowed

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"window [{self.start}, {self.end}) of length {self.length}: "
            f"{self.jams} jams > {self.allowed:.4g} allowed"
        )


def _prefix(jams: np.ndarray) -> np.ndarray:
    j = np.asarray(jams, dtype=np.int64)
    out = np.zeros(len(j) + 1, dtype=np.int64)
    np.cumsum(j, out=out[1:])
    return out


def max_window_violation(
    jams: "np.ndarray | list[bool]", T: int, eps: float
) -> WindowViolation | None:
    """Return the worst-violating window ``[s, e)`` with ``e - s >= T``,
    or ``None`` if the sequence is (T, 1-eps)-bounded.

    The check maximizes ``J[e] - J[s] - (1-eps)(e - s)`` over ``e - s >= T``.
    Writing ``phi[i] = J[i] - (1-eps) * i``, this is
    ``max_e (phi[e] - min_{s <= e-T} phi[s])``, computable in one pass with
    a lagged running minimum -- the same potential used by the online
    budget, here applied to the completed sequence.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if not (0.0 < eps <= 1.0):
        raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
    J = _prefix(np.asarray(jams, dtype=bool))
    L = len(J) - 1
    if L < T:
        return None  # no realized window of length >= T
    rate = 1.0 - eps
    phi = J - rate * np.arange(L + 1)
    # prefix minima of phi and their argmins, lagged by T.
    prefix_min = np.minimum.accumulate(phi)
    # argmin tracking
    argmin = np.zeros(L + 1, dtype=np.int64)
    best = phi[0]
    bi = 0
    for i in range(1, L + 1):
        if phi[i] < best:
            best = phi[i]
            bi = i
        argmin[i] = bi
    ends = np.arange(T, L + 1)
    slack = phi[ends] - prefix_min[ends - T]
    worst = int(np.argmax(slack))
    # Tolerance: (1-eps)*w is real-valued; the definition "at most (1-eps)w"
    # permits equality, so only strict excess (beyond float noise) counts.
    if slack[worst] <= 1e-9:
        return None
    e = int(ends[worst])
    s = int(argmin[e - T])
    jams_in = int(J[e] - J[s])
    return WindowViolation(start=s, end=e, jams=jams_in, allowed=rate * (e - s))


def check_bounded(jams: "np.ndarray | list[bool]", T: int, eps: float) -> bool:
    """True iff the jam sequence satisfies the (T, 1-eps) definition."""
    return max_window_violation(jams, T, eps) is None


class WindowAuditor:
    """Online (T, 1-eps) compliance detector: O(1) amortized per slot.

    The detection counterpart of the *enforcing*
    :class:`repro.adversary.budget.JammingBudget`: instead of clamping jam
    requests it is fed the **granted** jam flags after the fact and reports
    the first window ``[s, e)`` with ``e - s >= T`` whose jam count exceeds
    ``(1-eps) * (e - s)``.  Used by the runtime invariant auditor
    (:mod:`repro.resilience.auditor`) to verify that whatever produced the
    jam sequence -- a budget harness, a replayed trace, a batched mask --
    actually honored the paper's definition.

    Detection reuses the potential reformulation of the post-hoc
    :func:`max_window_violation`: with ``phi[i] = J[i] - (1-eps) * i`` a
    violating window ending at ``e`` exists iff
    ``phi[e] > min_{s <= e-T} phi[s]`` (full windows).  Unlike enforcement,
    windows shorter than ``T`` are *not* padded: the definition only
    constrains realized windows of length >= T.
    """

    __slots__ = (
        "T",
        "eps",
        "_rate",
        "_slot",
        "_jams",
        "_pending",
        "_min_phi",
        "_argmin",
        "_argmin_prefix",
        "_folded",
    )

    def __init__(self, T: int, eps: float) -> None:
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if not (0.0 < eps <= 1.0):
            raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
        self.T = int(T)
        self.eps = float(eps)
        self._rate = 1.0 - self.eps
        self._slot = 0  # next slot to be appended
        self._jams = 0  # prefix count J[slot]
        # (phi[s], J[s]) pairs waiting to age into the lagged minimum
        # (phi[s] becomes eligible once s <= e - T); seeded with s = 0.
        self._pending: deque[tuple[float, int]] = deque([(0.0, 0)])
        self._min_phi = math.inf
        self._argmin = 0  # index s achieving the lagged minimum
        self._argmin_prefix = 0  # J[argmin]
        self._folded = 0  # index of the first pending phi value

    @property
    def slot(self) -> int:
        """Index of the next slot to be appended."""
        return self._slot

    @property
    def jams_seen(self) -> int:
        return self._jams

    def append(self, jammed: bool) -> WindowViolation | None:
        """Record one granted jam flag; return the violation it completes.

        Returns ``None`` while the sequence remains (T, 1-eps)-bounded.  On
        violation, the returned window ends at the just-appended slot and
        starts at the prefix-minimum argmin, i.e. it is the *most* violating
        window ending here.
        """
        self._jams += 1 if jammed else 0
        self._slot += 1
        e = self._slot
        self._pending.append((self._jams - self._rate * e, self._jams))
        if e < self.T:
            return None
        # Fold phi[s] for all s <= e - T into the lagged minimum.
        horizon = e - self.T
        while self._folded <= horizon:
            phi_s, prefix_s = self._pending.popleft()
            if phi_s < self._min_phi:
                self._min_phi = phi_s
                self._argmin = self._folded
                self._argmin_prefix = prefix_s
            self._folded += 1
        phi_e = self._jams - self._rate * e
        # Tolerance mirrors max_window_violation: equality is permitted.
        if phi_e <= self._min_phi + 1e-9:
            return None
        s = self._argmin
        jams_in = self._jams - self._argmin_prefix
        return WindowViolation(
            start=s, end=e, jams=jams_in, allowed=self._rate * (e - s)
        )
