"""Drift analysis of the LESK estimator walk (Section 2.2 intuition).

The estimator ``u`` performs a biased random walk: ``-1`` on ``Null``,
``+1/a`` on observed ``Collision``.  With each station transmitting with
probability ``p = 2**-u``, the expected one-slot drift without jamming is::

    drift(u) = -P[Null] + P[Collision] / a

A jammed slot contributes ``+1/a`` deterministically, so the worst-case
drift under a jam-fraction ``q`` is
``(1-q) * drift(u) + q / a``.  The walk's attractor (where drift crosses
zero) sits below ``log2 n``; Lemma 2.4's regular band contains it for all
``q <= 1 - eps``, which is the mechanism behind Theorem 2.6.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.analysis.probabilities import p_collision, p_null, p_single
from repro.errors import ConfigurationError
from repro.protocols.base import probability_from_exponent

__all__ = ["expected_drift", "equilibrium_u", "predict_election_median"]


def expected_drift(u: float, n: int, a: float, jam_fraction: float = 0.0) -> float:
    """Expected one-slot change of ``u`` at position *u*.

    Parameters
    ----------
    u:
        Current estimator value (transmission probability ``2**-u``).
    n:
        Number of stations.
    a:
        Collision weight ``a = 8/eps``.
    jam_fraction:
        Long-run fraction ``q`` of slots the adversary jams; jammed slots
        always push ``+1/a``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if a <= 0:
        raise ConfigurationError(f"a must be > 0, got {a}")
    if not (0.0 <= jam_fraction <= 1.0):
        raise ConfigurationError(f"jam_fraction must be in [0,1], got {jam_fraction}")
    p = probability_from_exponent(u)
    clear = -p_null(n, p) + p_collision(n, p) / a
    return (1.0 - jam_fraction) * clear + jam_fraction / a


@lru_cache(maxsize=1024)
def equilibrium_u(
    n: int, a: float, jam_fraction: float = 0.0, tol: float = 1e-9
) -> float:
    """Zero-drift point of the walk, by bisection over ``u in [0, log2 n + 40]``.

    Drift is positive for small ``u`` (collisions dominate) and negative
    for large ``u`` (silences dominate) as long as ``jam_fraction < 1``;
    the crossing is unique because ``P[Null]`` increases and
    ``P[Collision]`` decreases monotonically in ``u``.

    Memoised: the result is a pure function of the arguments, and the
    size estimator's bisection over ``log2 n`` asks for the same integer
    ``n`` many times.
    """
    if jam_fraction >= 1.0:
        raise ConfigurationError("no equilibrium when every slot is jammed")
    lo, hi = 0.0, math.log2(max(n, 2)) + 40.0
    if expected_drift(lo, n, a, jam_fraction) <= 0.0:
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if expected_drift(mid, n, a, jam_fraction) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def predict_election_median(
    n: int,
    eps: float,
    jam_fraction: float = 0.0,
    quantile: float = 0.5,
    max_slots: int = 1_000_000,
) -> int:
    """Fluid-model prediction of LESK's election-time quantile.

    Replaces the stochastic walk by its expected drift (the "fluid"
    approximation: ``u`` follows its mean path, justified because the
    per-slot steps are small) and accumulates the exact per-slot Single
    probability along that path; returns the first slot where the survival
    probability drops below ``1 - quantile``.

    Despite its simplicity the model matches the measured medians of
    experiment T1 to within ~1 slot across four orders of magnitude in
    ``n`` (see ``tests/analysis/test_bounds_and_walks.py``) -- the climb
    phase is nearly deterministic, which is also why the measured T1
    variance is so small.

    Parameters
    ----------
    n, eps:
        Network size and LESK's parameter.
    jam_fraction:
        Long-run fraction of slots jammed (0 for a quiet channel); jams
        both suppress Singles and feed the drift's ``+1/a`` term.
    quantile:
        Which election-time quantile to return (0.5 = median).
    """
    if not (0.0 < quantile < 1.0):
        raise ConfigurationError(f"quantile must be in (0, 1), got {quantile}")
    if not (0.0 <= jam_fraction < 1.0):
        raise ConfigurationError(
            f"jam_fraction must be in [0, 1), got {jam_fraction}"
        )
    a = 8.0 / eps
    survival = 1.0
    u = 0.0
    for t in range(1, max_slots + 1):
        p = probability_from_exponent(u)
        p_single_clear = p_single(n, p) * (1.0 - jam_fraction)
        survival *= 1.0 - p_single_clear
        if survival <= 1.0 - quantile:
            return t
        u = max(0.0, u + expected_drift(u, n, a, jam_fraction))
    return max_slots
