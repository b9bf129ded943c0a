"""JammingBudgetArray column decisions must equal scalar JammingBudget.

The batched engine's soundness rests on the vectorized (A)/(B) enforcement
making *exactly* the decisions the scalar class would make for the same
want-sequence -- not just distributionally, but per slot.  We fuzz random
``(T, eps)`` configurations and want-sequences and compare every grant.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.adversary.budget import JammingBudget, JammingBudgetArray
from repro.adversary.validation import check_bounded
from repro.errors import BudgetViolationError, ConfigurationError


def scalar_grants(T: int, eps: float, wants: np.ndarray) -> np.ndarray:
    budget = JammingBudget(T=T, eps=eps)
    return np.asarray([budget.grant(bool(w)) for w in wants], dtype=bool)


def test_matches_scalar_on_100_random_configs():
    """Acceptance criterion: 100 random (T, eps) configs, random wants."""
    rng = np.random.default_rng(20150613)
    for _ in range(100):
        T = int(rng.integers(1, 40))
        eps = float(rng.uniform(0.05, 1.0))
        slots = int(rng.integers(T + 1, 200))
        want_rate = float(rng.uniform(0.0, 1.0))
        reps = 4
        wants = rng.random((slots, reps)) < want_rate

        array = JammingBudgetArray(T=T, eps=eps, reps=reps)
        granted = np.empty((slots, reps), dtype=bool)
        for t in range(slots):
            granted[t] = array.grant(wants[t])

        for r in range(reps):
            expect = scalar_grants(T, eps, wants[:, r])
            assert np.array_equal(granted[:, r], expect), (
                f"T={T}, eps={eps:.3f}, rep={r}: vector grants diverge "
                f"from scalar at slot {int(np.argmax(granted[:, r] != expect))}"
            )
        # Cross-check the counters too.
        scalar = JammingBudget(T=T, eps=eps)
        for t in range(slots):
            scalar.grant(bool(wants[t, 0]))
        assert int(array.jams_granted[0]) == scalar.jams_granted
        assert int(array.denied_requests[0]) == scalar.denied_requests


def test_granted_patterns_are_bounded():
    """Every column's granted pattern satisfies the (T, 1-eps) definition."""
    rng = np.random.default_rng(7)
    T, eps, reps, slots = 16, 0.4, 8, 400
    array = JammingBudgetArray(T=T, eps=eps, reps=reps)
    granted = np.empty((slots, reps), dtype=bool)
    for t in range(slots):
        granted[t] = array.grant(np.ones(reps, dtype=bool) if t % 3 else rng.random(reps) < 0.5)
    for r in range(reps):
        assert check_bounded(granted[:, r].tolist(), T=T, eps=eps)


def test_can_jam_matches_next_grant():
    rng = np.random.default_rng(3)
    array = JammingBudgetArray(T=8, eps=0.5, reps=6)
    for t in range(100):
        can = array.can_jam().copy()
        got = array.grant(np.ones(6, dtype=bool))
        assert np.array_equal(can, got)
        # Interleave some idle slots.
        if rng.random() < 0.3:
            array.grant(np.zeros(6, dtype=bool))


def test_strict_mode_raises_with_rep_index():
    array = JammingBudgetArray(T=4, eps=0.9, reps=3, strict=True)
    with pytest.raises(BudgetViolationError, match="replication"):
        for _ in range(10):
            array.grant(np.ones(3, dtype=bool))


def test_validation():
    with pytest.raises(ConfigurationError):
        JammingBudgetArray(T=0, eps=0.5, reps=2)
    with pytest.raises(ConfigurationError):
        JammingBudgetArray(T=4, eps=0.0, reps=2)
    with pytest.raises(ConfigurationError):
        JammingBudgetArray(T=4, eps=0.5, reps=0)
    array = JammingBudgetArray(T=4, eps=0.5, reps=2)
    with pytest.raises(ConfigurationError):
        array.grant(np.ones(3, dtype=bool))


class BufferedRule:
    """Reference: the (A)/(B) rule with (A) checked in every slot against a
    rolling buffer of the last ``T`` prefix counts ``J[max(0, t+1-T)]``."""

    def __init__(self, T: int, eps: float) -> None:
        self.T, self.rate = T, 1.0 - eps
        self.slot = self.jams = self.folded = 0
        self.recent = deque([0], maxlen=T)
        self.pending = deque([0.0])
        self.min_phi = math.inf

    def grant(self, want: bool) -> bool:
        t, new = self.slot, self.jams + 1
        ok = want and new - self.recent[0] <= self.rate * self.T + 1e-12
        if ok and t + 1 >= self.T:
            while self.folded <= t + 1 - self.T:
                self.min_phi = min(self.min_phi, self.pending.popleft())
                self.folded += 1
            ok = new - self.rate * (t + 1) <= self.min_phi + 1e-12
        self.jams += ok
        self.slot += 1
        self.recent.append(self.jams)
        self.pending.append(self.jams - self.rate * self.slot)
        return ok


@pytest.mark.parametrize(
    "T, eps", [(3, 0.3), (7, 0.7), (16, 0.3), (16, 0.5), (100, 0.7), (1000, 0.3)]
)
def test_grants_match_buffered_rule(T, eps):
    """Checking (A) only while ``t + 1 < T`` grants exactly what the
    buffered rule grants, over runs long enough for (B)'s float rounding
    to grow, on both budget classes."""
    slots, densities = 20_000, np.array([0.2, 0.6, 0.9, 1.0])
    wants = np.random.default_rng([T, round(eps * 10)]).random(
        (slots, densities.size)
    ) < densities
    array = JammingBudgetArray(T=T, eps=eps, reps=densities.size)
    vector = np.array([array.grant(w) for w in wants])
    for col in range(densities.size):
        reference = BufferedRule(T, eps)
        expect = np.array([reference.grant(bool(w)) for w in wants[:, col]])
        assert expect.any() and not expect.all()
        np.testing.assert_array_equal(scalar_grants(T, eps, wants[:, col]), expect)
        np.testing.assert_array_equal(vector[:, col], expect)
