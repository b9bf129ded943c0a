"""Tests for online (T, 1-eps) budget enforcement (repro.adversary.budget).

The central safety property: **whatever** sequence of jam requests a
strategy makes, the granted sequence satisfies the paper's definition --
at most ``(1-eps) * w`` jams in every realized window of ``w >= T``
contiguous slots.  Verified against the independent post-hoc checker.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary.budget import JammingBudget
from repro.adversary.validation import check_bounded, max_window_violation
from repro.errors import BudgetViolationError, ConfigurationError


class TestConstruction:
    def test_rejects_bad_T(self):
        with pytest.raises(ConfigurationError):
            JammingBudget(0, 0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ConfigurationError):
            JammingBudget(8, eps)

    def test_eps_one_allows_no_jamming(self):
        budget = JammingBudget(4, 1.0)
        assert not budget.can_jam()
        assert budget.grant(True) is False


class TestBasicAccounting:
    def test_grant_advances_slot(self):
        budget = JammingBudget(8, 0.5)
        budget.grant(False)
        budget.grant(True)
        assert budget.slot == 2
        assert budget.jams_granted == 1

    def test_denied_requests_counted(self):
        budget = JammingBudget(4, 0.5)  # at most 2 jams per 4-window
        outcomes = [budget.grant(True) for _ in range(4)]
        assert outcomes == [True, True, False, False]
        assert budget.denied_requests == 2

    def test_strict_mode_raises(self):
        budget = JammingBudget(2, 0.5, strict=True)
        budget.grant(True)
        with pytest.raises(BudgetViolationError):
            budget.grant(True)

    def test_budget_replenishes_after_window(self):
        budget = JammingBudget(4, 0.5)
        granted = [budget.grant(True) for _ in range(200)]
        # Front-loaded: the first window gets its full allowance at once...
        assert granted[:2] == [True, True]
        # ...then the greedy pattern settles to a steady state, never
        # exceeding 2 jams in any 4 consecutive slots.  Note the long-run
        # density is *below* 1-eps = 0.5: the w=5 windows only admit
        # floor(2.5) = 2 jams, capping the density at 2/5 -- a consequence
        # of the definition quantifying over every w >= T.
        counts = np.convolve(np.array(granted, dtype=int), np.ones(4, dtype=int), "valid")
        assert counts.max() <= 2
        assert sum(granted) == pytest.approx(0.4 * len(granted), abs=3)

    def test_can_jam_is_side_effect_free(self):
        budget = JammingBudget(4, 0.5)
        before = budget.can_jam()
        after = budget.can_jam()
        assert before == after
        assert budget.slot == 0


class TestFrontLoading:
    def test_cannot_overjam_opening_window(self):
        """Even before T slots have elapsed, jams are limited to (1-eps)T
        because the window [0, T) will eventually close."""
        budget = JammingBudget(10, 0.4)  # 6 jams allowed per 10-window
        granted = sum(budget.grant(True) for _ in range(10))
        assert granted == 6

    def test_consecutive_jam_cap(self):
        budget = JammingBudget(100, 0.1)
        run = 0
        while budget.can_jam():
            budget.grant(True)
            run += 1
        assert run == 90  # floor((1-eps) * T)

    def test_headroom_matches_actual_grants(self):
        budget = JammingBudget(16, 0.3)
        for want in [True, False, True, True, False]:
            budget.grant(want)
        head = budget.headroom()
        grants = 0
        while budget.can_jam():
            budget.grant(True)
            grants += 1
        assert head == grants


class TestCopySemantics:
    def test_copy_is_independent(self):
        budget = JammingBudget(8, 0.5)
        budget.grant(True)
        clone = budget.copy()
        clone.grant(True)
        assert budget.slot == 1
        assert clone.slot == 2
        assert budget.jams_granted == 1
        assert clone.jams_granted == 2


@given(
    requests=st.lists(st.booleans(), min_size=1, max_size=300),
    T=st.integers(min_value=1, max_value=40),
    eps=st.floats(min_value=0.05, max_value=0.95),
)
def test_granted_sequence_is_always_bounded(requests, T, eps):
    """Safety: clamped output satisfies the exact paper definition."""
    budget = JammingBudget(T, eps)
    granted = [budget.grant(want) for want in requests]
    assert check_bounded(granted, T, eps), max_window_violation(granted, T, eps)


@given(
    requests=st.lists(st.booleans(), min_size=1, max_size=300),
    blocks=st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=6),
    T=st.integers(min_value=1, max_value=40),
    eps=st.floats(min_value=0.05, max_value=1.0),
)
def test_grant_block_equals_successive_grants(requests, blocks, T, eps):
    """Granting blocks of wants decides each slot as slot-by-slot grants
    do, whatever the block boundaries, returns those grants, and leaves
    the same budget state."""
    slotwise = JammingBudget(T, eps)
    blockwise = JammingBudget(T, eps)
    start = 0
    for size in itertools.cycle(blocks):
        if start >= len(requests):
            break
        wants = requests[start : start + size]
        expected = [slotwise.grant(want) for want in wants]
        granted = blockwise.grant_block(np.array(wants, dtype=bool))
        assert granted.dtype == bool and granted.tolist() == expected
        start += len(wants)
        assert (blockwise.slot, blockwise.jams_granted, blockwise.denied_requests) == (
            slotwise.slot,
            slotwise.jams_granted,
            slotwise.denied_requests,
        )
    # The state ahead is the same too: a saturating tail is granted alike.
    tail = [slotwise.grant(True) for _ in range(2 * T + 1)]
    assert [blockwise.grant(True) for _ in range(2 * T + 1)] == tail


@given(
    T=st.integers(min_value=1, max_value=30),
    eps=st.floats(min_value=0.05, max_value=0.95),
    length=st.integers(min_value=1, max_value=400),
)
def test_saturating_grants_maximal_density(T, eps, length):
    """Liveness: an always-requesting adversary achieves the full
    floor((1-eps)T) jams in every complete T-window."""
    budget = JammingBudget(T, eps)
    granted = np.array([budget.grant(True) for _ in range(length)])
    per_window = int((1.0 - eps) * T)
    if length >= T:
        counts = np.convolve(granted.astype(int), np.ones(T, dtype=int), "valid")
        assert counts.max() <= per_window
        # The greedy pattern packs the full allowance into window [0, T).
        assert counts[0] == per_window


@given(
    data=st.data(),
    T=st.integers(min_value=2, max_value=24),
    eps=st.floats(min_value=0.1, max_value=0.9),
)
def test_grant_never_denies_legal_request(data, T, eps):
    """Completeness: if appending a jam would keep the whole sequence
    bounded (including the padded future-window rule), grant() allows it.

    We verify by cross-checking each decision against the post-hoc checker
    on the hypothetical extended sequence, padded with T zeros (the
    feasibility interpretation -- see budget.py docstring)."""
    budget = JammingBudget(T, eps)
    granted: list[bool] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=120))):
        hypothetical = granted + [True] + [False] * T
        legal = check_bounded(hypothetical, T, eps)
        want = data.draw(st.booleans())
        got = budget.grant(want)
        assert got == (want and legal)
        granted.append(got)
