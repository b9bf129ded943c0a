"""Tests for the applications layer (size estimation, k-selection, fair use)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.walks import equilibrium_u
from repro.applications.fair_use import FairUseReport, jain_index, simulate_fair_use
from repro.applications.k_selection import select_k_leaders
from repro.applications.size_estimation import (
    estimate_loglog_size,
    estimate_size_walk,
)
from repro.errors import ConfigurationError


class TestSizeWalkEstimator:
    @pytest.mark.parametrize("n", [64, 1024, 2**14])
    def test_estimate_within_bracket_no_adversary(self, n):
        est = estimate_size_walk(n=n, eps=0.5, T=16, adversary="none", seed=1)
        assert est.n_low <= n <= est.n_high
        assert est.log2_estimate == pytest.approx(math.log2(n), abs=2.5)

    @pytest.mark.parametrize("adversary", ["saturating", "silence-masker"])
    def test_estimate_survives_jamming(self, adversary):
        n = 1024
        est = estimate_size_walk(n=n, eps=0.5, T=16, adversary=adversary, seed=2)
        assert est.n_low <= n <= est.n_high
        assert est.jams > 0 or adversary == "silence-masker"

    def test_needs_two_stations(self):
        with pytest.raises(ConfigurationError):
            estimate_size_walk(n=1)

    def test_reproducible(self):
        a = estimate_size_walk(n=256, seed=3)
        b = estimate_size_walk(n=256, seed=3)
        assert a.log2_estimate == b.log2_estimate

    def test_inversion_reuses_equilibria(self):
        # The bisection over log2 n rounds each midpoint to an integer n,
        # so most of its equilibrium_u calls repeat an earlier argument.
        equilibrium_u.cache_clear()
        first = estimate_size_walk(n=256, seed=3)
        info = equilibrium_u.cache_info()
        assert info.hits > info.misses > 0
        assert estimate_size_walk(n=256, seed=3) == first
        assert equilibrium_u.cache_info().misses == info.misses


class TestLogLogEstimator:
    def test_bracket_contains_n(self):
        est = estimate_loglog_size(n=2**16, seed=4)
        assert est.n_low <= 2**16 <= est.n_high

    def test_runtime_scales_with_log_n(self):
        small = estimate_loglog_size(n=2**8, seed=5)
        large = estimate_loglog_size(n=2**20, seed=5)
        assert small.slots < large.slots


class TestKSelection:
    def test_selects_k_distinct_leaders(self):
        result = select_k_leaders(n=200, k=7, adversary="none", seed=6)
        assert result.k == 7
        assert len(set(result.leaders)) == 7
        assert all(0 <= sid < 200 for sid in result.leaders)
        assert list(result.win_slots) == sorted(result.win_slots)

    def test_under_jamming(self):
        result = select_k_leaders(n=100, k=3, adversary="saturating", seed=7)
        assert result.k == 3
        assert result.jams > 0

    def test_warm_start_makes_later_wins_cheap(self):
        """After the first win the estimator is calibrated: subsequent
        winners arrive much faster than the first."""
        result = select_k_leaders(n=2048, k=5, adversary="none", seed=8)
        first = result.win_slots[0]
        gaps = [
            b - a for a, b in zip(result.win_slots, list(result.win_slots)[1:])
        ]
        assert max(gaps) < first

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            select_k_leaders(n=5, k=5)
        with pytest.raises(ConfigurationError):
            select_k_leaders(n=5, k=0)


class TestFairUse:
    def test_jain_index_bounds(self):
        assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
        with pytest.raises(ConfigurationError):
            jain_index([])

    def test_report_fields(self):
        report = simulate_fair_use(n=20, adversary="none", cycles=4, seed=9)
        assert isinstance(report, FairUseReport)
        assert report.leader is not None
        assert report.tdma_slots == 80
        assert report.tdma_loss == 0.0
        assert report.tdma_fairness == pytest.approx(1.0)
        assert all(d == 4 for d in report.deliveries)

    def test_jamming_costs_loss_but_fairness_degrades_gracefully(self):
        report = simulate_fair_use(n=16, adversary="saturating", cycles=8, seed=10)
        assert 0.0 < report.tdma_loss < 1.0
        # Each station still gets ~eps of its share: fairness stays high.
        assert report.tdma_fairness > 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_fair_use(n=1)
        with pytest.raises(ConfigurationError):
            simulate_fair_use(n=4, cycles=0)


class TestWeakCDKSelection:
    def test_selects_k_distinct_leaders(self):
        from repro.applications import select_k_leaders_weak_cd

        result = select_k_leaders_weak_cd(n=40, k=3, adversary="saturating", seed=20)
        assert result.k == 3
        assert len(set(result.leaders)) == 3
        assert list(result.win_slots) == sorted(result.win_slots)

    def test_each_round_pays_full_notification_cost(self):
        from repro.applications import select_k_leaders, select_k_leaders_weak_cd

        weak = select_k_leaders_weak_cd(n=40, k=2, seed=21)
        strong = select_k_leaders(n=40, k=2, seed=21)
        # Weak-CD rounds cannot share estimator state: far more expensive.
        assert weak.slots > 3 * strong.slots

    def test_validation(self):
        from repro.applications import select_k_leaders_weak_cd

        with pytest.raises(ConfigurationError):
            select_k_leaders_weak_cd(n=5, k=3)  # n - k < 3
