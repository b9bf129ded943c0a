"""Tests for repro.rng, repro.sim.metrics and the small shared types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.rng import derive_seed, make_rng, spawn, spawn_many
from repro.sim.metrics import EnergyStats, RunResult


class TestMakeRng:
    def test_accepts_int_seed(self):
        a, b = make_rng(7), make_rng(7)
        assert a.random() == b.random()

    def test_passes_through_generator(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_none_gives_fresh_entropy(self):
        assert make_rng(None).random() != make_rng(None).random()


class TestSpawning:
    def test_children_are_independent_and_deterministic(self):
        kids_a = spawn_many(make_rng(5), 3)
        kids_b = spawn_many(make_rng(5), 3)
        for ka, kb in zip(kids_a, kids_b):
            assert ka.random() == kb.random()
        draws = {round(k.random(), 12) for k in spawn_many(make_rng(5), 8)}
        assert len(draws) == 8

    def test_spawn_single(self):
        child = spawn(make_rng(2))
        assert isinstance(child, np.random.Generator)

    def test_spawn_zero(self):
        assert spawn_many(make_rng(1), 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_many(make_rng(1), -1)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_path_sensitivity(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(2, 2)

    @given(root=st.integers(min_value=0, max_value=2**31), a=st.integers(0, 100))
    def test_derived_seed_is_valid_63_bit(self, root, a):
        s = derive_seed(root, a)
        assert 0 <= s < 2**63


class TestEnergyStats:
    def test_totals(self):
        e = EnergyStats(transmissions=10, listening=30)
        assert e.total == 40
        assert e.transmissions_per_station(5) == 2.0
        assert e.listening_per_station(5) == 6.0

    def test_per_station_rejects_nonpositive_n(self):
        from repro.errors import ConfigurationError

        e = EnergyStats(transmissions=10, listening=30)
        for n in (0, -3):
            with pytest.raises(ConfigurationError):
                e.transmissions_per_station(n)
            with pytest.raises(ConfigurationError):
                e.listening_per_station(n)


class TestRunResult:
    def test_require_elected_passes_through(self):
        r = RunResult(n=4, slots=10, elected=True, leader=2)
        assert r.require_elected() is r
        assert r.election_slot == r.first_single_slot

    def test_require_elected_raises(self):
        r = RunResult(n=4, slots=10, elected=False)
        with pytest.raises(SimulationError):
            r.require_elected()

    def test_require_elected_distinguishes_timeout_from_budget_end(self):
        timed = RunResult(
            n=4, slots=10, elected=False, timed_out=True, jams=7, jam_denied=2
        )
        with pytest.raises(SimulationError, match="timed out") as exc:
            timed.require_elected()
        msg = str(exc.value)
        assert "jams=7" in msg and "jam_denied=2" in msg and "timed_out=True" in msg

        ended = RunResult(
            n=4, slots=10, elected=False, timed_out=False, jams=3, jam_denied=0
        )
        with pytest.raises(SimulationError, match="without a successful Single") as exc:
            ended.require_elected()
        msg = str(exc.value)
        assert "timed out" not in msg
        assert "jams=3" in msg and "timed_out=False" in msg
