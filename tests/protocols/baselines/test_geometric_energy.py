"""Tests for the sleep-capable geometric-level election baseline."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.adversary.suite import make_adversary
from repro.errors import ConfigurationError
from repro.protocols.baselines.geometric_energy import (
    GeometricLevelStation,
    confirmation_slots,
    round_length,
)
from repro.sim.engine import simulate_stations
from repro.sim.metrics import RunResult
from repro.types import Action, CDMode, PerceivedState, SlotFeedback


def fb(transmitted: bool, perceived: PerceivedState) -> SlotFeedback:
    return SlotFeedback(transmitted=transmitted, perceived=perceived)


def run_election(n, adversary="none", seed=0, max_slots=100_000, T=8, eps=0.5):
    stations = [GeometricLevelStation() for _ in range(n)]
    adv = make_adversary(adversary, T=T, eps=eps)
    return (
        simulate_stations(
            stations,
            adversary=adv,
            cd_mode=CDMode.STRONG,
            max_slots=max_slots,
            seed=seed,
        ),
        stations,
    )


class TestRoundStructure:
    def test_round_length(self):
        assert round_length(4) == 5
        with pytest.raises(ConfigurationError):
            round_length(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GeometricLevelStation(initial_guess=0)
        with pytest.raises(ConfigurationError):
            GeometricLevelStation().begin_slot(0)

    def test_station_transmits_exactly_once_per_sweep(self):
        st = GeometricLevelStation(initial_guess=4)
        st.reset(0, np.random.default_rng(1))
        actions = []
        for slot in range(4):  # the sweep of round 1
            actions.append(st.begin_slot(slot))
            st.end_slot(slot, fb(actions[-1] is Action.TRANSMIT, PerceivedState.NULL))
        assert actions.count(Action.TRANSMIT) == 1
        assert actions.count(Action.SLEEP) == 3

    def test_everyone_listens_at_confirmation(self):
        st = GeometricLevelStation(initial_guess=2)
        st.reset(0, np.random.default_rng(2))
        for slot in range(2):
            a = st.begin_slot(slot)
            st.end_slot(slot, fb(a is Action.TRANSMIT, PerceivedState.COLLISION))
        assert st.begin_slot(2) in (Action.LISTEN, Action.TRANSMIT)

    def test_failed_confirmation_doubles_guess(self):
        st = GeometricLevelStation(initial_guess=2)
        st.reset(0, np.random.default_rng(3))
        for slot in range(3):  # full round: 2 sweep + 1 confirm, all collide
            a = st.begin_slot(slot)
            st.end_slot(slot, fb(a is Action.TRANSMIT, PerceivedState.COLLISION))
        assert st._guess == 4
        assert st.rounds_played == 2

    def test_sweep_single_makes_round_winner_and_confirm_elects(self):
        st = GeometricLevelStation(initial_guess=2)
        st.reset(0, np.random.default_rng(4))
        won_sweep = False
        for slot in range(2):
            a = st.begin_slot(slot)
            if a is Action.TRANSMIT:
                st.end_slot(slot, fb(True, PerceivedState.SINGLE))
                won_sweep = True
            else:
                st.end_slot(slot, fb(False, PerceivedState.UNKNOWN))
        assert won_sweep  # level clamped to <= guess: always one transmit slot
        assert st.begin_slot(2) is Action.TRANSMIT  # confirmation
        st.end_slot(2, fb(True, PerceivedState.SINGLE))
        assert st.done and st.is_leader is True

    def test_listener_hears_confirmation(self):
        st = GeometricLevelStation(initial_guess=2)
        st.reset(0, np.random.default_rng(5))
        for slot in range(2):
            a = st.begin_slot(slot)
            st.end_slot(slot, fb(a is Action.TRANSMIT, PerceivedState.COLLISION))
        assert st.begin_slot(2) is Action.LISTEN
        st.end_slot(2, fb(False, PerceivedState.SINGLE))
        assert st.done and st.is_leader is False


class TestEndToEnd:
    @pytest.mark.parametrize("n", [4, 32, 256])
    def test_elects_exactly_one_leader(self, n):
        result, _ = run_election(n, seed=n)
        assert result.elected
        assert result.leaders_count == 1
        assert result.all_terminated

    def test_energy_is_sublogarithmic(self):
        """The whole point: per-station energy ~ rounds (loglog n), while
        LESK spends ~slots (log n) just listening."""
        n = 512
        result, stations = run_election(n, seed=9)
        assert result.elected
        per_station_energy = result.energy.total / n
        # LESK at this size runs ~120 slots, i.e. ~120 energy/station.
        assert per_station_energy < 25
        rounds = stations[0].rounds_played
        assert per_station_energy <= 3 * rounds + 3

    def test_fragile_under_confirmation_jamming(self):
        """The energy-vs-robustness trade-off: the round schedule is public
        and deterministic, so the confirmation slots are a precomputable
        jamming target.  They are sparse (one per round), so the budget
        grants every such jam -- and the protocol can never confirm."""
        from repro.adversary.base import Adversary, as_strategy
        from repro.protocols.baselines.geometric_energy import confirmation_slots

        cap = 3_000
        confirms = confirmation_slots(2, cap)
        strategy = as_strategy(
            lambda view, rng: view.slot in confirms, "confirmation-jammer"
        )
        adv = Adversary(strategy, T=16, eps=0.4, seed=1)
        stations = [GeometricLevelStation() for _ in range(64)]
        jammed = simulate_stations(
            stations, adversary=adv, cd_mode=CDMode.STRONG, max_slots=cap, seed=11
        )
        assert not jammed.elected
        # Sanity: every jam request was within budget (confirms are sparse).
        assert jammed.jam_denied == 0

        quiet, _ = run_election(64, adversary="none", seed=11)
        assert quiet.elected  # same protocol, same seed, no jamming


class TestFastCrossValidation:
    """The histogram-vectorized simulator is distributionally identical."""

    # Runs may time out under jamming (the protocol's documented
    # fragility); both engines censor at the same cap, so the censored
    # slot distributions remain comparable.
    CAP = 100_000

    def _fast(self, adversary, reps=80, n=48):
        from repro.protocols.baselines.geometric_fast import simulate_geometric_fast

        out = []
        for seed in range(reps):
            r = simulate_geometric_fast(
                n,
                make_adversary(adversary, T=8, eps=0.5),
                max_slots=self.CAP,
                seed=seed,
            )
            out.append(min(r.slots, self.CAP))
        return np.asarray(out, dtype=float)

    def _faithful(self, adversary, reps=80, n=48):
        out = []
        for seed in range(reps):
            result, _ = run_election(
                n, adversary=adversary, seed=40_000 + seed, max_slots=self.CAP
            )
            out.append(min(result.slots, self.CAP))
        return np.asarray(out, dtype=float)

    @pytest.mark.parametrize("adversary", ["none", "saturating"])
    def test_time_distributions_agree(self, adversary):
        from scipy import stats

        fast = self._fast(adversary)
        faithful = self._faithful(adversary)
        ks = stats.ks_2samp(fast, faithful)
        assert ks.pvalue > 1e-4, (
            f"geometric fast vs faithful diverge under {adversary}: "
            f"p={ks.pvalue:.2e}"
        )

    def test_energy_agrees(self):
        from repro.protocols.baselines.geometric_fast import simulate_geometric_fast

        n = 64
        fast_e, faithful_e = [], []
        for seed in range(40):
            rf = simulate_geometric_fast(
                n, make_adversary("none", T=8, eps=0.5), max_slots=100_000, seed=seed
            )
            fast_e.append(rf.energy.total / n)
            rs, _ = run_election(n, seed=50_000 + seed)
            faithful_e.append(rs.energy.total / n)
        assert np.mean(fast_e) == pytest.approx(np.mean(faithful_e), rel=0.3)

    def test_validation(self):
        from repro.protocols.baselines.geometric_fast import simulate_geometric_fast

        adv = make_adversary("none", T=4, eps=0.5)
        with pytest.raises(ConfigurationError):
            simulate_geometric_fast(0, adv, 10)
        with pytest.raises(ConfigurationError):
            simulate_geometric_fast(4, adv, 0)
        with pytest.raises(ConfigurationError):
            simulate_geometric_fast(4, adv, 10, initial_guess=0)


class TestIdleLevelBlocks:
    """Under a schedulable strategy the fast simulator grants the sweep
    levels above the highest drawn level as one block; that path must
    equal the per-slot path (``record_trace=True``) in every field."""

    CAPS = (3, 40, 100, 230, 3000)

    # eps = 0.4 grants every confirmation jam; at eps = 0.9 a second jam
    # needs about 20 slots since the last, so the idle slots' grants decide.
    @pytest.mark.parametrize("eps", [0.4, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 64, 512])
    def test_block_path_equals_per_slot_path(self, n, eps):
        from repro.adversary.base import Adversary
        from repro.experiments.e18_energy_frontier import ConfirmationJammer
        from repro.protocols.baselines.geometric_fast import simulate_geometric_fast

        ended_idle = 0
        for seed, cap in enumerate(self.CAPS):
            block, per_slot = (
                simulate_geometric_fast(
                    n,
                    Adversary(ConfirmationJammer(cap), T=16, eps=eps, seed=seed),
                    max_slots=cap,
                    seed=seed,
                    record_trace=record,
                )
                for record in (False, True)
            )
            assert block.trace is None and len(per_slot.trace) == per_slot.slots
            for field in dataclasses.fields(RunResult):
                if field.name != "trace":
                    assert getattr(block, field.name) == getattr(
                        per_slot, field.name
                    ), (cap, field.name)
            if per_slot.timed_out:
                # Did the cap fall in the last round's idle prefix?
                confirms = confirmation_slots(2, cap)
                start = max([0] + [c + 1 for c in confirms if c + 1 < cap])
                ended_idle += all(
                    per_slot.trace[s].transmitters == 0 for s in range(start, cap)
                )
        if eps == 0.4:  # every confirmation jammed: each run hits its cap
            assert ended_idle >= 2
