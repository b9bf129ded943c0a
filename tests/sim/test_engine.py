"""Tests for the faithful per-station engine (repro.sim.engine)."""

from __future__ import annotations

import pytest

from repro.adversary.suite import make_adversary
from repro.core.config import ElectionConfig
from repro.core.election import make_protocol_stations
from repro.errors import ConfigurationError
from repro.protocols.base import UniformStationAdapter
from repro.protocols.lesk import LESKPolicy
from repro.sim.engine import simulate_stations
from repro.types import CDMode


def lesk_stations(n, eps=0.5, cd=CDMode.STRONG):
    return [UniformStationAdapter(LESKPolicy(eps), cd_mode=cd) for _ in range(n)]


class TestValidation:
    def test_needs_stations(self):
        with pytest.raises(ConfigurationError):
            simulate_stations(
                [], make_adversary("none", 8, 0.5), CDMode.STRONG, max_slots=10
            )

    def test_needs_positive_slots(self):
        with pytest.raises(ConfigurationError):
            simulate_stations(
                lesk_stations(2),
                make_adversary("none", 8, 0.5),
                CDMode.STRONG,
                max_slots=0,
            )


class TestStrongCDElection:
    def test_single_station_elects_immediately(self):
        """n = 1, u = 0: the station transmits alone, hears its own Single
        (strong-CD), and is the leader in one slot."""
        result = simulate_stations(
            lesk_stations(1),
            make_adversary("none", 8, 0.5),
            CDMode.STRONG,
            max_slots=100,
            seed=0,
            stop_on_first_single=True,
        )
        assert result.elected and result.slots == 1 and result.leader == 0

    def test_election_produces_unique_leader(self):
        result = simulate_stations(
            lesk_stations(32),
            make_adversary("none", 8, 0.5),
            CDMode.STRONG,
            max_slots=10_000,
            seed=1,
            stop_on_first_single=True,
        )
        assert result.elected
        assert result.leaders_count == 1
        assert result.first_single_slot == result.slots - 1

    def test_timeout_reported(self):
        result = simulate_stations(
            lesk_stations(32),
            make_adversary("none", 8, 0.5),
            CDMode.STRONG,
            max_slots=3,
            seed=1,
            stop_on_first_single=True,
        )
        assert not result.elected
        assert result.timed_out
        assert result.slots == 3

    def test_seed_reproducibility(self):
        def run():
            return simulate_stations(
                lesk_stations(32),
                make_adversary("saturating", 8, 0.5),
                CDMode.STRONG,
                max_slots=10_000,
                seed=42,
                stop_on_first_single=True,
                record_trace=True,
            )

        r1, r2 = run(), run()
        assert r1.slots == r2.slots
        assert r1.leader == r2.leader
        assert list(r1.trace.transmitters_array()) == list(r2.trace.transmitters_array())
        assert list(r1.trace.jammed_array()) == list(r2.trace.jammed_array())


class TestEnergyAccounting:
    def test_transmissions_match_trace(self):
        result = simulate_stations(
            lesk_stations(16),
            make_adversary("none", 8, 0.5),
            CDMode.STRONG,
            max_slots=10_000,
            seed=3,
            stop_on_first_single=True,
            record_trace=True,
        )
        assert result.energy.transmissions == int(result.trace.transmitters_array().sum())
        assert sum(result.energy.per_station_transmissions) == result.energy.transmissions

    def test_listening_plus_transmitting_covers_active_slots(self):
        n = 8
        result = simulate_stations(
            lesk_stations(n),
            make_adversary("none", 8, 0.5),
            CDMode.STRONG,
            max_slots=10_000,
            seed=4,
            stop_on_first_single=True,
        )
        # No station terminates before the run ends in this mode.
        assert result.energy.total == n * result.slots


class TestJammingIntegration:
    def test_jam_counts_recorded(self):
        result = simulate_stations(
            lesk_stations(32),
            make_adversary("saturating", 4, 0.5),
            CDMode.STRONG,
            max_slots=10_000,
            seed=5,
            stop_on_first_single=True,
            record_trace=True,
        )
        assert result.jams == int(result.trace.jammed_array().sum())
        assert result.jams > 0
        assert result.jam_denied > 0

    def test_granted_jams_are_bounded(self):
        from repro.adversary.validation import check_bounded

        result = simulate_stations(
            lesk_stations(32),
            make_adversary("saturating", 4, 0.5),
            CDMode.STRONG,
            max_slots=2_000,
            seed=6,
            stop_on_first_single=True,
            record_trace=True,
        )
        assert check_bounded(result.trace.jammed_array(), 4, 0.5)


class TestWeakCDWithoutNotification:
    def test_bare_weak_cd_lesk_never_resolves_leader(self):
        """Selection resolution works (a Single occurs) but the winner does
        not know -- the gap Notification closes."""
        config = ElectionConfig(n=8, protocol="lesk", eps=0.5, T=8)
        stations = [
            UniformStationAdapter(LESKPolicy(0.5), cd_mode=CDMode.WEAK)
            for _ in range(config.n)
        ]
        result = simulate_stations(
            stations,
            make_adversary("none", 8, 0.5),
            CDMode.WEAK,
            max_slots=20_000,
            seed=7,
            stop_when_all_done=True,
        )
        # All listeners terminated as non-leaders; the winner is stuck.
        assert result.first_single_slot is not None
        assert not result.all_terminated
        assert result.leaders_count == 0


class TestMakeProtocolStations:
    def test_strong_protocols_use_adapters(self):
        config = ElectionConfig(n=3, protocol="lesk")
        stations = make_protocol_stations(config)
        assert all(isinstance(s, UniformStationAdapter) for s in stations)

    def test_weak_protocols_use_notification(self):
        from repro.protocols.notification import NotificationStation

        config = ElectionConfig(n=3, protocol="lewk")
        stations = make_protocol_stations(config)
        assert all(isinstance(s, NotificationStation) for s in stations)
