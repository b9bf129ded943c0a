"""Fixed-seed regression pins for every scalar engine.

These tests exist to catch *unintended* behavioural drift in the
engines' sampling paths (RNG call order, channel resolution, budget
decisions).  Each pins the exact ``RunResult`` fields produced by a
fixed seed.  If a deliberate change to an engine's sampling order
breaks one of these, re-pin the values in the same commit and say so
in the commit message -- a silent change here means every published
experiment table silently changed too.
"""

from __future__ import annotations

import pytest

from repro.adversary.base import Adversary, as_strategy
from repro.adversary.suite import make_adversary
from repro.core.config import ElectionConfig
from repro.core.election import make_protocol_stations
from repro.protocols.baselines.ars_fast import simulate_ars_fast
from repro.protocols.baselines.ars_mac import ARSMACStation, ars_gamma
from repro.protocols.intervals import fixed_partition
from repro.protocols.lesk import LESKPolicy
from repro.protocols.notification import NotificationStation
from repro.resilience.faults import FaultModel
from repro.sim.engine import simulate_stations
from repro.sim.fast import simulate_uniform_fast
from repro.sim.fast_notification import simulate_notification_fast
from repro.types import CDMode

SEED = 123
EPS = 0.5
T = 8


def _saturating():
    return make_adversary("saturating", T=T, eps=EPS)


def test_simulate_stations_pinned():
    config = ElectionConfig(n=16, protocol="lesk", eps=EPS, T=T)
    result = simulate_stations(
        make_protocol_stations(config),
        adversary=_saturating(),
        cd_mode=CDMode.STRONG,
        max_slots=100_000,
        seed=SEED,
        stop_on_first_single=True,
    )
    assert (result.slots, result.elected, result.jams) == (38, True, 17)


def _lewk_stations(n=16):
    return make_protocol_stations(
        ElectionConfig(n=n, protocol="lewk", eps=EPS, T=T)
    )


def _outcome(result):
    return (
        result.slots,
        result.elected,
        result.leader,
        result.jams,
        result.energy.transmissions,
        result.energy.listening,
    )


def test_simulate_stations_weak_cd_pinned():
    # LEWK: Notification around LESK, weak-CD feedback, doubling intervals.
    result = simulate_stations(
        _lewk_stations(),
        adversary=_saturating(),
        cd_mode=CDMode.WEAK,
        max_slots=200_000,
        seed=SEED,
    )
    assert _outcome(result) == (382, True, 10, 170, 1309, 3858)


def test_simulate_stations_fixed_partition_pinned():
    # A9's shape: a fixed partition against a jammer that requests every
    # C_3 slot of it; the leader never announces and the run times out.
    partition = fixed_partition(16)

    def wants(view, rng):
        iv = partition(view.slot)
        return iv is not None and iv.j == 3

    stations = [
        NotificationStation(lambda: LESKPolicy(EPS), partition=partition)
        for _ in range(10)
    ]
    result = simulate_stations(
        stations,
        adversary=Adversary(as_strategy(wants, "c3-killer"), T=64, eps=EPS, seed=SEED),
        cd_mode=CDMode.WEAK,
        max_slots=3000,
        seed=SEED,
    )
    assert _outcome(result) == (3000, False, None, 992, 7688, 22312)
    assert result.timed_out and result.leaders_count == 1
    assert [s.phase.value for s in stations].count("notify-nonleader") == 8


def test_simulate_stations_ars_mac_pinned():
    # A4's shape: the plain [3] MAC (no termination), full trace.
    n = 16
    result = simulate_stations(
        [ARSMACStation(ars_gamma(n, 16), terminate_on_single=False) for _ in range(n)],
        adversary=make_adversary("saturating", T=16, eps=EPS),
        cd_mode=CDMode.STRONG,
        max_slots=3000,
        seed=SEED,
        record_trace=True,
        stop_on_first_single=False,
        stop_when_all_done=False,
    )
    trace = result.trace
    singles = (trace.true_states_array() == 1) & ~trace.jammed_array()
    assert (result.slots, result.jams, int(singles.sum())) == (3000, 1412, 477)
    assert result.energy.per_station_transmissions == [
        93, 87, 101, 110, 95, 82, 97, 90, 113, 99, 96, 103, 114, 83, 127, 126,
    ]
    assert result.energy.listening == 46384


def test_simulate_stations_weak_cd_erasures_pinned():
    # Erased slots withhold feedback from every station alike.
    result = simulate_stations(
        _lewk_stations(),
        adversary=_saturating(),
        cd_mode=CDMode.WEAK,
        max_slots=200_000,
        seed=SEED,
        faults=FaultModel(erase_rate=0.2),
    )
    assert _outcome(result) == (767, True, 11, 341, 2053, 8284)


def test_simulate_uniform_fast_pinned():
    result = simulate_uniform_fast(
        LESKPolicy(EPS),
        n=64,
        adversary=_saturating(),
        max_slots=100_000,
        seed=SEED,
    )
    assert (result.slots, result.elected, result.jams) == (58, True, 26)


def test_simulate_notification_fast_pinned():
    result = simulate_notification_fast(
        lambda: LESKPolicy(EPS),
        n=64,
        adversary=_saturating(),
        max_slots=200_000,
        seed=SEED,
    )
    assert (result.slots, result.elected, result.jams) == (767, True, 341)


def test_simulate_ars_fast_pinned():
    result = simulate_ars_fast(
        64,
        ars_gamma(64, T),
        _saturating(),
        max_slots=1_000_000,
        seed=SEED,
    )
    assert (result.slots, result.elected, result.jams) == (5, True, 4)


def test_simulate_ars_fast_no_halt_pinned():
    # A4's shape on the vectorized engine: the plain MAC, full trace.
    n = 16
    result = simulate_ars_fast(
        n,
        ars_gamma(n, 16),
        make_adversary("saturating", T=16, eps=EPS),
        max_slots=3000,
        seed=SEED,
        record_trace=True,
        halt_on_single=False,
    )
    trace = result.trace
    clear = ~trace.jammed_array()
    singles = (trace.true_states_array() == 1) & clear
    assert (result.slots, result.jams, int(singles.sum())) == (3000, 1412, 468)
    assert (result.elected, result.timed_out, result.first_single_slot) == (
        False, True, 8,
    )
    halves = [
        int(singles[part].sum()) / int(clear[part].sum())
        for part in (slice(None, 1500), slice(1500, None))
    ]
    assert halves == pytest.approx([0.29345088161209065, 0.2959697732997481], abs=1e-15)
    assert (result.energy.transmissions, result.energy.listening) == (1610, 46390)
