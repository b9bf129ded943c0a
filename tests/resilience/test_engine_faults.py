"""Fixed-seed pins and invariants for fault injection across all engines."""

import pytest

from repro.adversary.suite import make_adversary
from repro.adversary.vector import make_batched_adversary
from repro.core.election import elect_leader
from repro.errors import ConfigurationError, SimulationError
from repro.protocols.base import UniformStationAdapter
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import VectorLESKPolicy
from repro.resilience.faults import NO_FAULTS, FaultModel
from repro.sim.batched import simulate_uniform_batched
from repro.sim.engine import simulate_stations
from repro.sim.fast import simulate_uniform_fast
from repro.types import CDMode

#: Nontrivial model exercising every fault class at once.
PIN_FAULTS = FaultModel(
    crash_slots=(5, 9),
    sleep_spans=((12, 20),),
    join_slots=(3,),
    flip_rate=0.05,
    erase_rate=0.05,
    downgrade_slots=(7,),
    skew_rate=0.02,
)


def _fast(faults, seed=123, **kwargs):
    return simulate_uniform_fast(
        LESKPolicy(0.5), n=48,
        adversary=make_adversary("saturating", T=8, eps=0.5),
        max_slots=4096, seed=seed, faults=faults, **kwargs,
    )


def _faithful(faults, seed=123):
    stations = [
        UniformStationAdapter(LESKPolicy(0.5), cd_mode=CDMode.STRONG)
        for _ in range(48)
    ]
    return simulate_stations(
        stations, adversary=make_adversary("saturating", T=8, eps=0.5),
        cd_mode=CDMode.STRONG, max_slots=4096, seed=seed,
        stop_on_first_single=True, faults=faults,
    )


def _batched(faults, seed=123):
    return simulate_uniform_batched(
        lambda reps: VectorLESKPolicy(0.5, reps), 48,
        lambda reps: make_batched_adversary("saturating", T=8, eps=0.5, reps=reps),
        6, 4096, root_seed=seed, faults=faults,
    )


class TestFaultedPins:
    """Fixed-seed regressions with PIN_FAULTS enabled.

    These values pin the *faulted* bitstream discipline: fault streams are
    spawned after all existing spawns, churn realization is eager, and
    corruption draws happen lazily in slot order.  Any reordering of draws
    changes these numbers.
    """

    def test_fast_engine(self):
        r = _fast(PIN_FAULTS)
        assert (r.slots, r.elected, r.leader) == (139, True, 18)
        assert (r.leader_survived, r.jams, r.first_single_slot) == (True, 62, 138)

    def test_faithful_engine(self):
        r = _faithful(PIN_FAULTS)
        assert (r.slots, r.elected, r.leader) == (490, True, 4)
        assert (r.leader_survived, r.jams, r.first_single_slot) == (True, 218, 489)

    def test_batched_engine(self):
        r = _batched(PIN_FAULTS)
        assert r.slots.tolist() == [245, 492, 78, 150, 472, 184]
        assert r.elected.all()
        assert r.leaders.tolist() == [19, 37, 4, 31, 43, 1]
        assert r.leader_survived.tolist() == [True] * 6
        assert r.jams.tolist() == [109, 219, 35, 67, 210, 82]


class TestFaultsOffBitIdentity:
    """faults=None, faults=NO_FAULTS and the legacy call shape must agree
    bit-for-bit: a disabled model spawns no RNG streams."""

    def test_fast(self):
        base = simulate_uniform_fast(
            LESKPolicy(0.5), n=48,
            adversary=make_adversary("saturating", T=8, eps=0.5),
            max_slots=4096, seed=123,
        )
        for faults in (None, NO_FAULTS):
            r = _fast(faults)
            assert (r.slots, r.leader, r.jams) == (base.slots, base.leader, base.jams)
            assert r.leader_survived

    def test_faithful(self):
        a = _faithful(None)
        b = _faithful(NO_FAULTS)
        assert (a.slots, a.leader, a.jams) == (b.slots, b.leader, b.jams)

    def test_batched(self):
        a = _batched(None)
        b = _batched(NO_FAULTS)
        assert a.slots.tolist() == b.slots.tolist()
        assert a.leaders.tolist() == b.leaders.tolist()
        assert a.leader_survived is None
        assert all(res.leader_survived for res in a.results())


class TestLeaderSurvival:
    # Crash 32 of 64 stations: some seed in range elects a doomed leader.
    CHURN = FaultModel(crash_slots=tuple(range(100, 132)))

    def _doomed_seed(self):
        for seed in range(40):
            r = elect_leader(n=64, seed=seed, faults=self.CHURN, engine="fast")
            if r.elected and not r.leader_survived:
                return seed
        pytest.fail("no doomed-leader seed in range")

    def test_require_elected_rejects_doomed_leader(self):
        seed = self._doomed_seed()
        r = elect_leader(n=64, seed=seed, faults=self.CHURN, engine="fast")
        with pytest.raises(SimulationError, match="subsequently crashed"):
            r.require_elected()

    def test_restart_supervision_recovers(self):
        seed = self._doomed_seed()
        r = elect_leader(
            n=64, seed=seed, faults=self.CHURN, engine="fast", max_restarts=8
        )
        assert r.restarts >= 1
        assert r.elected and r.leader_survived
        r.require_elected()
        # Deterministic: same derived attempt seeds, same outcome.
        r2 = elect_leader(
            n=64, seed=seed, faults=self.CHURN, engine="fast", max_restarts=8
        )
        assert (r.restarts, r.leader, r.slots) == (r2.restarts, r2.leader, r2.slots)

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ConfigurationError, match="max_restarts"):
            elect_leader(n=8, seed=0, max_restarts=-1)


class TestEngineGating:
    def test_fast_weak_cd_rejects_faults(self):
        with pytest.raises(ConfigurationError, match="fast weak-CD"):
            elect_leader(
                n=32, protocol="lewk", seed=1, engine="fast",
                faults=FaultModel(flip_rate=0.1),
            )

    def test_fast_weak_cd_allows_disabled_model(self):
        r = elect_leader(n=32, protocol="lewk", seed=1, engine="fast", faults=NO_FAULTS)
        assert r.elected

    def test_faithful_weak_cd_accepts_faults(self):
        r = elect_leader(
            n=16, protocol="lewk", seed=2,
            faults=FaultModel(flip_rate=0.01), audit=True,
        )
        assert r.slots > 0
