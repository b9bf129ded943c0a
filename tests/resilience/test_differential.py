"""Differential replay: histories recorded by the fast engine, in lockstep.

The lockstep contract of ``tests/sim/test_conformance.py`` drives each
scalar policy, its station adapter and its vector twin through random
observation scripts, and each deterministic strategy pair through random
``(p, u, state)`` histories.  This file feeds the same two checks what
the scalar fast engine actually produced for LESK:

* the observations its policy heard, read through the engine's auditor
  hook, so fault-erased, flipped and downgraded slots are exactly the
  delivered ones;
* the ``(p, u, state)`` history each adaptive jammer faced, read from the
  engine's recorded trace.

Recorded histories carry the correlations of real play -- long Null runs
near the estimate, jam bursts aligned with the budget windows, estimates
hovering at the estimator-attacker's band -- that independent random draws
rarely produce.  The compared *stacks* are ``fast`` (the policy alone, as
the fast engine holds it), ``scalar`` (the policy inside a strong-CD
:class:`~repro.protocols.base.UniformStationAdapter`, as the faithful
engine holds it) and ``vector`` (the vector twin, one column per recorded
run, as the batched engine holds it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.suite import make_adversary
from repro.adversary.vector import VectorReactiveJammer
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import VectorLESKPolicy
from repro.resilience.faults import FaultModel
from repro.rng import derive_seed
from repro.sim.fast import simulate_uniform_fast
from repro.types import ChannelState
from tests.sim.test_conformance import (
    COLLISION,
    ERASED,
    NULL,
    History,
    policy_lockstep,
    strategy_lockstep,
)

EPS = 0.5
T = 8
#: Recorded runs per replay: one column each.
WIDTH = 4
MAX_SLOTS = 400

DETERMINISTIC_ADVERSARIES = ("none", "saturating", "periodic-front", "burst")
ADAPTIVE_ADVERSARIES = (
    "reactive",
    "single-suppressor",
    "estimator-attacker",
    "silence-masker",
    "collision-forcer",
)


class HeardRecorder:
    """Auditor stand-in that keeps the observation delivered each slot."""

    def __init__(self) -> None:
        self.heard: list[int] = []

    def observe_slot(self, slot, transmitters, jammed, observed, corrupted=False):
        self.heard.append(ERASED if observed is None else int(observed))

    def check_election(self, *args, **kwargs):
        pass


def record(adversary, n, seed, *, eps=EPS, T_=T, faults=None, max_slots=MAX_SLOTS):
    """Run :data:`WIDTH` fast-engine LESK elections; return each run's
    trace and the observations its policy heard."""
    runs = []
    for col in range(WIDTH):
        recorder = HeardRecorder()
        result = simulate_uniform_fast(
            LESKPolicy(eps), n, make_adversary(adversary, T=T_, eps=eps),
            max_slots, seed=derive_seed(seed, col), record_trace=True,
            faults=faults, auditor=recorder,
        )
        runs.append((result.trace, recorder.heard))
    return runs


def script_of(runs) -> np.ndarray:
    """The heard codes, one column per run.  Past a run's end the column
    is padded with Nulls the lockstep never reads: it stops a column where
    the engine stopped, at the first heard Single or on completion."""
    script = np.full((max(2, *(len(heard) for _, heard in runs)), len(runs)), NULL)
    for col, (_, heard) in enumerate(runs):
        script[: len(heard), col] = heard
    return script


def history_of(runs, n, *, eps=EPS, T_=T) -> History:
    """The recorded ``(p, u, state)`` history, one column per run."""
    shape = (max(len(trace) for trace, _ in runs), len(runs))
    p, u = np.full(shape, np.nan), np.full(shape, np.nan)
    states = np.full(shape, NULL)
    stop = np.empty(len(runs), dtype=int)
    for col, (trace, _) in enumerate(runs):
        stop[col] = len(trace)
        p[: stop[col], col] = trace.probability_array()
        u[: stop[col], col] = trace.u_array()
        states[: stop[col], col] = trace.true_states_array()
    return History(n, T_, eps, p, u, states, stop)


def replay(runs, seed, *, eps=EPS, **sides):
    """The first divergence of LESK's three stacks on the heard script."""
    return policy_lockstep(
        "lesk", seed, script=script_of(runs), kwargs={"eps": eps}, **sides
    )


def corruption(rng: np.random.Generator, max_rate: float, downgrades: bool) -> FaultModel:
    """Random flip and erase rates up to *max_rate*, and up to three
    downgraded slots when *downgrades*."""
    slots = rng.integers(0, 60, size=rng.integers(0, 4)) if downgrades else ()
    return FaultModel(
        flip_rate=float(rng.uniform(0, max_rate)),
        erase_rate=float(rng.uniform(0, max_rate)),
        downgrade_slots=tuple(sorted(int(s) for s in slots)),
    )


class TestAgreement:
    @pytest.mark.parametrize("adversary", DETERMINISTIC_ADVERSARIES)
    def test_fault_free(self, adversary):
        for seed in range(3):
            runs = record(adversary, 16, seed)
            assert replay(runs, seed) is None

    def test_corruption_faults(self):
        faults = FaultModel(flip_rate=0.05, erase_rate=0.05, downgrade_slots=(3, 7, 11))
        for seed in range(3):
            runs = record("burst", 12, seed, faults=faults)
            assert (script_of(runs) == ERASED).any()
            assert replay(runs, seed) is None

    def test_single_station(self):
        for adversary in ("none", "saturating"):
            assert replay(record(adversary, 1, 0, max_slots=50), 0) is None

    @pytest.mark.parametrize("adversary", ADAPTIVE_ADVERSARIES)
    def test_adaptive_scalar_vector_strategy_pairs(self, adversary):
        """The scalar strategy and its vector twin want and are granted
        the same jams on the histories the scalar strategy produced."""
        for seed in range(3):
            runs = record(adversary, 64, seed)
            assert strategy_lockstep(adversary, seed, history=history_of(runs, 64)) is None
            assert replay(runs, seed) is None

    def test_adaptive_with_corruption_faults(self):
        """Corruption rewrites the policies' feedback but never the
        adversary's trace (the jammer knows what it jammed): the jammers
        face estimates shaped by corrupted feedback."""
        faults = FaultModel(flip_rate=0.05, erase_rate=0.05, downgrade_slots=(2, 9))
        for adversary in ("reactive", "silence-masker"):
            runs = record(adversary, 16, 4, faults=faults)
            assert strategy_lockstep(adversary, 4, history=history_of(runs, 16)) is None
            assert replay(runs, 4) is None


TAMPER_SLOT = 5


def _mishear(state: ChannelState) -> ChannelState:
    return ChannelState.COLLISION if state is ChannelState.NULL else ChannelState.NULL


class MishearingLESK(LESKPolicy):
    def observe(self, step, state):
        if step == TAMPER_SLOT and state is not ChannelState.SINGLE:
            state = _mishear(state)
        super().observe(step, state)


class MishearingVectorLESK(VectorLESKPolicy):
    def observe_batch(self, step, states, active):
        if step == TAMPER_SLOT:
            states = np.select(
                [states == NULL, states == COLLISION], [COLLISION, NULL], states
            )
        super().observe_batch(step, states, active)


class FlippingReactive(VectorReactiveJammer):
    def wants_jam_batch(self, view, rng):
        want = super().wants_jam_batch(view, rng)
        return ~want if view.slot == TAMPER_SLOT else want


#: One tampered stack per id: it mishears :data:`TAMPER_SLOT`.
TAMPERED = {
    "scalar": {"adapter_cls": MishearingLESK},
    "fast": {"solo_cls": MishearingLESK},
    "vector": {"twin_cls": MishearingVectorLESK},
}


class TestTamper:
    """The checker's self-test on recorded histories: a stack that
    mishears one slot is reported in the state row after that slot."""

    @pytest.mark.parametrize("stack", sorted(TAMPERED))
    def test_detected_at_seeded_slot(self, stack):
        runs = record("none", 16, 1)
        first = replay(runs, 1, **TAMPERED[stack])
        assert first is not None and first[0] == TAMPER_SLOT + 1, first

    def test_detected_under_adaptive_adversary(self):
        runs = record("reactive", 64, 3)
        first = replay(runs, 3, **TAMPERED["vector"])
        assert first is not None and first[0] == TAMPER_SLOT + 1, first
        first = strategy_lockstep(
            "reactive", 3, lambda T_, eps: FlippingReactive(),
            history=history_of(runs, 64),
        )
        assert first is not None and first[::2] == (TAMPER_SLOT, "want"), first


class TestFuzz:
    def test_100_random_configs_zero_divergences(self):
        rng = np.random.default_rng(20260805)
        diverged = []
        for _ in range(100):
            n = int(rng.integers(1, 24))
            eps = float(rng.choice([0.3, 0.5, 0.7]))
            T_ = int(rng.choice([4, 8, 16]))
            adversary = str(rng.choice(DETERMINISTIC_ADVERSARIES))
            faults = corruption(rng, 0.15, downgrades=True) if rng.random() < 0.5 else None
            seed = int(rng.integers(1 << 30))
            runs = record(adversary, n, seed, eps=eps, T_=T_, faults=faults, max_slots=250)
            if (first := replay(runs, seed, eps=eps)) is not None:
                diverged.append(((n, eps, T_, adversary, faults, seed), first))
        assert not diverged, diverged[:3]

    def test_50_random_adaptive_configs_zero_divergences(self):
        rng = np.random.default_rng(20260806)
        diverged = []
        for _ in range(50):
            n = int(rng.integers(1, 96))
            eps = float(rng.choice([0.3, 0.5, 0.7]))
            T_ = int(rng.choice([4, 8, 16]))
            adversary = str(rng.choice(ADAPTIVE_ADVERSARIES))
            faults = corruption(rng, 0.1, downgrades=False) if rng.random() < 0.3 else None
            seed = int(rng.integers(1 << 30))
            runs = record(adversary, n, seed, eps=eps, T_=T_, faults=faults, max_slots=250)
            history = history_of(runs, n, eps=eps, T_=T_)
            for first in (
                strategy_lockstep(adversary, seed, history=history),
                replay(runs, seed, eps=eps),
            ):
                if first is not None:
                    diverged.append(((n, eps, T_, adversary, faults, seed), first))
        assert not diverged, diverged[:3]
