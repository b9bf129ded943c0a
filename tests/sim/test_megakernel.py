"""The slot-blocked megakernel engine: block invariance, bit-identity,
and fallback.

The engine's two structural contracts are tested here:

* **Block-size invariance** -- the private ``_BLOCK_SLOTS`` only changes
  how the grant timeline is chunked, never the results: forcing it to
  K in {1, 7, 64, max_slots} must yield identical ``BatchRunResult``
  fields.
* **Bit-identity with the batched stream** -- the megakernel is the
  maximal-compaction limit of the batched engine's stream: the batched
  engine must produce the same arrays bit for bit, across all four
  fast-path policies and every schedulable strategy, and across the
  three shared ladders (sweep, no-CD sweep, Estimation) under the four
  strategies that read only the protocol state, including columns
  that time out (their jam counters come from the run's budget) and
  Estimation columns that complete at a round end, with runs cut inside
  the rounds and sweep stretches whose probability is exactly 0.0.

Telemetry parity: the same cell records the same slot, class, jam,
election and timeout counters on both engines, including the slots the
megakernel decides without drawing.

Statistical cross-validation against the scalar engines lives in
``tests/sim/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.adversary.vector import make_batched_adversary
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
)
from repro.resilience.faults import FaultModel
from repro.sim import megakernel
from repro.sim.batched import simulate_uniform_batched
from repro.sim.megakernel import (
    megakernel_eligibility,
    simulate_uniform_megakernel,
)

N = 64
EPS = 0.5
T = 16

RESULT_FIELDS = (
    "slots",
    "elected",
    "leaders",
    "first_single_slot",
    "jams",
    "jam_denied",
    "transmissions",
    "listening",
    "policy_completed",
    "timed_out",
    "policy_results",
)

POLICIES = {
    "lesk": lambda reps: VectorLESKPolicy(EPS, reps),
    "sweep": lambda reps: VectorSweepPolicy(reps),
    "nocd-sweep": lambda reps: VectorNoCDSweepPolicy(reps),
    "estimation": lambda reps: VectorEstimationPolicy(reps, L=2),
}

SCHEDULABLE = ("none", "saturating", "periodic-front", "burst")

#: Strategies whose want is an elementwise function of ``(p, u)``, and the
#: ladders whose live columns share one such state sequence.
STATE_READERS = (
    "single-suppressor", "silence-masker", "collision-forcer",
    "estimator-attacker",
)
SHARED_LADDERS = ("sweep", "nocd-sweep", "estimation")

#: A CD-sweep cell whose columns run through the ceiling-2048 sweep's
#: ``p = 0`` stretch (slots 3132-4106) and partly time out after it.
STRETCH_CELL = dict(reps=16, n=1024, max_slots=5500)


def _mega(policy, strategy, *, reps=24, max_slots=4000, seed=33, block=None,
          n=N, window=T):
    default = megakernel._BLOCK_SLOTS
    if block is not None:
        megakernel._BLOCK_SLOTS = block
    try:
        return simulate_uniform_megakernel(
            POLICIES[policy],
            n,
            lambda r: make_batched_adversary(
                strategy, T=window, eps=EPS, reps=r
            ),
            reps=reps,
            max_slots=max_slots,
            root_seed=seed,
        )
    finally:
        megakernel._BLOCK_SLOTS = default


def _batched(policy, strategy, *, reps=24, max_slots=4000, seed=33, n=N,
             window=T, **kw):
    return simulate_uniform_batched(
        POLICIES[policy],
        n,
        lambda r: make_batched_adversary(strategy, T=window, eps=EPS, reps=r),
        reps=reps,
        max_slots=max_slots,
        root_seed=seed,
        **kw,
    )


def assert_results_equal(a, b, context=""):
    for f in RESULT_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), (
            f"{context} field {f!r}: {getattr(a, f)} != {getattr(b, f)}"
        )


class TestBlockInvariance:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("strategy", ["saturating", "burst"])
    def test_block_size_never_changes_results(self, policy, strategy):
        ref = _mega(policy, strategy, block=1)
        for block in (7, 64, 4000):
            got = _mega(policy, strategy, block=block)
            assert_results_equal(
                ref, got, f"{policy}/{strategy} K=1 vs K={block}"
            )

    def test_adaptive_sweep_block_invariant(self):
        ref = _mega("sweep", "single-suppressor", block=1, **STRETCH_CELL)
        assert ref.timed_out.any() and ref.elected.any()
        for block in (7, 64, STRETCH_CELL["max_slots"]):
            got = _mega("sweep", "single-suppressor", block=block,
                        **STRETCH_CELL)
            assert_results_equal(ref, got, f"K=1 vs K={block}")

    def test_timeout_edge_block_invariant(self):
        # max_slots small enough that some reps time out: the boundary
        # between elected and timed-out columns must not move with K.
        for seed in range(5):
            ref = _mega("lesk", "saturating", reps=8, max_slots=40,
                        seed=seed, block=1)
            got = _mega("lesk", "saturating", reps=8, max_slots=40,
                        seed=seed, block=64)
            assert_results_equal(ref, got, f"timeout edge seed={seed}")


class TestBitIdentityWithPackedBatched:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("strategy", SCHEDULABLE)
    def test_matches_packed_stream(self, policy, strategy):
        # The short cut leaves columns timed out: they take jams/jam_denied
        # from the run's budget rather than from an election event, and
        # must match the batched engine's per-column counters.  Estimation
        # finishes by slot 14 here, so its cut sits inside round 3.
        short = 10 if policy == "estimation" else 40
        for max_slots in (4000, short):
            ref = _batched(policy, strategy, max_slots=max_slots)
            got = _mega(policy, strategy, max_slots=max_slots)
            assert_results_equal(
                ref, got, f"{policy}/{strategy} max_slots={max_slots}"
            )
        assert ref.timed_out.any(), f"max_slots={short} left no column running"

    @pytest.mark.parametrize(
        "max_slots",
        # Round 11 (p = 0 from slot 2046 on) opens inside the budget's
        # 8192-slot jam run; 9000 falls in the free run of round 13, whose
        # last slot is 16381.  Unbounded runs complete at that round end.
        [2047, 3000, 8191, 9000, 16381, 20000],
    )
    def test_estimation_certain_rounds(self, max_slots):
        kw = dict(reps=24, max_slots=max_slots, seed=5, n=1024, window=16384)
        ref = _batched("estimation", "saturating", **kw)
        got = _mega("estimation", "saturating", **kw)
        assert_results_equal(ref, got, f"max_slots={max_slots}")
        small = _mega("estimation", "saturating", block=7, **kw)
        assert_results_equal(got, small, f"max_slots={max_slots} K=7")
        if max_slots > 16381:
            assert got.policy_completed.all()
            assert (got.policy_results == 13).all()
        else:
            assert got.timed_out.all()

    @pytest.mark.parametrize("n", [2, 1621])
    @pytest.mark.parametrize("strategy", STATE_READERS)
    @pytest.mark.parametrize("policy", SHARED_LADDERS)
    def test_state_readers_match_packed_stream(self, policy, strategy, n):
        # n = 1621 is where np.log2 and math.log2 differ in the last ulp
        # (the estimator attacker's band edge); the short cuts leave
        # columns timed out, the shortest even at n = 2.
        short = 10 if policy == "estimation" else 40
        for max_slots in (4000, short, 3):
            ref = _batched(policy, strategy, n=n, max_slots=max_slots)
            got = _mega(policy, strategy, n=n, max_slots=max_slots)
            assert_results_equal(
                ref, got, f"{policy}/{strategy} n={n} max_slots={max_slots}"
            )
        assert ref.timed_out.any(), "max_slots=3 left no column running"

    @pytest.mark.parametrize("strategy", STATE_READERS)
    @pytest.mark.parametrize(
        "max_slots",
        # Runs whose last slot is the stretch's first (3132) or last
        # (4106), and one that runs on into the ceiling-4096 sweep.
        [3133, 4107, 5500],
    )
    def test_sweep_certain_stretch(self, strategy, max_slots):
        kw = dict(STRETCH_CELL, max_slots=max_slots)
        ref = _batched("sweep", strategy, **kw)
        got = _mega("sweep", strategy, **kw)
        assert_results_equal(ref, got, f"{strategy} max_slots={max_slots}")

    def test_matches_across_root_seeds(self):
        for seed in range(8):
            ref = _batched("lesk", "saturating", reps=8, seed=seed)
            got = _mega("lesk", "saturating", reps=8, seed=seed)
            assert_results_equal(ref, got, f"seed={seed}")


class TestFixedSeedPins:
    """Exact regression pins: any RNG-stream or arithmetic change trips
    these before the statistical tests ever could."""

    def test_lesk_saturating_pin(self):
        r = _mega("lesk", "saturating", reps=12, seed=7)
        assert r.elected.all()
        assert r.slots.tolist() == [67, 87, 63, 67, 84, 65, 67, 65, 72, 72, 65, 65]
        assert r.leaders.tolist() == [27, 2, 35, 13, 12, 62, 6, 14, 24, 44, 59, 62]
        assert r.jams.tolist() == [32, 41, 30, 32, 40, 31, 32, 31, 34, 34, 31, 31]
        assert r.transmissions.tolist() == [
            1469, 1474, 1422, 1433, 1509, 1393, 1433, 1432, 1427, 1439, 1411, 1406
        ]

    def test_estimation_saturating_pin(self):
        r = _mega("estimation", "saturating", reps=12, seed=7)
        assert r.slots.tolist() == [14, 11, 10, 14, 9, 10, 12, 14, 9, 10, 14, 13]
        assert r.policy_results.tolist() == [
            3, -1, -1, 3, -1, -1, -1, 3, -1, -1, -1, -1
        ]
        assert r.jams.tolist() == [8] * 12
        assert r.transmissions.tolist() == [
            45, 51, 54, 47, 54, 57, 40, 57, 52, 43, 52, 38
        ]

    def test_sweep_single_suppressor_pin(self):
        # Read off the batched engine before the fused path served
        # adaptive strategies; column 2 runs to the cap.
        r = _mega("sweep", "single-suppressor", reps=12, seed=7)
        assert r.slots.tolist() == [28, 26, 4000, 26, 26, 28, 26, 26, 28, 26, 26, 26]
        assert r.leaders.tolist() == [61, 6, -1, 35, 18, 28, 25, 10, 48, 47, 59, 24]
        assert r.jams.tolist() == [9, 8, 66, 8, 8, 9, 8, 8, 9, 8, 8, 8]
        assert r.jam_denied.tolist() == [2, 1, 12, 1, 1, 2, 1, 1, 2, 1, 1, 1]
        assert r.transmissions.tolist() == [
            579, 577, 1515, 589, 588, 584, 578, 582, 582, 584, 574, 589
        ]

    def test_sweep_burst_pin(self):
        r = _mega("sweep", "burst", reps=12, seed=7)
        assert r.slots.tolist() == [43, 26, 10, 42, 43, 16, 17, 17, 27, 16, 16, 10]
        assert r.leaders.tolist() == [52, 60, 15, 30, 60, 47, 47, 40, 38, 34, 13, 51]


class TestFallback:
    def test_adaptive_strategy_falls_back_to_batched(self):
        def adversary(r):
            return make_batched_adversary(
                "single-suppressor", T=T, eps=EPS, reps=r
            )

        with telemetry.collecting() as tel:
            got = simulate_uniform_megakernel(
                POLICIES["lesk"], N, adversary,
                reps=12, max_slots=4000, root_seed=9,
            )
        ref = simulate_uniform_batched(
            POLICIES["lesk"], N, adversary,
            reps=12, max_slots=4000, root_seed=9,
        )
        assert_results_equal(ref, got, "fallback delegation")
        assert (
            tel.metrics.counter_value(
                "engine_fallback_total",
                engine="megakernel",
                reason="strategy:single-suppressor",
            )
            == 1
        )

    def test_eligibility_reasons(self):
        policy = VectorLESKPolicy(EPS, 4)
        oblivious = make_batched_adversary("saturating", T=T, eps=EPS, reps=4)
        assert megakernel_eligibility(policy, oblivious, n=N) is None
        estimation = VectorEstimationPolicy(4, L=2)
        assert megakernel_eligibility(estimation, oblivious, n=N) is None
        faults = FaultModel(flip_rate=0.1)
        assert (
            megakernel_eligibility(policy, oblivious, n=N, faults=faults)
            == "faults"
        )

    @pytest.mark.parametrize("strategy", STATE_READERS)
    @pytest.mark.parametrize("policy", SHARED_LADDERS)
    def test_state_readers_eligible_on_shared_ladders(self, policy, strategy):
        adversary = make_batched_adversary(strategy, T=T, eps=EPS, reps=4)
        assert megakernel_eligibility(POLICIES[policy](4), adversary, n=N) is None

    @pytest.mark.parametrize(
        "policy, strategy, reason",
        [("lesk", name, f"strategy:{name}") for name in STATE_READERS]
        + [("lesk", "reactive", "strategy-feedback:reactive")]
        + [
            (policy, "random", "strategy:random")
            for policy in ("lesk", *SHARED_LADDERS)
        ]
        + [
            (policy, "reactive", "strategy-feedback:reactive")
            for policy in SHARED_LADDERS
        ],
    )
    def test_other_adaptive_configurations_fall_back(
        self, policy, strategy, reason
    ):
        # LESK's exponents differ per column, so it offers no shared
        # state; random and reactive jammers have no want schedule.
        adversary = make_batched_adversary(strategy, T=T, eps=EPS, reps=4)
        assert megakernel_eligibility(POLICIES[policy](4), adversary, n=N) == reason


class TestTelemetryParity:
    """Both engines record the same counters for the same cell; only the
    ``engine`` label differs.  The Estimation cell reaches the rounds the
    megakernel decides without drawing, and completes its columns; the
    adaptive sweep cell crosses a ``p = 0`` stretch, and some of its
    columns time out."""

    @staticmethod
    def _counters(run) -> dict:
        with telemetry.collecting() as tel:
            run()
        return {
            (c.name, tuple(kv for kv in c.labels if kv[0] != "engine")): c.value
            for c in tel.metrics.counters()
            if c.name in PARITY_COUNTERS
        }

    @pytest.mark.parametrize(
        "policy, strategy, kw",
        [
            pytest.param(
                "estimation", "saturating",
                dict(reps=16, n=1024, window=4096, max_slots=6000),
                id="estimation-kw0",
            ),
            pytest.param(
                "lesk", "saturating", dict(reps=16, max_slots=4000),
                id="lesk-kw1",
            ),
            pytest.param(
                "sweep", "single-suppressor", STRETCH_CELL,
                id="sweep-single-suppressor",
            ),
        ],
    )
    def test_counters_match_batched(self, policy, strategy, kw):
        ref = self._counters(lambda: _batched(policy, strategy, **kw))
        got = self._counters(lambda: _mega(policy, strategy, **kw))
        assert got == ref
        assert ("engine_slots_total", ()) in got
        if policy == "estimation":
            assert ("timeouts_total", ()) not in got
        if policy == "sweep":
            assert ("timeouts_total", ()) in got


PARITY_COUNTERS = {
    "engine_slots_total",
    "slot_class_total",
    "jam_slots_total",
    "jam_occupied_total",
    "jam_denied_total",
    "elections_total",
    "timeouts_total",
}
