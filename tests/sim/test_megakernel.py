"""The slot-blocked megakernel engine: block invariance, bit-identity,
and fallback.

The engine's two structural contracts are tested here:

* **Block-size invariance** -- the private ``_BLOCK_SLOTS`` only changes
  how the grant timeline is chunked, never the results: forcing it to
  K in {1, 7, 64, max_slots} must yield identical ``BatchRunResult``
  fields.
* **Bit-identity with the batched stream** -- the megakernel is the
  maximal-compaction limit of the batched engine's stream: the batched
  engine must produce the same arrays bit for bit, across all three
  fast-path policies and every schedulable strategy, including columns
  that time out (their jam counters come from the run's budget).

Statistical cross-validation against the scalar engines lives in
``tests/sim/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.adversary.vector import make_batched_adversary
from repro.protocols.vector import (
    VectorLESKPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
)
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
)

POLICIES = {
    "lesk": lambda reps: VectorLESKPolicy(EPS, reps),
    "sweep": lambda reps: VectorSweepPolicy(reps),
    "nocd-sweep": lambda reps: VectorNoCDSweepPolicy(reps),
}

SCHEDULABLE = ("none", "saturating", "periodic-front", "burst")


def _mega(policy, strategy, *, reps=24, max_slots=4000, seed=33, block=None):
    default = megakernel._BLOCK_SLOTS
    if block is not None:
        megakernel._BLOCK_SLOTS = block
    try:
        return simulate_uniform_megakernel(
            POLICIES[policy],
            N,
            lambda r: make_batched_adversary(strategy, T=T, eps=EPS, reps=r),
            reps=reps,
            max_slots=max_slots,
            root_seed=seed,
        )
    finally:
        megakernel._BLOCK_SLOTS = default


def _batched(policy, strategy, *, reps=24, max_slots=4000, seed=33, **kw):
    return simulate_uniform_batched(
        POLICIES[policy],
        N,
        lambda r: make_batched_adversary(strategy, T=T, eps=EPS, reps=r),
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
        # max_slots=40 leaves columns timed out: they take jams/jam_denied
        # from the run's budget rather than from an election event, and
        # must match the batched engine's per-column counters.
        for max_slots in (4000, 40):
            ref = _batched(policy, strategy, max_slots=max_slots)
            got = _mega(policy, strategy, max_slots=max_slots)
            assert_results_equal(
                ref, got, f"{policy}/{strategy} max_slots={max_slots}"
            )
        assert ref.timed_out.any(), "max_slots=40 left no column running"

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
        adaptive = make_batched_adversary(
            "single-suppressor", T=T, eps=EPS, reps=4
        )
        assert megakernel_eligibility(policy, oblivious) is None
        assert megakernel_eligibility(policy, adaptive) is not None
        assert (
            megakernel_eligibility(policy, oblivious, halt_on_single=False)
            is not None
        )
