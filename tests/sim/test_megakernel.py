"""The slot-blocked megakernel engine: block invariance, bit-identity,
fallback, and the cached schedule timeline.

The engine's two structural contracts are tested here:

* **Block-size invariance** -- ``block_size`` only changes how the grant
  timeline is chunked, never the results: K in {1, 7, 64, max_slots}
  must yield identical ``BatchRunResult`` fields.
* **Bit-identity with the batched stream** -- the megakernel is the
  maximal-compaction limit of the batched engine's stream: the batched
  engine must produce the same arrays bit for bit, across all three
  fast-path policies and every schedulable strategy.

Statistical cross-validation against the scalar engines lives in
``tests/sim/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.adversary.budget import JammingBudget
from repro.adversary.vector import make_batched_adversary
from repro.protocols.vector import (
    VectorLESKPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
)
from repro.sim.batched import simulate_uniform_batched
from repro.sim.megakernel import (
    _SCHEDULE_CACHE,
    _BudgetSchedule,
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


def _mega(policy, strategy, *, reps=24, max_slots=4000, seed=33, **kw):
    return simulate_uniform_megakernel(
        POLICIES[policy],
        N,
        lambda r: make_batched_adversary(strategy, T=T, eps=EPS, reps=r),
        reps=reps,
        max_slots=max_slots,
        root_seed=seed,
        **kw,
    )


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
        ref = _mega(policy, strategy, block_size=1)
        for block_size in (7, 64, 4000):
            got = _mega(policy, strategy, block_size=block_size)
            assert_results_equal(
                ref, got, f"{policy}/{strategy} K=1 vs K={block_size}"
            )

    def test_timeout_edge_block_invariant(self):
        # max_slots small enough that some reps time out: the boundary
        # between elected and timed-out columns must not move with K.
        for seed in range(5):
            ref = _mega("lesk", "saturating", reps=8, max_slots=40,
                        seed=seed, block_size=1)
            got = _mega("lesk", "saturating", reps=8, max_slots=40,
                        seed=seed, block_size=64)
            assert_results_equal(ref, got, f"timeout edge seed={seed}")


class TestBitIdentityWithPackedBatched:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("strategy", SCHEDULABLE)
    def test_matches_packed_stream(self, policy, strategy):
        ref = _batched(policy, strategy)
        got = _mega(policy, strategy)
        assert_results_equal(ref, got, f"{policy}/{strategy}")

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


class TestBudgetSchedule:
    def test_budget_schedule_matches_budget(self):
        """The scalar replica must reproduce JammingBudget's decisions
        bit for bit on arbitrary want streams."""
        rng = np.random.default_rng(99)
        for trial, (t_win, eps) in enumerate(
            [(4, 0.5), (16, 0.25), (32, 0.7), (7, 0.33)]
        ):
            wants = rng.random(600) < rng.uniform(0.2, 1.0)
            budget = JammingBudget(T=t_win, eps=eps)
            sched = _BudgetSchedule(t_win, eps)
            grants, jam_prefix, denied_prefix = sched.run(
                np.asarray(wants, dtype=bool)
            )
            jams = denied = 0
            for slot, want in enumerate(wants):
                granted = budget.grant(bool(want))
                jams += int(granted)
                denied += int(want and not granted)
                assert grants[slot] == granted, (
                    f"trial {trial} slot {slot}: schedule {grants[slot]} "
                    f"vs budget {granted}"
                )
                assert jam_prefix[slot] == jams
                assert denied_prefix[slot] == denied

    def test_resume_from_state_round_trip(self):
        wants = np.ones(96, dtype=bool)
        whole = _BudgetSchedule(T, EPS)
        g_all, j_all, d_all = whole.run(wants)
        first = _BudgetSchedule(T, EPS)
        g1, j1, d1 = first.run(wants[:40])
        second = _BudgetSchedule.from_state(T, EPS, first.state())
        g2, j2, d2 = second.run(wants[40:])
        # Prefixes are cumulative across run() calls on a resumed schedule.
        assert g1 + g2 == g_all
        assert j1 + j2 == j_all
        assert d1 + d2 == d_all


class TestScheduleCache:
    def test_divergent_want_streams_share_a_key(self):
        """Two strategies with the same (T, eps) walk the same cached
        timeline; the one whose wants diverge must drop to a private
        live schedule without corrupting the shared chain."""
        _SCHEDULE_CACHE.clear()
        a1 = _mega("lesk", "saturating", reps=8, seed=3)
        b1 = _mega("lesk", "burst", reps=8, seed=3)
        # Re-run after priming the cache with the *other* strategy first.
        _SCHEDULE_CACHE.clear()
        b2 = _mega("lesk", "burst", reps=8, seed=3)
        a2 = _mega("lesk", "saturating", reps=8, seed=3)
        assert_results_equal(a1, a2, "saturating cached-vs-primed")
        assert_results_equal(b1, b2, "burst cached-vs-primed")

    def test_cache_hit_matches_cold_run(self):
        _SCHEDULE_CACHE.clear()
        cold = _mega("lesk", "periodic-front", reps=8, seed=4)
        warm = _mega("lesk", "periodic-front", reps=8, seed=4)
        assert len(_SCHEDULE_CACHE) == 1
        assert_results_equal(cold, warm, "cold vs warm schedule cache")


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
