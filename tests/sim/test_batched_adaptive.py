"""The batched engine's adaptive and vector paths: Estimation's returned
round, the strategy registry, and fixed-seed pins.

The KS law checks of the batched engine under every adaptive strategy, and
of the LESU and no-CD sweep twins, are rows of the engine registry in
``tests/sim/test_conformance.py``; slot-exact scalar-vs-vector policy and
strategy equivalence is its lockstep contract.  What stays here does not
fit a registry row:

* **distributional** -- Estimation's returned round index, in law, next
  to its runtime;
* **pinned** -- fixed-seed regression tuples freezing the batched
  bitstreams, so refactors that silently change the coupled RNG layout
  (rather than the law) fail loudly.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.adversary.suite import STRATEGY_REGISTRY, make_adversary, strategy_names
from repro.adversary.vector import (
    BATCHED_STRATEGY_REGISTRY,
    is_batchable,
    make_batched_adversary,
)
from repro.core.config import default_slot_budget
from repro.protocols.estimation import EstimationPolicy
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNoCDSweepPolicy,
)
from repro.sim.batched import simulate_uniform_batched
from repro.sim.fast import simulate_uniform_fast

N = 64
EPS = 0.5
T = 8


def batched(policy_factory, adversary, reps, seed, max_slots, n=N):
    return simulate_uniform_batched(
        policy_factory,
        n,
        lambda r: make_batched_adversary(adversary, T=T, eps=EPS, reps=r),
        reps=reps,
        max_slots=max_slots,
        root_seed=seed,
    )


def scalar_runs(make_policy, adversary, reps, max_slots, n=N, **kwargs):
    out = []
    for seed in range(reps):
        out.append(
            simulate_uniform_fast(
                make_policy(),
                n=n,
                adversary=make_adversary(adversary, T=T, eps=EPS),
                max_slots=max_slots,
                seed=seed,
                **kwargs,
            )
        )
    return out


def assert_ks(batch_sample, scalar_sample, label):
    ks = stats.ks_2samp(
        np.asarray(batch_sample, dtype=float), np.asarray(scalar_sample, dtype=float)
    )
    assert ks.pvalue > 1e-4, (
        f"batched vs scalar {label} distributions diverge: "
        f"KS p={ks.pvalue:.2e}, medians "
        f"{np.median(batch_sample):.0f} vs {np.median(scalar_sample):.0f}"
    )


def test_registry_covers_full_suite():
    assert set(BATCHED_STRATEGY_REGISTRY) == set(STRATEGY_REGISTRY)
    for name in strategy_names():
        assert is_batchable(name), name


def test_estimation_round_and_time_distributions_agree():
    """Estimation(2) standalone: both the returned round index and the
    runtime must match in law (n=256 so log log n is informative)."""
    reps = 200
    batch = batched(
        lambda r: VectorEstimationPolicy(r, L=2), "saturating", reps, 47, 50_000, n=256
    )
    scalar = scalar_runs(
        lambda: EstimationPolicy(L=2),
        "saturating",
        reps,
        50_000,
        n=256,
        halt_on_single=True,
    )
    assert_ks(batch.slots, [r.slots for r in scalar], "Estimation time")
    b_rounds = [int(v) for v in batch.policy_results if v >= 0]
    s_rounds = [r.policy_result for r in scalar if r.policy_result is not None]
    assert b_rounds and s_rounds
    assert_ks(b_rounds, s_rounds, "Estimation round")
    # The Single-halt fraction must agree too (binomial z-test, coarse).
    b_single = float(np.mean(batch.elected))
    s_single = float(np.mean([r.elected for r in scalar]))
    assert abs(b_single - s_single) < 0.15


class TestRegressionPins:
    """Fixed-seed bitstream pins for the batched adaptive/vector paths.

    These freeze the coupled RNG layout (policy draws, adversary grants,
    leader attribution): a legitimate change to the law shows up in the KS
    tests of ``tests/sim/test_conformance.py``; a pin-only failure means the
    stream layout moved."""

    def test_reactive_lesk_pin(self):
        batch = batched(lambda r: VectorLESKPolicy(EPS, r), "reactive", 8, 1234, 100_000)
        assert tuple(int(v) for v in batch.slots) == (85, 71, 60, 66, 65, 78, 68, 66)
        assert tuple(int(v) for v in batch.jams) == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_lesu_pin(self):
        budget = default_slot_budget(N, EPS, T, "lesu")
        batch = batched(
            lambda r: VectorLESUPolicy(r), "estimator-attacker", 6, 77, budget
        )
        assert batch.elected.all()
        assert tuple(int(v) for v in batch.slots) == (7, 10, 81, 9, 65, 11)

    def test_estimation_pin(self):
        batch = batched(
            lambda r: VectorEstimationPolicy(r, L=2),
            "collision-forcer",
            8,
            55,
            50_000,
            n=256,
        )
        assert tuple(int(v) for v in batch.slots) == (14, 14, 14, 14, 12, 14, 14, 13)
        assert tuple(int(v) for v in batch.policy_results) == (3, 3, 3, 3, -1, 3, -1, -1)

    def test_nocd_pin(self):
        batch = batched(
            lambda r: VectorNoCDSweepPolicy(r), "single-suppressor", 8, 42, 100_000
        )
        assert tuple(int(v) for v in batch.slots) == (64, 80, 64, 65, 78, 71, 63, 64)
