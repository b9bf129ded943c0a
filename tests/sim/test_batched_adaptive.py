"""Cross-validation: vectorized *adaptive* adversaries and the new vector
policies (LESU, Estimation, no-CD sweep) match their scalar counterparts.

Two layers of evidence, alongside ``tests/sim/test_conformance.py``:

* **distributional** -- two-sample KS tests over election times (and
  granted-jam counts, since adaptive strategies condition on history the
  engines construct differently) between the batched engine and the scalar
  fast engine, per strategy;
* **pinned** -- fixed-seed regression tuples freezing the batched
  bitstreams, so refactors that silently change the coupled RNG layout
  (rather than the law) fail loudly.

Slot-exact scalar-vs-vector *strategy* equivalence is covered separately
by differential mode (``tests/resilience/test_differential.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.adversary.suite import STRATEGY_REGISTRY, make_adversary, strategy_names
from repro.adversary.vector import (
    BATCHED_STRATEGY_REGISTRY,
    is_batchable,
    make_batched_adversary,
)
from repro.core.config import default_slot_budget
from repro.protocols.baselines.nakano_olariu import NoCDSweepPolicy
from repro.protocols.estimation import EstimationPolicy
from repro.protocols.lesk import LESKPolicy
from repro.protocols.lesu import LESUPolicy
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
REPS = 200

ADAPTIVE = (
    "reactive",
    "single-suppressor",
    "estimator-attacker",
    "silence-masker",
    "collision-forcer",
)


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


@pytest.mark.parametrize("adversary", ADAPTIVE)
def test_adaptive_lesk_time_and_jam_distributions_agree(adversary):
    """Election times AND granted-jam counts, per adaptive strategy: the
    jam counts are the sharper check, because they depend on the channel
    history each engine hands the strategy."""
    batch = batched(lambda r: VectorLESKPolicy(EPS, r), adversary, REPS, 99, 100_000)
    assert batch.elected.all()
    scalar = scalar_runs(lambda: LESKPolicy(EPS), adversary, REPS, 100_000)
    assert all(r.elected for r in scalar)
    assert_ks(batch.slots, [r.slots for r in scalar], f"{adversary} time")
    assert_ks(batch.jams, [r.jams for r in scalar], f"{adversary} jams")


def test_lesu_distributions_agree():
    """VectorLESUPolicy (estimation phase + diagonal LESK sub-runs) against
    the scalar Algorithm 2 under the saturating jammer."""
    reps = 120
    budget = default_slot_budget(N, EPS, T, "lesu")
    batch = batched(lambda r: VectorLESUPolicy(r), "saturating", reps, 31, budget)
    assert batch.elected.all()
    scalar = scalar_runs(lambda: LESUPolicy(), "saturating", reps, budget)
    assert all(r.elected for r in scalar)
    assert_ks(batch.slots, [r.slots for r in scalar], "LESU time")


def test_lesu_under_adaptive_jammer_distributions_agree():
    reps = 120
    budget = default_slot_budget(N, EPS, T, "lesu")
    batch = batched(
        lambda r: VectorLESUPolicy(r), "estimator-attacker", reps, 32, budget
    )
    assert batch.elected.all()
    scalar = scalar_runs(lambda: LESUPolicy(), "estimator-attacker", reps, budget)
    assert all(r.elected for r in scalar)
    assert_ks(batch.slots, [r.slots for r in scalar], "LESU/estimator-attacker time")


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


def test_nocd_sweep_distributions_agree():
    """The no-CD repeated sweep under an adaptive jammer: the policy
    ignores feedback, so only the jam/channel coupling is exercised."""
    batch = batched(
        lambda r: VectorNoCDSweepPolicy(r), "single-suppressor", REPS, 53, 100_000
    )
    assert batch.elected.all()
    scalar = scalar_runs(lambda: NoCDSweepPolicy(), "single-suppressor", REPS, 100_000)
    assert all(r.elected for r in scalar)
    assert_ks(batch.slots, [r.slots for r in scalar], "no-CD sweep time")


class TestRegressionPins:
    """Fixed-seed bitstream pins for the batched adaptive/vector paths.

    These freeze the coupled RNG layout (policy draws, adversary grants,
    leader attribution): a legitimate change to the law shows up in the KS
    tests above; a pin-only failure means the stream layout moved."""

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
