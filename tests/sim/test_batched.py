"""Cross-validation: the batched cross-replication engine is
*distributionally* equivalent to the scalar fast engine.

Per-column exactness argument: each batch column sees binomial transmitter
draws with its own probability, an independent jam sequence clamped by an
identical per-column (T, 1-eps) budget, and evolves by the scalar policy's
update rule.  We verify with two-sample KS tests over election-time samples
(fixed seeds) for LESK and the geometric doubling-sweep baseline, plus
deterministic invariants every batch must satisfy.  The engine registry in
``tests/sim/test_conformance.py`` checks the same law alongside the other
engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.adversary.suite import make_adversary
from repro.adversary.validation import check_bounded
from repro.adversary.vector import is_batchable, make_batched_adversary
from repro.errors import ConfigurationError
from repro.protocols.baselines.nakano_olariu import UniformSweepPolicy
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import VectorLESKPolicy, VectorSweepPolicy
from repro.sim.batched import simulate_uniform_batched
from repro.sim.fast import simulate_uniform_fast

N = 64
EPS = 0.5
T = 8
REPS = 200


def batched_lesk(adversary: str, reps=REPS, seed=99, max_slots=100_000):
    return simulate_uniform_batched(
        lambda r: VectorLESKPolicy(EPS, r),
        N,
        lambda r: make_batched_adversary(adversary, T=T, eps=EPS, reps=r),
        reps=reps,
        max_slots=max_slots,
        root_seed=seed,
    )


def scalar_times(adversary: str, make_policy, reps=REPS) -> np.ndarray:
    out = []
    for seed in range(reps):
        result = simulate_uniform_fast(
            make_policy(),
            n=N,
            adversary=make_adversary(adversary, T=T, eps=EPS),
            max_slots=100_000,
            seed=seed,
        )
        assert result.elected
        out.append(result.slots)
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize(
    "adversary", ["none", "saturating", "periodic-front", "random"]
)
def test_lesk_time_distributions_agree(adversary):
    batch = batched_lesk(adversary)
    assert batch.elected.all()
    scalar = scalar_times(adversary, lambda: LESKPolicy(EPS))
    ks = stats.ks_2samp(batch.slots.astype(float), scalar)
    assert ks.pvalue > 1e-4, (
        f"batched vs scalar election-time distributions diverge under "
        f"{adversary}: KS p={ks.pvalue:.2e}, "
        f"medians {np.median(batch.slots):.0f} vs {np.median(scalar):.0f}"
    )
    assert np.median(batch.slots) == pytest.approx(np.median(scalar), rel=0.25)


def test_sweep_time_distributions_agree():
    """The geometric doubling-sweep baseline, no adversary (the sweep is
    not robust to jamming, so the quiet channel is its natural regime)."""
    batch = simulate_uniform_batched(
        lambda r: VectorSweepPolicy(r),
        N,
        lambda r: make_batched_adversary("none", T=T, eps=EPS, reps=r),
        reps=REPS,
        max_slots=100_000,
        root_seed=5,
    )
    assert batch.elected.all()
    scalar = scalar_times("none", lambda: UniformSweepPolicy())
    ks = stats.ks_2samp(batch.slots.astype(float), scalar)
    assert ks.pvalue > 1e-4, (
        f"KS p={ks.pvalue:.2e}, medians "
        f"{np.median(batch.slots):.0f} vs {np.median(scalar):.0f}"
    )


def test_jam_count_distributions_agree():
    """Not just times: the granted-jam counts must match in law too."""
    batch = batched_lesk("saturating")
    scalar_jams = []
    for seed in range(REPS):
        result = simulate_uniform_fast(
            LESKPolicy(EPS),
            n=N,
            adversary=make_adversary("saturating", T=T, eps=EPS),
            max_slots=100_000,
            seed=seed,
        )
        scalar_jams.append(result.jams)
    ks = stats.ks_2samp(batch.jams.astype(float), np.asarray(scalar_jams, float))
    assert ks.pvalue > 1e-4


class TestInvariants:
    def test_reproducible(self):
        a = batched_lesk("saturating", seed=21)
        b = batched_lesk("saturating", seed=21)
        assert np.array_equal(a.slots, b.slots)
        assert np.array_equal(a.leaders, b.leaders)
        assert np.array_equal(a.jams, b.jams)

    def test_leaders_in_range(self):
        batch = batched_lesk("saturating", reps=64)
        assert ((batch.leaders >= 0) & (batch.leaders < N))[batch.elected].all()

    def test_results_are_harness_compatible(self):
        batch = batched_lesk("none", reps=16)
        results = batch.results()
        assert len(results) == 16
        for r, result in zip(range(16), results):
            assert result.n == N
            assert result.elected
            assert result.slots == int(batch.slots[r])
            assert result.leader == int(batch.leaders[r])
            assert result.first_single_slot == result.slots - 1
            assert not result.timed_out
            assert result.energy.transmissions == int(batch.transmissions[r])

    def test_timeout_reported_per_column(self):
        batch = batched_lesk("saturating", reps=32, max_slots=8)
        # n=64 cannot elect in 8 slots starting from u=0 (p=1 collisions).
        assert (~batch.elected).all()
        assert batch.timed_out.all()
        assert (batch.slots == 8).all()

    def test_jams_bounded_even_under_saturation(self):
        batch = batched_lesk("saturating", reps=64)
        # Saturating requests every slot; grants must respect (T, 1-eps):
        # at most (1-eps) * max(slots, T) + padding slack per column.
        cap = np.ceil((1.0 - EPS) * np.maximum(batch.slots, T)) + T
        assert (batch.jams <= cap).all()

    def test_scripted_columns_are_budget_sound(self):
        """Drive the array budget through the engine and validate the
        per-column grant pattern post-hoc via the scalar checker.  Grants
        are logged at full width by original column, so the log survives
        the engine packing retired columns out."""
        reps = 16
        granted_log = []

        class RecordingAdversary:
            def __init__(self):
                self.inner = make_batched_adversary(
                    "saturating", T=T, eps=EPS, reps=reps
                )
                self.budget = self.inner.budget
                self.live = np.arange(reps)

            def reset(self, seed=None):
                self.inner.reset(seed=seed)
                self.budget = self.inner.budget

            def decide(self, view):
                granted = self.inner.decide(view)
                row = np.zeros(reps, dtype=bool)
                row[self.live] = granted
                granted_log.append(row)
                return granted

            def compact(self, keep):
                self.inner.compact(keep)
                self.budget = self.inner.budget
                self.live = self.live[keep]

        simulate_uniform_batched(
            lambda r: VectorLESKPolicy(EPS, r),
            N,
            lambda r: RecordingAdversary(),
            reps=reps,
            max_slots=2_000,
            root_seed=13,
        )
        pattern = np.vstack(granted_log)
        for r in range(reps):
            assert check_bounded(pattern[:, r].tolist(), T=T, eps=EPS)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            batched_lesk("saturating", reps=0)
        with pytest.raises(ConfigurationError):
            batched_lesk("saturating", max_slots=0)
        with pytest.raises(ConfigurationError):
            make_batched_adversary("no-such-strategy", T=T, eps=EPS, reps=4)

    def test_is_batchable(self):
        from repro.adversary.suite import strategy_names

        # The adaptive family is vectorized too: full registry coverage.
        for name in strategy_names():
            assert is_batchable(name), name
        assert not is_batchable("no-such-strategy")
