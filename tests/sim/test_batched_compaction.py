"""Dead-rep compaction: the packing stride never changes a result bit.

:func:`~repro.sim.batched.simulate_uniform_batched` packs retired columns
out of the live state every ``_PACK_STRIDE`` slots.  Its stream contract
makes that schedule invisible: per-slot stream consumption equals the
number of active columns in ascending original order, a quantity that
does not depend on when packing happens.  These tests force the private
stride to other values -- including one larger than the run, which never
packs and so keeps the full-width layout -- and require identical results.

The case table deliberately includes the edge cases: a column retiring
at the first opportunity (``n=1``), a cell where *no* column retires
(timeout), stride 1, and faults combined with compaction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.vector import make_batched_adversary
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNoCDSweepPolicy,
)
from repro.resilience.faults import FaultModel
from repro.sim import batched
from repro.sim.batched import simulate_uniform_batched

T = 8
EPS = 0.5

ARRAY_FIELDS = [
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
    "leader_survived",
    "policy_results",
]


def _faults():
    return FaultModel(
        flip_rate=0.05,
        erase_rate=0.05,
        crash_rate=0.002,
        join_slots=(5, 12),
        downgrade_slots=(3, 9),
        skew_rate=0.01,
    )


# name -> (engine kwargs, policy factory, strategy, reps, seed, extra kwargs)
CASES = {
    "reactive-lesk": (
        dict(n=64, max_slots=400),
        lambda r: VectorLESKPolicy(EPS, r),
        "reactive",
        8,
        1234,
        {},
    ),
    "lesu-estimator-attacker": (
        dict(n=64, max_slots=600),
        VectorLESUPolicy,
        "estimator-attacker",
        6,
        77,
        {},
    ),
    "estimation-completes": (
        dict(n=256, max_slots=400),
        VectorEstimationPolicy,
        "collision-forcer",
        8,
        55,
        {},
    ),
    "nocd-single-suppressor": (
        dict(n=64, max_slots=600),
        VectorNoCDSweepPolicy,
        "single-suppressor",
        8,
        42,
        {},
    ),
    "random-jammer-lesk": (
        dict(n=64, max_slots=300),
        lambda r: VectorLESKPolicy(EPS, r),
        "random",
        32,
        7,
        {},
    ),
    "faults-plus-compaction": (
        dict(n=64, max_slots=300),
        lambda r: VectorLESKPolicy(EPS, r),
        "saturating",
        32,
        11,
        dict(faults=_faults()),
    ),
    "no-column-retires": (
        dict(n=64, max_slots=8),
        lambda r: VectorLESKPolicy(EPS, r),
        "saturating",
        8,
        3,
        {},
    ),
    "all-retire-first-slot": (
        dict(n=1, max_slots=50),
        lambda r: VectorLESKPolicy(EPS, r),
        "none",
        8,
        9,
        {},
    ),
}


#: A stride no case reaches: the engine never packs, every retired column
#: stays materialized at full width.
NEVER_PACK = 10**9


def run_case(name: str, *, stride: int | None = None):
    kw, pol, strategy, reps, seed, extra = CASES[name]
    default = batched._PACK_STRIDE
    if stride is not None:
        batched._PACK_STRIDE = stride
    try:
        return simulate_uniform_batched(
            pol,
            adversary_factory=lambda r: make_batched_adversary(strategy, T, EPS, r),
            reps=reps,
            root_seed=seed,
            **kw,
            **extra,
        )
    finally:
        batched._PACK_STRIDE = default


def assert_identical(a, b) -> None:
    for field in ARRAY_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if x is None or y is None:
            assert x is None and y is None, field
        else:
            np.testing.assert_array_equal(x, y, err_msg=field)


class TestLegacyBitIdentity:
    """Packing at any stride == never packing (the full-width layout)."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("interval", [1, 4, 16])
    def test_matches_no_compaction(self, case, interval):
        base = run_case(case, stride=NEVER_PACK)
        got = run_case(case, stride=interval)
        assert_identical(base, got)


class TestPackedScheduleInvariance:
    """The stream is invariant under the packing schedule."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_intervals_agree(self, case):
        base = run_case(case)
        for interval in (1, 2, 4, 16, 37):
            got = run_case(case, stride=interval)
            assert_identical(base, got)


class TestResultsOrder:
    """``results()`` stays in original-rep order under any retirement order.

    The estimator-attacker LESU cell retires columns far out of index
    order (single-digit and near-timeout slot counts interleaved), so a
    compaction bug that reported packed positions instead of original
    rep indices would scramble this comparison.
    """

    def test_results_match_no_compaction_elementwise(self):
        base = run_case("lesu-estimator-attacker", stride=NEVER_PACK)
        got = run_case("lesu-estimator-attacker", stride=1)
        # Retirement order must actually be shuffled for this test to
        # bite: some later column retires before an earlier one.
        order = np.argsort(base.slots, kind="stable")
        assert not np.array_equal(order, np.arange(base.reps))
        assert got.results() == base.results()
        for r, res in enumerate(got.results()):
            assert res.slots == int(base.slots[r])

    def test_packed_results_keep_rep_alignment(self):
        base = run_case("random-jammer-lesk", stride=1)
        got = run_case("random-jammer-lesk", stride=16)
        assert got.results() == base.results()
