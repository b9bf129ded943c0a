"""Runtime invariant auditor: budget, channel and election checks."""

import numpy as np
import pytest

from repro.adversary.budget import JammingBudgetArray
from repro.adversary.suite import make_adversary
from repro.adversary.validation import WindowAuditor
from repro.adversary.vector import make_batched_adversary
from repro.errors import InvariantViolationError
from repro.protocols.base import UniformStationAdapter
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import VectorLESKPolicy
from repro.resilience.auditor import (
    AuditContext,
    BatchInvariantAuditor,
    InvariantAuditor,
    OverBudgetAdversary,
)
from repro.sim.batched import simulate_uniform_batched
from repro.sim.engine import simulate_stations
from repro.sim.fast import simulate_uniform_fast
from repro.types import CDMode, ChannelState


def _cheater(T=8, eps=0.5):
    honest = make_adversary("saturating", T=T, eps=eps)
    return OverBudgetAdversary(honest.strategy, T=T, eps=eps)


class TestBudgetInvariant:
    def test_honest_adversary_passes_fast(self):
        auditor = InvariantAuditor(8, 0.5)
        result = simulate_uniform_fast(
            LESKPolicy(0.5), n=32,
            adversary=make_adversary("saturating", T=8, eps=0.5),
            max_slots=4096, seed=5, auditor=auditor,
        )
        assert result.elected
        assert auditor.slots_checked == result.slots

    def test_honest_adversary_passes_faithful(self):
        auditor = InvariantAuditor(8, 0.5)
        stations = [
            UniformStationAdapter(LESKPolicy(0.5), cd_mode=CDMode.STRONG)
            for _ in range(16)
        ]
        result = simulate_stations(
            stations, adversary=make_adversary("saturating", T=8, eps=0.5),
            cd_mode=CDMode.STRONG, max_slots=4096, seed=5,
            stop_on_first_single=True, auditor=auditor,
        )
        assert result.elected
        assert auditor.slots_checked == result.slots

    def test_over_budget_trips_fast(self):
        ctx = AuditContext(seed=5, engine="fast", n=32, protocol="lesk",
                           T=8, eps=0.5, max_slots=4096,
                           adversary="overbudget:saturating")
        auditor = InvariantAuditor(8, 0.5, context=ctx)
        with pytest.raises(InvariantViolationError) as exc:
            simulate_uniform_fast(
                LESKPolicy(0.5), n=32, adversary=_cheater(),
                max_slots=4096, seed=5, auditor=auditor,
            )
        bundle = exc.value.bundle
        assert bundle is not None
        assert bundle.invariant == "budget"
        assert bundle.replayable
        # Saturating + T=8, eps=0.5: the first window [0, 8) already holds
        # 8 jams against an allowance of 4.
        assert (bundle.slot_start, bundle.slot_end) == (0, 8)

    def test_over_budget_trips_faithful(self):
        auditor = InvariantAuditor(8, 0.5)
        stations = [
            UniformStationAdapter(LESKPolicy(0.5), cd_mode=CDMode.STRONG)
            for _ in range(16)
        ]
        with pytest.raises(InvariantViolationError, match="budget"):
            simulate_stations(
                stations, adversary=_cheater(),
                cd_mode=CDMode.STRONG, max_slots=4096, seed=5,
                stop_on_first_single=True, auditor=auditor,
            )


class TestChannelInvariant:
    def test_inconsistent_observation_trips(self):
        auditor = InvariantAuditor(8, 0.5)
        # k=0 without jamming must be observed NULL; claim COLLISION.
        with pytest.raises(InvariantViolationError, match="channel"):
            auditor.observe_slot(0, 0, False, ChannelState.COLLISION)

    def test_corrupted_slot_exempt(self):
        auditor = InvariantAuditor(8, 0.5)
        auditor.observe_slot(0, 0, False, ChannelState.COLLISION, corrupted=True)
        auditor.observe_slot(1, 2, False, None, corrupted=True)  # erased
        assert auditor.slots_checked == 2

    def test_erasure_without_fault_trips(self):
        auditor = InvariantAuditor(8, 0.5)
        with pytest.raises(InvariantViolationError, match="channel"):
            auditor.observe_slot(0, 1, False, None)


class TestElectionInvariant:
    def test_multiple_leaders_trip(self):
        auditor = InvariantAuditor(8, 0.5)
        with pytest.raises(InvariantViolationError, match="election"):
            auditor.check_election(2)

    def test_single_leader_passes(self):
        auditor = InvariantAuditor(8, 0.5)
        auditor.check_election(1, leader=3, deciding_slot=10)

    def test_crashed_at_decision_trips(self):
        auditor = InvariantAuditor(8, 0.5)
        with pytest.raises(InvariantViolationError, match="election"):
            auditor.check_election(1, leader=3, deciding_slot=10, leader_awake=False)


class TestBatchAuditor:
    def test_clean_batched_run(self):
        auditor = BatchInvariantAuditor(8, 0.5, reps=4)
        result = simulate_uniform_batched(
            lambda reps: VectorLESKPolicy(0.5, reps), 32,
            lambda reps: make_batched_adversary("saturating", T=8, eps=0.5, reps=reps),
            4, 4096, root_seed=5, auditor=auditor,
        )
        assert result.elected.all()

    def test_over_jammed_column_trips_with_column(self):
        T, eps, reps = 8, 0.5, 3
        ctx = AuditContext(seed=1, engine="batched", n=16, protocol="lesk",
                           T=T, eps=eps, adversary="overbudget:saturating")
        auditor = BatchInvariantAuditor(T, eps, reps, context=ctx)
        k = np.zeros(reps, dtype=np.int64)
        observed = np.full(reps, np.int8(ChannelState.COLLISION))
        jam = np.array([False, True, False])  # column 1 jams every slot
        clean = np.array(
            [np.int8(ChannelState.NULL), np.int8(ChannelState.COLLISION),
             np.int8(ChannelState.NULL)]
        )
        with pytest.raises(InvariantViolationError) as exc:
            for slot in range(T + 1):
                auditor.observe_slot(slot, k, jam, clean)
        bundle = exc.value.bundle
        assert bundle.invariant == "budget"
        assert bundle.column == 1

    def test_channel_check_vectorized(self):
        auditor = BatchInvariantAuditor(8, 0.5, reps=2)
        k = np.array([1, 0], dtype=np.int64)
        jam = np.zeros(2, dtype=bool)
        bad = np.array([np.int8(ChannelState.SINGLE), np.int8(ChannelState.SINGLE)])
        with pytest.raises(InvariantViolationError, match="channel"):
            auditor.observe_slot(0, k, jam, bad)

    def test_corruption_mask_exempts(self):
        auditor = BatchInvariantAuditor(8, 0.5, reps=2)
        k = np.array([1, 0], dtype=np.int64)
        jam = np.zeros(2, dtype=bool)
        bad = np.array([np.int8(ChannelState.SINGLE), np.int8(ChannelState.SINGLE)])
        corrupted = np.array([False, True])
        auditor.observe_slot(0, k, jam, bad, corrupted=corrupted)


def _audit_rows(seed, *, reps=5, slots=300, T=8, eps=0.5, cheat=None, wrong=None):
    """Random rows an engine could report: honest grants, any observation
    in corrupted or inactive cells; *cheat* ``(column, slot)`` jams that
    column from that slot on, *wrong* ``(slot, column)`` misreports one
    uncorrupted active cell."""
    rng = np.random.default_rng(seed)
    budget = JammingBudgetArray(T, eps, reps)
    jammed = np.array([budget.grant(rng.random(reps) < 0.7) for _ in range(slots)])
    if cheat is not None:
        column, start = cheat
        jammed[start:, column] = True
    k = rng.integers(0, 4, size=(slots, reps))
    expected = np.where(jammed, 2, np.minimum(k, 2)).astype(np.int8)
    observed = expected.copy()
    corrupted = rng.random((slots, reps)) < 0.1
    active = np.arange(slots)[:, None] < rng.integers(slots // 2, slots + 1, reps)
    loose = corrupted | ~active
    observed[loose] = rng.integers(0, 3, size=int(loose.sum()))
    if wrong is not None:
        slot, column = wrong
        corrupted[slot, column] = False
        active[slot, column] = True
        observed[slot, column] = (expected[slot, column] + 1) % 3
    return k, jammed, observed, corrupted, active


def _feed(auditor, rows, sizes):
    """Report *rows* in blocks of *sizes* (cycled; size 0 means one
    :meth:`observe_slot` per slot); returns the violation raised."""
    k, jammed, observed, corrupted, active = rows
    start, i = 0, 0
    try:
        while start < len(k):
            size = sizes[i % len(sizes)]
            i += 1
            if size == 0:
                auditor.observe_slot(
                    start, k[start], jammed[start], observed[start],
                    corrupted=corrupted[start], active=active[start],
                )
                start += 1
                continue
            end = start + size
            auditor.observe_block(
                start, k[start:end], jammed[start:end], observed[start:end],
                corrupted=corrupted[start:end], active=active[start:end],
            )
            start = end
    except InvariantViolationError as exc:
        b = exc.bundle
        return (type(exc), str(exc), b.invariant, b.detail, b.slot_start,
                b.slot_end, b.column)
    return None


def _end_state(auditor):
    phi = np.concatenate([c[0] for c in auditor._pending])
    J = np.concatenate([c[1] for c in auditor._pending])
    return (
        auditor._slot, auditor.slots_checked, auditor._folded,
        auditor._J.tolist(), auditor._min_phi.tolist(), auditor._argmin.tolist(),
        auditor._argmin_J.tolist(), phi.tolist(), J.tolist(),
    )


class TestBlockAudit:
    """``observe_block`` checks, raises and leaves what as many
    ``observe_slot`` calls do."""

    #: Rows per case, and the invariant the first violation breaks.
    CASES = {
        "clean": ({}, None),
        "over-budget": ({"cheat": (3, 150)}, "budget"),
        "wrong-state": ({"wrong": (170, 2)}, "channel"),
        "channel-first": ({"cheat": (1, 200), "wrong": (120, 4)}, "channel"),
        "budget-first-in-block": ({"cheat": (0, 96), "wrong": (101, 1)}, "budget"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_block_equals_slots(self, case, seed):
        T, eps, reps = 8, 0.5, 5
        kwargs, invariant = self.CASES[case]
        rows = _audit_rows(seed, reps=reps, T=T, eps=eps, **kwargs)
        ctx = AuditContext(seed=seed, engine="vectorized", n=16, T=T, eps=eps)
        slotwise = BatchInvariantAuditor(T, eps, reps, context=ctx)
        expected = _feed(slotwise, rows, [0])
        assert (expected and expected[2]) == invariant
        for sizes in ([64], [1, 7, 64], [300], [5, 0, 33]):
            blockwise = BatchInvariantAuditor(T, eps, reps, context=ctx)
            assert _feed(blockwise, rows, sizes) == expected, sizes
            assert _end_state(blockwise) == _end_state(slotwise), sizes

    def test_transient_window_longer_than_T(self):
        # J F J F J after four free slots: 3 jams in the 5-slot window
        # [4, 9) exceed 2.5, yet no 4-slot window holds more than 2.  The
        # window's start is folded in the same block and lies before
        # 9 - T, and the violation is gone by the next slot: one block
        # must still find it, from the running minimum of the potentials.
        T, eps = 4, 0.5
        jams = [0, 0, 0, 0, 1, 0, 1, 0, 1] + [0] * 7
        jammed = np.array(jams, dtype=bool)[:, None]
        k = np.zeros((len(jams), 1), dtype=np.int64)
        observed = np.where(jammed, 2, 0).astype(np.int8)
        rows = (k, jammed, observed, np.zeros_like(jammed), np.ones_like(jammed))
        for sizes in ([0], [16]):
            auditor = BatchInvariantAuditor(T, eps, 1, context=AuditContext())
            raised = _feed(auditor, rows, sizes)
            assert raised[2:] == (
                "budget",
                "column 0: window [4, 9) of length 5: 3 jams > 2.5 allowed",
                4,
                9,
                0,
            ), sizes

    @pytest.mark.parametrize("seed", range(6))
    def test_budget_violation_matches_window_auditor(self, seed):
        # The first over-budget window is the scalar WindowAuditor's: the
        # earliest end slot, and the lowest column among those.
        T, eps, reps = 8, 0.5, 5
        cheat = (seed % reps, 40 + seed)
        rows = _audit_rows(seed, reps=reps, T=T, eps=eps, cheat=cheat)
        jammed = rows[1]
        first = None
        for column in range(reps):
            window = WindowAuditor(T, eps)
            for slot, jam in enumerate(jammed[:, column].tolist()):
                violation = window.append(jam)
                if violation is not None:
                    if first is None or violation.end < first[0].end:
                        first = (violation, column)
                    break
        violation, column = first
        blockwise = BatchInvariantAuditor(T, eps, reps, context=AuditContext())
        raised = _feed(blockwise, rows, [64])
        assert raised[2] == "budget"
        assert raised[4:] == (violation.start, violation.end, column)
        assert raised[3] == f"column {column}: {violation.describe()}"
