"""Slot-blocked megakernel engine for uniform policies vs predictable jammers.

The batched engine (:mod:`repro.sim.batched`) is dispatch-bound: ~55 Python
calls per slot (``decide``/``grant``/``observe_batch``/clips) dominate the
wall clock at realistic replication counts.  This engine removes the
per-slot dispatch for the configurations where nothing in the slot loop
actually *conditions* on per-slot randomness:

* the jam-grant schedule of an **oblivious** strategy is a pure function of
  the slot index (:meth:`VectorJammingStrategy.want_schedule`), and the
  ``(T, 1-eps)`` budget run over a deterministic want sequence produces the
  same grants for every column -- so one scalar
  :class:`~repro.adversary.budget.JammingBudget` per run decides every
  slot for all of them;
* so is the schedule of an **adaptive** strategy that reads only the
  protocol state (``p`` or ``u``, no RNG, no history: single-suppressor,
  silence-masker, collision-forcer, estimator-attacker) under a policy
  whose live columns all share one state sequence -- the sweep, the no-CD
  sweep and Estimation.  Their ladders report the next block's per-slot
  ``(p, u)`` rows without advancing, and ``want_schedule`` applies the
  strategy's ``wants_jam_batch`` rule along that slot axis;
* a jammed slot is observed as ``Collision`` by every active column, so a
  run of ``L`` granted slots shifts the policy schedule deterministically;
  the engine fuses the run *plus the first following free slot* into a
  single ``(L+1, W)`` binomial call over the precomputed exponent ladder;
* only the free slot's outcome feeds back into policy state (elections,
  Null/Collision updates), handled at the group boundary.

Supported policies are LESK, the sweep, the no-CD sweep and
``Estimation(L)``.  Estimation's rounds are shared by every live column,
so each probability row is one scalar lookup, and its columns can finish
on their own: a round end (slot ``2**(r+1) - 3``) always ends a block,
and there the columns with at least ``L`` Nulls retire as completed with
the budget's counters after that slot.  From round 11 on the round's
probability is exactly 0.0: a free slot is then a certain Null and
``binomial(n, 0.0)`` consumes no random numbers, so such blocks draw
nothing -- they only run the budget and count their free slots.  The CD
sweep's exponents from 1074 to the end of each sweep give the same
exactly-zero probability, and those stretches run the same way.

Block layout
------------
Slots are processed in blocks of ``_BLOCK_SLOTS``.  Each block's want
flags come from one ``want_schedule`` call (offered the ladder's shared
state view when it has one), and the run's
``JammingBudget`` decides them slot by slot, splitting the block into
*groups* (:func:`_grant_block`): maximal runs of granted slots plus at
most one trailing free slot.  Each group is one fused RNG call; free-slot
outcomes (the only conditioning points) are applied between groups.
Winners and completed columns are compacted out immediately, so draws
stay at the active width.

RNG-stream contract
-------------------
The root-seed prelude is byte-compatible with the batched engine
(``make_rng(root_seed)``; one spawned seed for the adversary).  Transmitter
draws follow the batched engine's stream: active-width binomials in
ascending original column order, winners' leader draws via
``rng.integers`` in ascending original order.  A fused ``(R, W)`` draw
consumes the bitstream exactly like ``R`` sequential ``(W,)`` draws (numpy
samples row-major, one probability at a time), so the fast path is
**bit-identical** to :func:`~repro.sim.batched.simulate_uniform_batched`
-- that stream is invariant to when retired columns are packed out, and
this engine is simply its maximal-compaction limit.  Block size never
changes results either: grouping is derived from the grant timeline,
block boundaries (and the stretch ends, which sit at fixed slots)
only split a jam run, and split fused draws consume the bitstream
exactly like the unsplit ones -- ``_BLOCK_SLOTS = 1`` is
bit-identical to ``_BLOCK_SLOTS >= max_slots`` (property-tested in
``tests/sim/test_megakernel.py``, which forces the private constant).

Eligibility
-----------
Every batched experiment cell enters here
(:func:`repro.experiments.harness.replicate_megakernel`), and
:func:`megakernel_eligibility` picks its path.  Anything that makes
per-slot conditioning real runs
:func:`repro.sim.batched.simulate_uniform_batched` with the original
arguments and counts ``engine_fallback_total{engine="megakernel",reason}``:
randomized strategies (no ``want_schedule``), strategies with feedback
hooks (the reactive jammer), state-reading strategies under LESK (its
columns' exponents differ, so it offers no shared state), non-default
adversary classes, strict budgets, enabled fault models, and policies
outside the supported set (LESK / sweep / no-CD sweep / Estimation).
Both paths consume one stream, so the path a configuration takes never
changes a result bit.  Audited runs call the batched engine directly.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from repro.adversary.budget import JammingBudget
from repro.adversary.vector import (
    BatchAdversaryView,
    BatchedAdversary,
    schedule_refusal,
)
from repro.errors import ConfigurationError
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
    VectorUniformPolicy,
    _estimation_probability_table,
    probabilities_from_exponents,
)
from repro.rng import RngLike, make_rng
from repro.sim.batched import BatchRunResult, simulate_uniform_batched
from repro.sim.instrumentation import EngineRecorder
from repro.telemetry import get_telemetry

__all__ = [
    "simulate_uniform_megakernel",
    "megakernel_eligibility",
]

#: Slots whose wants and grants are decided per block.  Results never
#: depend on this value (the block-invariance tests force it); it only
#: trades per-block overhead against running the budget ahead of columns
#: that may all retire early.
_BLOCK_SLOTS = 64


def _record_fallback(reason: str) -> None:
    """Count a run that the eligibility probe sent to the per-slot loop."""
    get_telemetry().counter(
        "engine_fallback_total", engine="megakernel", reason=reason
    ).inc()


def _grant_block(
    budget: JammingBudget, wants
) -> list[tuple[int, int, bool, int | None, int | None]]:
    """Decide one block of slots on the run's shared budget.

    A deterministic want sequence puts every column's budget in the same
    state, so one scalar :class:`JammingBudget` decides for all of them.
    Returns the block's fused groups ``(i, j, has_free, jams, denied)``:
    a maximal run of granted slots ``[i, j)`` plus, when ``has_free``, one
    trailing free slot at ``j`` -- with the budget's granted and denied
    counts after slot ``j``, which a column elected there reports.
    """
    groups = []
    i = 0
    for j, want in enumerate(wants.tolist()):
        if not budget.grant(want):
            groups.append(
                (i, j, True, budget.jams_granted, budget.denied_requests)
            )
            i = j + 1
    if i < len(wants):
        groups.append((i, len(wants), False, None, None))
    return groups


def _apply_lesk_outcomes(
    u: np.ndarray,
    k: np.ndarray,
    inv_a: float,
    floor_at_zero: bool = True,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
    nonneg: bool = False,
) -> None:
    """Fold one free slot's transmitter counts into the LESK exponents.

    In-place on ``u``: columns with ``k == 0`` (Null) step down by 1
    (floored at 0 when *floor_at_zero*), columns with ``k >= 2``
    (Collision) step up by ``inv_a``; ``k == 1`` columns are untouched
    (a Single either elects -- and is compacted out after this call --
    or marks completion without moving ``u``).  The ufunc sequence and
    order match :meth:`VectorLESKPolicy.observe_batch` exactly, so the
    update is bit-identical to the per-slot engines.

    *scratch* may hold two reusable boolean buffers of ``u``'s shape (the
    megakernel passes them so its hot loop never allocates the masks).

    *nonneg* asserts ``u >= 0`` everywhere (the megakernel's invariant
    when the floor is active and the start point is non-negative): the
    Null step then runs unmasked -- ``u - nulls`` subtracts exactly 1
    where Null and exactly 0 elsewhere, and the full-width floor is the
    identity on untouched columns -- which is cheaper than the buffered
    masked ufuncs but produces bit-identical results.
    """
    if scratch is None:
        nulls = k == 0
        colls = k >= 2
    else:
        nulls, colls = scratch
        np.equal(k, 0, out=nulls)
        np.greater_equal(k, 2, out=colls)
    if nonneg and floor_at_zero:
        np.subtract(u, nulls, out=u)
        np.maximum(u, 0.0, out=u)
    else:
        np.subtract(u, 1.0, out=u, where=nulls)
        if floor_at_zero:
            np.maximum(u, 0.0, out=u, where=nulls)
    np.add(u, inv_a, out=u, where=colls)


class _Ladder:
    """What the engine loop asks of a policy's ladder.

    ``prepare_group`` returns a fused group's probability rows,
    ``commit_jams`` adopts the state after the group's granted slots,
    ``apply_free_outcome`` and ``apply_collision_only`` fold in the
    trailing free slot, and ``compact`` drops retired columns.  ``peek``
    reports the next slots' shared ``(p, u)`` rows without advancing, or
    ``None`` when the columns do not share one state.  ``cut`` is the
    next slot at which a block must end (the engine then calls
    ``end_stretch``) and ``certain`` marks blocks whose draws are all
    exactly 0, which the engine hands to ``skip`` undrawn (see
    :class:`_SweepLadder` and :class:`_EstimationLadder`); the defaults
    say neither ever happens.
    """

    cut = sys.maxsize
    certain = False

    def peek(self, count: int) -> tuple[np.ndarray, np.ndarray] | None:
        return None

    def commit_jams(self) -> None:
        pass

    def apply_collision_only(self) -> None:
        pass

    def compact(self, keep: np.ndarray, new_width: int) -> None:
        pass


class _LESKLadder(_Ladder):
    """Vector exponent state for :class:`VectorLESKPolicy`.

    Jam runs shift every active column by ``m / a`` (Collision observed),
    so a group's exponent rows come from one ``np.add.accumulate`` -- the
    same sequential-add float results as the per-slot policy update.  Free
    slot outcomes are folded in by :func:`_apply_lesk_outcomes`.

    ``prepare_group`` returns the *probability* rows: with the floor
    active the exponents never go negative, so while the running upper
    bound ``ub`` (exponents only grow by ``1/a`` per slot) stays below the
    underflow guard, ``probabilities_from_exponents`` reduces bit-exactly
    to an in-place ``exp2(-rows)`` -- no ``max()`` reduction and no
    out-of-place pass on the hot path.
    """

    def __init__(self, policy: VectorLESKPolicy) -> None:
        reps = policy.reps
        # Exponents flip-flop between two full-width buffers: the shifted
        # ladder top becomes the next ``u`` without a copy, and winner
        # compaction gathers into the idle buffer via ``np.compress``.
        self._bufs = (np.empty(reps), np.empty(reps))
        self._cur = 0
        self.u = self._bufs[0][:reps]
        self.u[:] = policy.initial_u
        self.inv_a = 1.0 / policy.a
        self.floor = policy.floor_at_zero
        self._u_next = self.u
        self._next_cur = 0
        self.ub = float(policy.initial_u)
        self._ub_next = self.ub
        # The exp2 shortcut (and the outcome fold's unmasked path) rely on
        # the exponents staying non-negative: with the floor active that is
        # an invariant as long as the start point is itself >= 0 (Null
        # floors at 0, Collision only adds).
        self._fast = bool(policy.floor_at_zero) and policy.initial_u >= 0
        self._p1 = np.empty(reps)
        self._p2 = np.empty(2 * reps)

    def prepare_group(self, L: int, has_free: bool, width: int) -> np.ndarray:
        u = self.u
        if L == 0:
            self._u_next = u
            self._next_cur = self._cur
            self._ub_next = self.ub
            if self._fast and self.ub < 1074.0:
                p = self._p1[:width]
                np.negative(u, out=p)
                np.exp2(p, out=p)
                return p.reshape(1, width)
            return probabilities_from_exponents(u).reshape(1, width)
        if L == 1 and has_free and self._fast and self.ub + self.inv_a < 1074.0:
            # The steady-state group shape (one granted slot, one free
            # slot): two row-sized passes beat the generic ladder's
            # 2-row passes, and the shifted exponents double as the next
            # ``u`` without a copy.
            u_next = self._bufs[1 - self._cur][:width]
            np.add(u, self.inv_a, out=u_next)
            self._u_next = u_next
            self._next_cur = 1 - self._cur
            self._ub_next = self.ub + self.inv_a
            p = self._p2[: 2 * width].reshape(2, width)
            np.negative(u, out=p[0])
            np.exp2(p[0], out=p[0])
            np.negative(u_next, out=p[1])
            np.exp2(p[1], out=p[1])
            return p
        ladder = np.empty((L + 1, width))
        ladder[0] = u
        ladder[1:] = self.inv_a
        np.add.accumulate(ladder, axis=0, out=ladder)
        u_next = self._bufs[1 - self._cur][:width]
        np.copyto(u_next, ladder[L])
        self._u_next = u_next
        self._next_cur = 1 - self._cur
        ub = self.ub + L * self.inv_a
        self._ub_next = ub
        rows = ladder if has_free else ladder[:L]
        if self._fast and ub < 1074.0:
            np.negative(rows, out=rows)
            np.exp2(rows, out=rows)
            return rows
        return probabilities_from_exponents(rows)

    def commit_jams(self) -> None:
        self.u = self._u_next
        self._cur = self._next_cur
        self.ub = self._ub_next

    def apply_free_outcome(self, k: np.ndarray, scratch=None) -> None:
        """Fold a free slot's outcome into the exponents.

        Caller contract (megakernel-private): any ``k == 1`` column is a
        winner that is compacted out immediately after this call, so its
        exponent may be clobbered -- which lets the frequent no-Null case
        (every surviving column collided) collapse to one unmasked add.
        """
        self.ub += self.inv_a
        if self._fast and scratch is not None:
            # No Null anywhere: the masked fold is one unmasked add.
            nulls = scratch[0]
            np.equal(k, 0, out=nulls)
            if not np.count_nonzero(nulls):
                np.add(self.u, self.inv_a, out=self.u)
                return
        _apply_lesk_outcomes(
            self.u, k, self.inv_a, self.floor, scratch, self._fast
        )

    def apply_collision_only(self) -> None:
        """Every column collided (``k >= 2`` everywhere): the fold is one
        unmasked add, independent of the floor."""
        self.ub += self.inv_a
        np.add(self.u, self.inv_a, out=self.u)

    def compact(self, keep: np.ndarray, new_width: int) -> None:
        target = self._bufs[1 - self._cur][:new_width]
        np.compress(keep, self.u, out=target)
        self.u = target
        self._cur = 1 - self._cur


def _exp2_exact(exponent: int) -> float:
    """``2 ** -exponent`` for integer exponents, bit-equal to
    :func:`probabilities_from_exponents` (exact ``ldexp``, zero at the
    same ``>= 1074`` underflow guard)."""
    return 0.0 if exponent >= 1074 else math.ldexp(1.0, -exponent)


#: Exponents from here on give ``p = 0.0`` exactly (the underflow guard of
#: :func:`probabilities_from_exponents`).
_P_ZERO_EXPONENT = 1074


class _SweepLadder(_Ladder):
    """Scalar ladder for :class:`VectorSweepPolicy`.

    The sweep advances on *every* non-Single outcome, and an active column
    never observes a Single (winners retire first, jammed singles read as
    Collision), so the whole batch shares one ``(u, ceiling)`` pair -- the
    schedule is a pure function of the slot index, the fused draws are
    bit-identical to the packed engine's, and the probability rows are
    computed from exact scalar powers of two (no ``exp2`` array pass).

    From exponent 1074 to the end of its sweep the probability is exactly
    0.0 (``certain``): ``binomial(n, 0.0)`` consumes no random numbers and
    no column can win, so the engine only runs the budget there.  ``cut``
    alternates between the first slot of such a stretch and the first
    slot after it.
    """

    #: Slots per exponent: 1 here, the ceiling for the no-CD sweep.
    repeats = False

    def __init__(self, policy: VectorSweepPolicy) -> None:
        self.state = (int(policy._u[0]), int(policy._ceiling[0]), 1)
        self.cut = 0
        self.end_stretch()

    def _walk(self, count: int) -> tuple[list[int], tuple[int, int, int]]:
        """The next *count* slots' exponents and the ``(u, ceiling,
        slots left at u)`` state after them; advances nothing."""
        u, ceiling, left = self.state
        exponents = []
        for _ in range(count):
            exponents.append(u)
            left -= 1
            if left <= 0:
                u += 1
                if u > ceiling:
                    u = 0
                    ceiling *= 2
                left = ceiling if self.repeats else 1
        return exponents, (u, ceiling, left)

    def peek(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        u = np.array(self._walk(count)[0], dtype=np.float64)
        return probabilities_from_exponents(u), u

    def prepare_group(self, L: int, has_free: bool, width: int) -> np.ndarray:
        exponents, self.state = self._walk(L)
        if has_free:
            exponents.append(self.state[0])
        rows = np.empty((len(exponents), width))
        rows[:] = np.array([_exp2_exact(e) for e in exponents])[:, None]
        return rows

    def apply_free_outcome(self, k: np.ndarray, scratch=None) -> None:
        self.state = self._walk(1)[1]

    def apply_collision_only(self) -> None:
        self.state = self._walk(1)[1]

    def skip(self, count: int, free: int) -> None:
        self.state = self._walk(count)[1]

    def end_stretch(self) -> None:
        """Mark the stretch from slot ``cut`` on and move ``cut`` past it."""
        u, ceiling, _ = self.state
        self.certain = u >= _P_ZERO_EXPONENT
        if self.certain:
            self.cut += ceiling - u + 1
            return
        while ceiling < _P_ZERO_EXPONENT:
            self.cut += ceiling - u + 1
            u, ceiling = 0, 2 * ceiling
        self.cut += _P_ZERO_EXPONENT - u


class _NoCDSweepLadder(_SweepLadder):
    """Scalar ladder for :class:`VectorNoCDSweepPolicy` (each exponent of
    sweep ``K`` repeated ``K`` times; refill happens after a doubling).

    Its first ``p = 0`` slot lies about 3.6 million slots in (exponent
    1074 of the ceiling-2048 sweep), so it marks no certain stretch."""

    repeats = True

    def __init__(self, policy: VectorNoCDSweepPolicy) -> None:
        self.state = (
            int(policy._u[0]),
            int(policy._ceiling[0]),
            int(policy._repeat_left[0]),
        )


class _EstimationLadder(_Ladder):
    """Shared-round ladder for :class:`VectorEstimationPolicy`.

    Every live column observes every slot, so all of them are in the same
    round: round ``r`` covers slots ``2**r - 2 .. 2**(r+1) - 3``, and each
    probability row is one scalar lookup in the policy's own table.  Only
    the per-column Null counts differ.  ``cut`` is the first slot of the
    next round; the engine ends a block there and calls
    :meth:`end_stretch`, which retires the columns with at least ``L``
    Nulls.

    From round 11 on the probability is exactly 0.0 (``certain``): every
    draw would be 0 and ``binomial(n, 0.0)`` consumes no random numbers,
    so the engine skips the draws and counts each free slot as a Null.
    """

    def __init__(self, policy: VectorEstimationPolicy) -> None:
        self.L = policy.L
        self.max_round = policy.max_round
        self._table = _estimation_probability_table(policy.max_round)
        self.round = int(policy._round[0])
        self.cut = int(policy._left[0])
        self.nulls = np.zeros(policy.reps, dtype=np.int64)
        self._enter_round()

    def _enter_round(self) -> None:
        self.p = float(self._table[self.round])
        self.certain = self.p == 0.0

    def peek(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        # Blocks never cross a round end, and the policy exposes no
        # estimator (its ``u`` is NaN).
        return np.full(count, self.p), np.full(count, np.nan)

    def prepare_group(self, L: int, has_free: bool, width: int) -> np.ndarray:
        return np.full((L + has_free, width), self.p)

    def apply_free_outcome(self, k: np.ndarray, scratch=None) -> None:
        self.nulls += k == 0

    def skip(self, count: int, free: int) -> None:
        self.nulls += free

    def compact(self, keep: np.ndarray, new_width: int) -> None:
        self.nulls = self.nulls[keep]

    def end_stretch(self) -> tuple[int, np.ndarray]:
        """Close the current round: ``(round, mask of completing columns)``."""
        finished = self.round
        if finished >= self.max_round:
            return finished, np.ones(self.nulls.size, dtype=bool)
        done = self.nulls >= self.L
        self.round += 1
        self.cut += 2**self.round
        self.nulls[:] = 0
        self._enter_round()
        return finished, done


_LADDERS = {
    VectorLESKPolicy: _LESKLadder,
    VectorSweepPolicy: _SweepLadder,
    VectorNoCDSweepPolicy: _NoCDSweepLadder,
    VectorEstimationPolicy: _EstimationLadder,
}


def _state_view(
    ladder: _Ladder, n: int, slot: int, count: int
) -> BatchAdversaryView | None:
    """The protocol state of slots ``slot .. slot+count-1`` along the slot
    axis, as :meth:`VectorJammingStrategy.want_schedule` reads it, or
    ``None`` when the ladder's columns do not share one state."""
    rows = ladder.peek(count)
    if rows is None:
        return None
    p, u = rows
    # No state-reading strategy consults the budget.
    return BatchAdversaryView(
        slot=slot, n=n, reps=count, budget=None,
        transmit_probabilities=p, protocol_u=u,
    )


def megakernel_eligibility(policy, adversary, *, n: int, faults=None) -> str | None:
    """Return ``None`` when the fused fast path applies, else the reason
    the configuration must run per-slot (used as the fallback label).

    The adversary must pass
    :func:`~repro.adversary.vector.schedule_refusal`, its strategy offered
    the state view of the policy's ladder (of *n* stations) when its
    columns share one.
    """
    if faults is not None:
        from repro.resilience.faults import FaultModel

        if not (isinstance(faults, FaultModel) and not faults.enabled):
            return "faults"
    if type(policy) not in _LADDERS:
        return f"policy:{type(policy).__name__}"
    ladder = _LADDERS[type(policy)](policy)
    return schedule_refusal(adversary, _state_view(ladder, n, 0, 1))


def simulate_uniform_megakernel(
    policy_factory: Callable[[int], VectorUniformPolicy],
    n: int,
    adversary_factory: Callable[[int], BatchedAdversary],
    reps: int,
    max_slots: int,
    root_seed: RngLike = None,
    faults=None,
) -> BatchRunResult:
    """Run *reps* replications, on the fused fast path when eligible.

    Drop-in compatible with :func:`simulate_uniform_batched` (same
    factories, same :class:`BatchRunResult`); configurations the fast path
    cannot serve (:func:`megakernel_eligibility`) run the batched engine
    with the original arguments -- before the root seed is touched, so
    that run is byte-identical to calling the batched engine directly.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")

    policy = policy_factory(reps)
    if policy.reps != reps:
        raise ConfigurationError(
            f"policy_factory built reps={policy.reps}, expected {reps}"
        )
    adversary = adversary_factory(reps)
    reason = megakernel_eligibility(policy, adversary, n=n, faults=faults)
    if reason is not None:
        _record_fallback(reason)
        return simulate_uniform_batched(
            policy_factory,
            n,
            adversary_factory,
            reps,
            max_slots,
            root_seed=root_seed,
            faults=faults,
        )

    # -- prelude: byte-compatible with the batched engine -----------------
    rng = make_rng(root_seed)
    adversary.reset(seed=rng.spawn(1)[0])
    strategy = adversary.strategy
    budget = JammingBudget(adversary.T, adversary.eps)
    ladder = _LADDERS[type(policy)](policy)

    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "megakernel", adversary.strategy_name)
        if tel.enabled
        else None
    )
    if rec is not None:
        k_full = np.zeros(reps, dtype=np.int64)
        k_none = np.zeros(reps, dtype=np.int64)
        active_full = np.ones(reps, dtype=bool)
        jam_row = np.ones(reps, dtype=bool)
        free_row = np.zeros(reps, dtype=bool)

    # -- full-width results ------------------------------------------------
    slots = np.full(reps, max_slots, dtype=np.int64)
    leaders = np.full(reps, -1, dtype=np.int64)
    elected = np.zeros(reps, dtype=bool)
    first_single = np.full(reps, -1, dtype=np.int64)
    jams = np.zeros(reps, dtype=np.int64)
    jam_denied = np.zeros(reps, dtype=np.int64)
    transmissions = np.zeros(reps, dtype=np.int64)
    timed_out = np.ones(reps, dtype=bool)

    # -- packed live state -------------------------------------------------
    # Row 0: original column index; row 1: cumulative transmitter count.
    # Paired in one array so winner gathers and compactions are a single
    # fancy-index pass instead of two.
    live = np.empty((2, reps), dtype=np.int64)
    live[0] = np.arange(reps, dtype=np.int64)
    live[1] = 0
    orig = live[0]
    k_cum = live[1]
    width = reps

    binom = rng.binomial
    # Scratch views over full-width buffers; re-sliced when an election
    # or a completion shrinks the active width (a handful of times per run).
    ksum_buf = np.empty(reps, dtype=np.int64)
    flags = np.empty((3, reps), dtype=bool)
    ksum = ksum_buf[:width]
    b_null, b_coll, b_keep = flags[:, :width]
    scratch = (b_null, b_coll)
    # Retirement bookkeeping is deferred: only the leader draw must happen
    # in bitstream order, the rest is applied in one vectorized pass after
    # the loop.  Each event: (slot, columns, transmissions, jams, denied,
    # round), where round is the policy result of a completion and -1 for
    # an election.
    events: list[tuple] = []
    slot = 0
    while slot < max_slots and width:
        K = min(_BLOCK_SLOTS, max_slots - slot, ladder.cut - slot)
        wants = strategy.want_schedule(slot, K, _state_view(ladder, n, slot, K))
        if wants is None:  # pragma: no cover - eligibility probed slot 0
            raise ConfigurationError(
                f"strategy {adversary.strategy_name!r} stopped providing a "
                f"want schedule at slot {slot}"
            )
        if ladder.certain:
            # p is exactly 0.0: every draw is 0 and consumes no random
            # numbers, so only the grants run, each free slot is a Null
            # for every column, and no column can win.
            jams_before = budget.jams_granted
            for m, want in enumerate(wants.tolist()):
                jammed = budget.grant(want)
                if rec is not None:
                    rec.record_batch_slot(
                        slot + m,
                        k_none,
                        jam_row if jammed else free_row,
                        active_full,
                    )
            ladder.skip(K, K - (budget.jams_granted - jams_before))
            groups = ()
        else:
            groups = _grant_block(budget, wants)
        for i, j, has_free, jams_at, denied_at in groups:
            # One fused group: a maximal run of granted slots plus at most
            # one trailing free slot, all with exponents known up front.
            p_rows = ladder.prepare_group(j - i, has_free, width)
            k_rows = binom(n, p_rows)
            rows = k_rows.shape[0]
            if rows == 1:
                np.add(k_cum, k_rows[0], out=k_cum)
            elif rows == 2:
                np.add(k_rows[0], k_rows[1], out=ksum)
                np.add(k_cum, ksum, out=k_cum)
            else:
                np.add.reduce(k_rows, axis=0, out=ksum)
                np.add(k_cum, ksum, out=k_cum)
            if rec is not None:
                for m in range(k_rows.shape[0]):
                    k_full[:] = 0
                    k_full[orig] = k_rows[m]
                    jammed_row = jam_row if (i + m) < j else free_row
                    rec.record_batch_slot(
                        slot + i + m, k_full, jammed_row, active_full
                    )
            ladder.commit_jams()
            if not has_free:
                continue
            k = k_rows[-1]
            if k.min() >= 2:
                # All columns collided: no winners, no Nulls -- the whole
                # classification and fold collapses to one reduction plus
                # one add (the common case while p is still large).
                ladder.apply_collision_only()
                continue
            winners = np.equal(k, 1, out=b_null)
            n_won = np.count_nonzero(winners)
            if n_won:
                pair = live[:, winners]
                won = pair[0]
                leaders[won] = rng.integers(n, size=n_won)
                events.append((slot + j, won, pair[1], jams_at, denied_at, -1))
                if rec is not None:
                    active_full[won] = False
                keep = np.logical_not(winners, out=b_keep)
                # Fold the free outcome at full width first (winner
                # columns may be clobbered, they are dropped next), then
                # compact -- saves compacting k itself.
                ladder.apply_free_outcome(k, scratch)
                width -= n_won
                if width == 0:
                    # Empty the survivor views so the post-loop snapshot
                    # does not re-touch the final winners.
                    orig = orig[:0]
                    k_cum = k_cum[:0]
                    break
                live = live[:, keep]
                orig, k_cum = live
                ladder.compact(keep, width)
                ksum = ksum_buf[:width]
                b_null, b_coll, b_keep = flags[:, :width]
                scratch = (b_null, b_coll)
            else:
                ladder.apply_free_outcome(k, scratch)
        slot += K
        if slot == ladder.cut and width:
            # A stretch ends: the sweep's certain stretches start or stop
            # (nothing retires), or an Estimation round ends.  The block
            # stopped on the round's last slot, so the budget's counters
            # are those after that slot.
            ended = ladder.end_stretch()
            n_done = 0 if ended is None else np.count_nonzero(ended[1])
            if n_done:
                result, done = ended
                pair = live[:, done]
                events.append(
                    (slot - 1, pair[0], pair[1], budget.jams_granted,
                     budget.denied_requests, result)
                )
                if rec is not None:
                    active_full[pair[0]] = False
                width -= n_done
                keep = np.logical_not(done, out=b_keep)
                live = live[:, keep]
                orig, k_cum = live
                ladder.compact(keep, width)
                ksum = ksum_buf[:width]
                b_null, b_coll, b_keep = flags[:, :width]
                scratch = (b_null, b_coll)

    policy_completed = np.zeros(reps, dtype=bool)
    policy_results = (
        np.full(reps, -1, dtype=np.int64)
        if policy.policy_results is not None
        else None
    )
    if events:
        sizes = [event[1].size for event in events]
        cols = np.concatenate([event[1] for event in events])

        def per_column(field: int) -> np.ndarray:
            values = [event[field] for event in events]
            return np.repeat(np.array(values, dtype=np.int64), sizes)

        s_all = per_column(0)
        result_all = per_column(5)
        slots[cols] = s_all + 1
        jams[cols] = per_column(3)
        jam_denied[cols] = per_column(4)
        timed_out[cols] = False
        transmissions[cols] = np.concatenate([event[2] for event in events])
        won = result_all < 0
        elected[cols[won]] = True
        first_single[cols[won]] = s_all[won]
        policy_completed[cols[~won]] = True
        if policy_results is not None:
            policy_results[cols] = result_all

    # Survivors: snapshot the shared budget counters and the running
    # transmission totals (fault-free: listening = n * slots - tx).
    transmissions[orig] = k_cum
    jams[orig] = budget.jams_granted
    jam_denied[orig] = budget.denied_requests
    listening = slots * n
    listening -= transmissions

    if rec is not None:
        rec.finish(
            runs=reps,
            elections=int(elected.sum()),
            timeouts=int((timed_out & ~elected).sum()),
            jam_denied=int(jam_denied.sum()),
            last_slot=int(slots.max()),
        )
    return BatchRunResult(
        n=n,
        reps=reps,
        slots=slots,
        elected=elected,
        leaders=leaders,
        first_single_slot=first_single,
        jams=jams,
        jam_denied=jam_denied,
        transmissions=transmissions,
        listening=listening,
        policy_completed=policy_completed,
        timed_out=timed_out,
        leader_survived=None,
        policy_results=policy_results,
    )
