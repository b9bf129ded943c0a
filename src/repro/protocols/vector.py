"""Vectorized uniform policies: one shared-state column per replication.

The batched engine (:mod:`repro.sim.batched`) advances ``R`` independent
replications per NumPy step, so it needs the :class:`UniformPolicy`
contract lifted to ``(R,)`` arrays: array-valued ``transmit_probabilities``
and a masked ``observe_batch`` that only updates the still-active columns.

Each column evolves by exactly the scalar policy's update rule, driven by
its own observation sequence -- the per-column state trajectory (hence the
election-time distribution) is identical to running the scalar policy
under :func:`repro.sim.fast.simulate_uniform_fast`, which is what the
KS cross-validation in ``tests/sim/test_conformance.py`` asserts.

Implemented policies:

* :class:`VectorLESKPolicy` -- Algorithm 1 (the paper's headline protocol);
* :class:`VectorSweepPolicy` -- the Nakano--Olariu geometric
  doubling-sweep baseline (``repro.protocols.baselines.nakano_olariu``);
* :class:`VectorEstimationPolicy` -- ``Estimation(L)`` (Function 2);
* :class:`VectorLESUPolicy` -- Algorithm 2 (estimation phase + diagonal
  LESK sub-run schedule), the weak-CD/unknown-eps protocol;
* :class:`VectorNoCDSweepPolicy` -- the no-CD repeated sweep baseline;
* :class:`VectorNotificationPolicy` -- Notification (Function 4), the
  weak-CD wrapper of Lemma 3.1, one column per station cell of the
  vectorized faithful engine (:mod:`repro.sim.vectorized`).
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.protocols.intervals import IntervalId, interval_of_slot
from repro.protocols.lesk import lesk_parameter_a
from repro.protocols.lesu import DEFAULT_C, SubRun, lesu_schedule
from repro.types import ChannelState

__all__ = [
    "VectorUniformPolicy",
    "VectorLESKPolicy",
    "VectorSweepPolicy",
    "VectorEstimationPolicy",
    "VectorLESUPolicy",
    "VectorNoCDSweepPolicy",
    "VectorNotificationPolicy",
]

#: Largest exponent for which ``2**-u`` is a positive double (matches
#: ``repro.protocols.base.probability_from_exponent``).
_MAX_EXPONENT = 1074.0

_NULL = int(ChannelState.NULL)
_SINGLE = int(ChannelState.SINGLE)
_COLLISION = int(ChannelState.COLLISION)


def probabilities_from_exponents(u: np.ndarray) -> np.ndarray:
    """Vectorized ``probability_from_exponent``: ``2**-u`` elementwise,
    clamped to exactly 1.0 for ``u <= 0`` and exactly 0.0 for huge ``u``.

    Bit-identical to the former ``exp2(-clip(u, 0, MAX))`` formulation
    (``maximum`` realizes the lower clamp; values above ``_MAX_EXPONENT``
    are overwritten by the mask either way), one clip pass cheaper -- the
    engines' own in-place ``[0, 1]`` clip is the only clip left per slot.
    """
    p = np.maximum(u, 0.0)
    np.negative(p, out=p)
    np.exp2(p, out=p)
    p[u >= _MAX_EXPONENT] = 0.0
    return p


class VectorUniformPolicy(abc.ABC):
    """Shared-state uniform protocol over ``reps`` independent columns.

    The batched engine calls, for each global step ``s = 0, 1, 2, ...``:

    1. ``p = policy.transmit_probabilities(s)`` -- shape ``(reps,)``;
    2. (channel resolves per column) ;
    3. ``policy.observe_batch(s, states, active)`` with the per-column
       observed :class:`~repro.types.ChannelState` codes and the mask of
       columns that should actually advance (columns retired by a
       successful ``Single`` are excluded, mirroring the scalar engines
       not calling ``observe`` for the halting slot).
    """

    def __init__(self, reps: int) -> None:
        if reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {reps}")
        self.reps = int(reps)

    @abc.abstractmethod
    def transmit_probabilities(self, step: int) -> np.ndarray:
        """Common per-station transmission probability, per column."""

    @abc.abstractmethod
    def observe_batch(
        self, step: int, states: np.ndarray, active: np.ndarray
    ) -> None:
        """Advance the columns selected by ``active`` given their observed
        channel-state codes (``states``, int array of shape ``(reps,)``)."""

    @property
    def u(self) -> np.ndarray:
        """Per-column estimator values (NaN where not applicable)."""
        return np.full(self.reps, np.nan)

    @property
    def completed(self) -> np.ndarray:
        """Mask of columns that finished of their own accord."""
        return np.zeros(self.reps, dtype=bool)

    @property
    def policy_results(self) -> np.ndarray | None:
        """Per-column policy result values (int64, ``-1`` = none), or
        ``None`` for policies without a result notion -- the batched
        counterpart of the scalar ``UniformPolicy.result``."""
        return None

    @property
    def is_leader(self) -> np.ndarray | None:
        """Per-column leader flags of a policy that resolves Singles
        itself, or ``None`` (the default) for a first-``Single`` policy,
        whose ``Single`` the engine resolves.

        The vectorized faithful engine hands such a policy every heard
        ``Single``, reads each replication's leader count off these flags
        and asks :meth:`probe` for the adversary's view of station 0.
        """
        return None

    def probe(self, cells: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
        """``(p, u)`` hints of the selected *cells* before slot *step*
        begins -- only for policies whose :attr:`is_leader` is not None.

        It must not change the policy: the engine skips it when the
        adversary's jams are granted a block at a time."""
        raise NotImplementedError(f"{type(self).__name__} resolves no Singles")

    def compact(self, keep: np.ndarray) -> None:
        """Drop every column not selected by ``keep`` (sorted index array).

        Used by the batched engine's dead-rep compaction: retired columns
        are packed out of the live batch, and since every update rule is
        elementwise, slicing the per-column state arrays preserves the
        surviving columns' trajectories exactly.  Policies whose state is
        fully covered override this; the base raises so a policy with
        unknown extra state cannot be silently mis-compacted.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support dead-rep compaction"
        )


class VectorLESKPolicy(VectorUniformPolicy):
    """Batched Algorithm 1: the LESK estimator walk, one column per rep.

    Update rule per column (identical to
    :class:`~repro.protocols.lesk.LESKPolicy`): ``Null`` steps ``u`` down
    by 1 (floored at 0), ``Collision`` steps it up by ``1/a`` with
    ``a = 8/eps``, ``Single`` marks the column completed.
    """

    def __init__(
        self,
        eps: float,
        reps: int,
        initial_u: float = 0.0,
        floor_at_zero: bool = True,
    ) -> None:
        super().__init__(reps)
        if initial_u < 0.0:
            raise ConfigurationError(f"initial_u must be >= 0, got {initial_u}")
        self.eps = float(eps)
        self.a = lesk_parameter_a(eps)
        self.initial_u = float(initial_u)
        self.floor_at_zero = floor_at_zero
        self._u = np.full(self.reps, self.initial_u)
        self._completed = np.zeros(self.reps, dtype=bool)

    def transmit_probabilities(self, step: int) -> np.ndarray:
        return probabilities_from_exponents(self._u)

    def observe_batch(self, step, states, active):
        nulls = active & (states == _NULL)
        collisions = active & (states == _COLLISION)
        singles = active & (states == _SINGLE)
        np.subtract(self._u, 1.0, out=self._u, where=nulls)
        if self.floor_at_zero:
            np.maximum(self._u, 0.0, out=self._u, where=nulls)
        np.add(self._u, 1.0 / self.a, out=self._u, where=collisions)
        self._completed |= singles

    @property
    def u(self) -> np.ndarray:
        return self._u

    @property
    def completed(self) -> np.ndarray:
        return self._completed

    def compact(self, keep):
        self.reps = int(np.asarray(keep).size)
        self._u = self._u[keep]
        self._completed = self._completed[keep]

    def __repr__(self) -> str:
        return f"VectorLESKPolicy(eps={self.eps}, reps={self.reps})"


class VectorSweepPolicy(VectorUniformPolicy):
    """Batched geometric doubling-sweep baseline (Nakano--Olariu, CD model).

    Per column (identical to
    :class:`~repro.protocols.baselines.nakano_olariu.UniformSweepPolicy`):
    sawtooth sweeps ``u = 0, 1, ..., K`` with the ceiling ``K`` doubling
    after each sweep; a ``Single`` marks the column completed.
    """

    def __init__(self, reps: int, initial_ceiling: int = 1) -> None:
        super().__init__(reps)
        if initial_ceiling < 1:
            raise ConfigurationError(
                f"initial_ceiling must be >= 1, got {initial_ceiling}"
            )
        self._u = np.zeros(self.reps, dtype=np.int64)
        self._ceiling = np.full(self.reps, int(initial_ceiling), dtype=np.int64)
        self._completed = np.zeros(self.reps, dtype=bool)

    def transmit_probabilities(self, step: int) -> np.ndarray:
        return probabilities_from_exponents(self._u.astype(np.float64))

    def observe_batch(self, step, states, active):
        singles = active & (states == _SINGLE)
        self._completed |= singles
        advance = active & ~singles
        self._u[advance] += 1
        wrap = advance & (self._u > self._ceiling)
        self._u[wrap] = 0
        self._ceiling[wrap] *= 2

    @property
    def u(self) -> np.ndarray:
        return self._u.astype(np.float64)

    @property
    def completed(self) -> np.ndarray:
        return self._completed

    def compact(self, keep):
        self.reps = int(np.asarray(keep).size)
        self._u = self._u[keep]
        self._ceiling = self._ceiling[keep]
        self._completed = self._completed[keep]

    def __repr__(self) -> str:
        return f"VectorSweepPolicy(reps={self.reps})"


class VectorNoCDSweepPolicy(VectorUniformPolicy):
    """Batched no-CD sweep baseline: each exponent of sweep ``K`` repeated
    ``K`` times, per column identical to
    :class:`~repro.protocols.baselines.nakano_olariu.NoCDSweepPolicy`."""

    def __init__(self, reps: int, initial_ceiling: int = 2) -> None:
        super().__init__(reps)
        if initial_ceiling < 1:
            raise ConfigurationError(
                f"initial_ceiling must be >= 1, got {initial_ceiling}"
            )
        self._u = np.zeros(self.reps, dtype=np.int64)
        self._ceiling = np.full(self.reps, int(initial_ceiling), dtype=np.int64)
        self._repeat_left = self._ceiling.copy()
        self._completed = np.zeros(self.reps, dtype=bool)

    def transmit_probabilities(self, step: int) -> np.ndarray:
        return probabilities_from_exponents(self._u.astype(np.float64))

    def observe_batch(self, step, states, active):
        singles = active & (states == _SINGLE)
        self._completed |= singles
        advance = active & ~singles
        self._repeat_left[advance] -= 1
        move = advance & (self._repeat_left <= 0)
        self._u[move] += 1
        wrap = move & (self._u > self._ceiling)
        self._u[wrap] = 0
        self._ceiling[wrap] *= 2
        # Scalar semantics: the repeat count is refilled from the ceiling
        # *after* a potential doubling.
        self._repeat_left[move] = self._ceiling[move]

    @property
    def u(self) -> np.ndarray:
        return self._u.astype(np.float64)

    @property
    def completed(self) -> np.ndarray:
        return self._completed

    def compact(self, keep):
        self.reps = int(np.asarray(keep).size)
        self._u = self._u[keep]
        self._ceiling = self._ceiling[keep]
        self._repeat_left = self._repeat_left[keep]
        self._completed = self._completed[keep]

    def __repr__(self) -> str:
        return f"VectorNoCDSweepPolicy(reps={self.reps})"


class VectorEstimationPolicy(VectorUniformPolicy):
    """Batched ``Estimation(L)`` (Function 2), one column per replication.

    Per column identical to
    :class:`~repro.protocols.estimation.EstimationPolicy`: round ``r`` has
    ``2**r`` slots at probability ``2**-(2**r)``; a round with at least
    ``L`` nulls (or hitting ``max_round``) sets the column's result.
    :attr:`policy_results` exposes the per-column returned round indices.
    """

    def __init__(self, reps: int, L: int = 2, max_round: int = 60) -> None:
        super().__init__(reps)
        if L < 1:
            raise ConfigurationError(f"L must be >= 1, got {L}")
        if max_round < 1:
            raise ConfigurationError(f"max_round must be >= 1, got {max_round}")
        self.L = int(L)
        self.max_round = int(max_round)
        self._round = np.ones(self.reps, dtype=np.int64)
        self._left = np.full(self.reps, 2, dtype=np.int64)
        self._nulls = np.zeros(self.reps, dtype=np.int64)
        self._result = np.full(self.reps, -1, dtype=np.int64)
        # Round r's probability 2**-(2**r) only depends on r: precompute the
        # whole table once per batch instead of exponentiating every slot.
        self._prob_table = _estimation_probability_table(self.max_round)

    def transmit_probabilities(self, step: int) -> np.ndarray:
        return self._prob_table[self._round]

    def observe_batch(self, step, states, active):
        act = active & (self._result < 0)
        self._nulls[act & (states == _NULL)] += 1
        self._left[act] -= 1
        expired = act & (self._left == 0)
        if not expired.any():
            return
        done = expired & (
            (self._nulls >= self.L) | (self._round >= self.max_round)
        )
        self._result[done] = self._round[done]
        cont = expired & ~done
        self._round[cont] += 1
        self._left[cont] = 2 ** self._round[cont]
        self._nulls[cont] = 0

    @property
    def current_round(self) -> np.ndarray:
        return self._round

    @property
    def completed(self) -> np.ndarray:
        return self._result >= 0

    @property
    def policy_results(self) -> np.ndarray:
        return self._result

    def compact(self, keep):
        self.reps = int(np.asarray(keep).size)
        self._round = self._round[keep]
        self._left = self._left[keep]
        self._nulls = self._nulls[keep]
        self._result = self._result[keep]

    def __repr__(self) -> str:
        return f"VectorEstimationPolicy(L={self.L}, reps={self.reps})"


@lru_cache(maxsize=None)
def _estimation_probability_table(max_round: int) -> np.ndarray:
    """``table[r] = 2**-(2**r)`` for rounds ``0..max_round`` (read-only)."""
    exponents = np.minimum(2.0 ** np.arange(max_round + 1), _MAX_EXPONENT + 1.0)
    table = probabilities_from_exponents(exponents)
    table.setflags(write=False)
    return table


class _LESUScheduleTable:
    """Flat, lazily extended view of one ``lesu_schedule(t0)`` stream.

    Columns of a batch (and rep-blocks of a sharded sweep) that produced
    the same estimation result share the same ``t0 = c * 2**(1 + round)``,
    so the sub-run sequence is memoised per ``(c, round)`` key via
    :func:`_lesu_table` instead of re-walking the generator per column.
    """

    def __init__(self, t0: float) -> None:
        self._it = lesu_schedule(t0)
        self._subruns: list[SubRun] = []

    def get(self, index: int) -> SubRun:
        while len(self._subruns) <= index:
            self._subruns.append(next(self._it))
        return self._subruns[index]


@lru_cache(maxsize=None)
def _lesu_table(c: float, round_index: int) -> _LESUScheduleTable:
    return _LESUScheduleTable(c * 2.0 ** (1 + round_index))


#: Sub-run durations are clamped here when stored (int64 safety): diagonals
#: deep enough to overflow are beyond any reachable ``max_slots`` anyway.
_DURATION_CAP = np.int64(2) ** 62


class VectorLESUPolicy(VectorUniformPolicy):
    """Batched Algorithm 2 (LESU): estimation phase + diagonal LESK
    sub-run schedule, one column per replication.

    Per column identical to :class:`~repro.protocols.lesu.LESUPolicy`:
    runs ``Estimation(L)`` until a round with ``L`` nulls fixes
    ``t0 = c * 2**(1 + round)``, then sweeps LESK sub-runs
    ``LESK(2**(-j/3))`` for ``ceil(3 * 2**i * t0 / j)`` slots along the
    diagonal schedule.  Each sub-run starts a fresh LESK walk (``u = 0``);
    a ``Single`` completes the column.  During estimation the estimator
    exposure ``u`` is ``2**round`` -- the same value the scalar policy
    shows an :class:`~repro.adversary.adaptive.EstimatorAttacker`.
    """

    def __init__(
        self,
        reps: int,
        c: float = DEFAULT_C,
        L: int = 2,
        max_round: int = 60,
    ) -> None:
        super().__init__(reps)
        if c <= 0:
            raise ConfigurationError(f"c must be > 0, got {c}")
        self.c = float(c)
        self.L = int(L)
        self.max_round = int(max_round)
        # Estimation-phase state (mirrors VectorEstimationPolicy).
        self._in_est = np.ones(self.reps, dtype=bool)
        self._est_round = np.ones(self.reps, dtype=np.int64)
        self._est_left = np.full(self.reps, 2, dtype=np.int64)
        self._est_nulls = np.zeros(self.reps, dtype=np.int64)
        self._est_result = np.full(self.reps, -1, dtype=np.int64)
        self._est_prob_table = _estimation_probability_table(self.max_round)
        # Election-phase state: current sub-run index, its remaining slots
        # and LESK parameter, and the in-sub-run estimator walk.
        self._sub_index = np.full(self.reps, -1, dtype=np.int64)
        self._steps_left = np.zeros(self.reps, dtype=np.int64)
        self._a = np.ones(self.reps)
        self._u = np.zeros(self.reps)
        self._completed = np.zeros(self.reps, dtype=bool)
        self.subruns_started = np.zeros(self.reps, dtype=np.int64)
        # Cached ``self._in_est.any()``: long runs spend almost all slots
        # with every column past estimation, where the flag elides the
        # whole estimation branch (and its mask algebra) per slot.
        self._any_in_est = True

    def _start_subruns(self, cols: np.ndarray) -> None:
        """Enter each selected column's sub-run ``self._sub_index[col]``."""
        for col in np.flatnonzero(cols):
            table = _lesu_table(self.c, int(self._est_result[col]))
            sub = table.get(int(self._sub_index[col]))
            self._a[col] = lesk_parameter_a(sub.eps)
            self._steps_left[col] = min(sub.duration, int(_DURATION_CAP))
            self._u[col] = 0.0  # fresh LESK walk per sub-run
            self.subruns_started[col] += 1

    def transmit_probabilities(self, step: int) -> np.ndarray:
        if not self._any_in_est:
            # Post-estimation fast path (the common regime for long runs):
            # identical values, without the table gather and the blend.
            return probabilities_from_exponents(self._u)
        return np.where(
            self._in_est,
            self._est_prob_table[self._est_round],
            probabilities_from_exponents(self._u),
        )

    def observe_batch(self, step, states, active):
        singles = active & (states == _SINGLE)
        self._completed |= singles
        # singles is a subset of active, so xor is the set difference.
        act = active ^ singles
        if not self._any_in_est:
            self._observe_election(act, states)
            return
        # Scalar semantics: a column still estimating at entry only runs
        # the estimation update this slot -- the sub-run machinery starts
        # on the *next* observation, and the halting Single never advances
        # either phase.
        in_est = act & self._in_est
        # in_est is a subset of act, so xor is the set difference.
        election = act ^ in_est

        if in_est.any():
            self._est_nulls[in_est & (states == _NULL)] += 1
            self._est_left[in_est] -= 1
            expired = in_est & (self._est_left == 0)
            if expired.any():
                done = expired & (
                    (self._est_nulls >= self.L)
                    | (self._est_round >= self.max_round)
                )
                self._est_result[done] = self._est_round[done]
                cont = expired & ~done
                self._est_round[cont] += 1
                self._est_left[cont] = 2 ** self._est_round[cont]
                self._est_nulls[cont] = 0
                if done.any():
                    self._in_est[done] = False
                    self._sub_index[done] = 0
                    self._start_subruns(done)
                    self._any_in_est = bool(self._in_est.any())

        if election.any():
            self._observe_election(election, states)

    def _observe_election(self, election: np.ndarray, states: np.ndarray) -> None:
        """Advance the LESK sub-run walk for the selected columns."""
        nulls = election & (states == _NULL)
        collisions = election & (states == _COLLISION)
        np.subtract(self._u, 1.0, out=self._u, where=nulls)
        np.maximum(self._u, 0.0, out=self._u, where=nulls)
        np.add(self._u, 1.0 / self._a, out=self._u, where=collisions)
        np.subtract(self._steps_left, 1, out=self._steps_left, where=election)
        over = election & (self._steps_left <= 0)
        if over.any():
            self._sub_index[over] += 1
            self._start_subruns(over)

    @property
    def u(self) -> np.ndarray:
        return np.where(self._in_est, 2.0**self._est_round, self._u)

    @property
    def in_estimation(self) -> np.ndarray:
        return self._in_est

    @property
    def completed(self) -> np.ndarray:
        return self._completed

    def compact(self, keep):
        self.reps = int(np.asarray(keep).size)
        self._in_est = self._in_est[keep]
        self._est_round = self._est_round[keep]
        self._est_left = self._est_left[keep]
        self._est_nulls = self._est_nulls[keep]
        self._est_result = self._est_result[keep]
        self._sub_index = self._sub_index[keep]
        self._steps_left = self._steps_left[keep]
        self._a = self._a[keep]
        self._u = self._u[keep]
        self._completed = self._completed[keep]
        self.subruns_started = self.subruns_started[keep]
        if self._any_in_est:
            self._any_in_est = bool(self._in_est.any())

    def __repr__(self) -> str:
        return f"VectorLESUPolicy(c={self.c}, reps={self.reps})"


# Phase codes of VectorNotificationPolicy, one per
# repro.protocols.notification.Phase member, and the phase that runs A in
# (or transmits in) each interval class j.
_RUN_C1, _RUN_C2, _NOTIFY_LEADER, _NOTIFY_NONLEADER, _DONE = range(5)
_RUN = {1: _RUN_C1, 2: _RUN_C2}
_NOTIFY = {1: _NOTIFY_NONLEADER, 3: _NOTIFY_LEADER}


class VectorNotificationPolicy(VectorUniformPolicy):
    """Notification (Function 4) over ``width`` station cells.

    Follows :class:`~repro.protocols.notification.NotificationStation`
    rule for rule, one column per cell of the vectorized faithful engine:

    * per-cell phase and leader arrays (leader ``-1`` = undefined);
    * one vector copy of ``A`` (``factory(width)``) for the ``C_1`` runs
      and one for the ``C_2`` runs, each replaced at the first slot of an
      interval of its class.  The partition is a pure function of the
      slot, so this is the scalar station's restart of ``A`` at each new
      interval: a cell only joins a run set at an interval start;
    * the notify phases transmit with ``p = 1`` in their interval class
      and ``p = 0`` elsewhere.

    ``A``'s copies see what the scalar station feeds ``A``: ``Collision``
    when the cell transmitted (the engine's weak-CD states) and the heard
    state otherwise, except a heard ``Single``, which drives the phase
    transitions instead.  The policy resolves Singles itself
    (:attr:`is_leader`), so the engine retires a replication once every
    cell is done.  Under churn, a cell asleep at an interval start takes
    the fresh copy, which the scalar station would create on waking.
    """

    def __init__(
        self,
        factory: Callable[[int], VectorUniformPolicy],
        width: int,
        partition: Callable[[int], IntervalId | None] = interval_of_slot,
    ) -> None:
        super().__init__(width)
        self.factory = factory
        self.partition = partition
        self.phase = np.full(self.reps, _RUN_C1, dtype=np.int8)
        self._leader = np.full(self.reps, -1, dtype=np.int8)
        # Whether the cell holds a running copy of A (set on its first slot
        # in its run set, dropped on every phase change).
        self._has_copy = np.zeros(self.reps, dtype=bool)
        self._copies = {1: factory(self.reps), 2: factory(self.reps)}
        self._iv: IntervalId | None = None  # this slot's interval

    def transmit_probabilities(self, step: int) -> np.ndarray:
        iv = self._iv = self.partition(step)
        p = np.zeros(self.reps)
        if iv is None:
            return p
        if iv.j in _RUN:
            if iv.offset == 0:
                self._copies[iv.j] = self.factory(self.reps)
            running = self.phase == _RUN[iv.j]
            self._has_copy |= running
            copy_p = self._copies[iv.j].transmit_probabilities(step)
            np.copyto(p, copy_p, where=running)
        if iv.j in _NOTIFY:
            p[self.phase == _NOTIFY[iv.j]] = 1.0
        return p

    def observe_batch(self, step, states, active):
        iv = self._iv  # located by transmit_probabilities for this slot
        if iv is None:
            return
        single = active & (states == _SINGLE)
        if iv.j in _RUN:
            run = active & (self.phase == _RUN[iv.j]) & ~single
            self._copies[iv.j].observe_batch(step, states, run)
        if iv.j == 1:
            # First Single: a leader candidate exists and it is not this
            # listener, which moves to the C2 execution of A.
            to_c2 = single & (self.phase == _RUN_C1)
            self._leader[to_c2] = 0
            self._set_phase(to_c2, _RUN_C2)
            # A Null in C1 acknowledges the leader's announcement.
            self._set_phase(
                active & (states == _NULL) & (self.phase == _NOTIFY_LEADER), _DONE
            )
        elif iv.j == 2:
            # Only the C1 transmitter missed the first Single, so only it
            # still has leader undefined: it is the leader.
            lead = single & (self._leader < 0)
            follow = single & (self._leader == 0) & (self.phase == _RUN_C2)
            self._leader[lead] = 1
            self._set_phase(lead, _NOTIFY_LEADER)
            self._set_phase(follow, _NOTIFY_NONLEADER)
        else:
            # The leader announced itself: everyone still waiting finishes.
            end = single & (self.phase != _NOTIFY_LEADER)
            self._leader[end & (self._leader < 0)] = 0
            self._set_phase(end, _DONE)

    def _set_phase(self, cells: np.ndarray, phase: int) -> None:
        self.phase[cells] = phase
        self._has_copy[cells] = False

    def probe(self, cells, step):
        """``NotificationStation.transmit_probability_hint()`` and
        ``u_hint()`` of *cells*: the running copy's ``p`` and ``u``, even
        outside its run set; ``p = 1`` while notifying, ``0`` once done;
        NaN while the cell holds no copy."""
        phase = self.phase[cells]
        has_copy = self._has_copy[cells]
        p = np.full(cells.size, np.nan)
        u = np.full(cells.size, np.nan)
        for j, copy in self._copies.items():
            on = has_copy & (phase == _RUN[j])
            if on.any():
                p[on] = copy.transmit_probabilities(step)[cells[on]]
                u[on] = copy.u[cells[on]]
        p[(phase == _NOTIFY_LEADER) | (phase == _NOTIFY_NONLEADER)] = 1.0
        p[phase == _DONE] = 0.0
        return p, u

    @property
    def completed(self) -> np.ndarray:
        return self.phase == _DONE

    @property
    def is_leader(self) -> np.ndarray:
        return self._leader == 1

    def __repr__(self) -> str:
        return f"VectorNotificationPolicy(width={self.reps})"
