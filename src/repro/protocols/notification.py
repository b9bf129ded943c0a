"""Notification (Function 4): weak-CD leader election from any
first-``Single`` algorithm, with constant-factor overhead (Lemma 3.1).

In weak-CD the station that transmits a successful ``Single`` does not hear
it -- everyone else learns a leader exists, but the leader itself does not.
Notification fixes this with the interval partition ``C_1, C_2, C_3`` of
:mod:`repro.protocols.intervals`:

1. All stations run algorithm ``A`` in the slots of ``C_1`` (restarting it
   with fresh randomness at the start of every interval ``C^i_1``), until a
   ``Single`` is heard in ``C_1`` (or ``C_2``).  The listeners now know a
   leader candidate ``l`` exists (``leader <- false``); ``l`` itself keeps
   running ``A`` in ``C_1``, oblivious.
2. The listeners run a fresh execution of ``A`` in the slots of ``C_2``.
   When its ``Single`` (by some station ``s``) is heard:
   * ``l`` -- the only station that missed the first ``Single`` and hence
     the only one with ``leader`` still undefined -- learns it is the
     leader and starts transmitting in **every** ``C_3`` slot;
   * every other listener starts transmitting in every ``C_1`` slot
     (keeping ``C_1`` busy so ``l`` does not quit early) and waits.
3. The adversary cannot jam an entire interval ``C^i_3`` of size
   ``2**i >= T``, so ``l``'s solo transmissions produce a ``Single`` in
   ``C_3``: all waiting stations terminate as non-leaders (and stop
   transmitting in ``C_1``).
4. ``C_1`` finally falls silent; the first ``Null`` that ``l`` hears in
   ``C_1`` tells it everyone knows, and it terminates as the leader.

Lemma 3.1: if ``A`` obtains its first ``Single`` in time ``t(n)`` with
probability ``>= 1 - 1/(3n)`` against any (T, 1-eps)-bounded adversary,
Notification elects a leader in time ``O(t(n))`` (at most ``8 * t(n)``)
with probability ``>= 1 - 1/n`` against the same adversary.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.protocols.base import StationProtocol, UniformPolicy
from repro.protocols.intervals import IntervalId, interval_of_slot
from repro.types import Action, CDMode, ChannelState, PerceivedState, SlotFeedback

__all__ = ["Phase", "NotificationStation"]


class Phase(enum.Enum):
    """Per-station phase of the Notification state machine."""

    RUN_C1 = "run-c1"
    RUN_C2 = "run-c2"
    NOTIFY_LEADER = "notify-leader"  # transmit in C3 until a Null in C1
    NOTIFY_NONLEADER = "notify-nonleader"  # transmit in C1 until a Single in C3
    DONE = "done"


class NotificationStation(StationProtocol):
    """Weak-CD station running Notification around algorithm ``A``.

    Parameters
    ----------
    algorithm_factory:
        Zero-argument callable producing a **fresh**
        :class:`~repro.protocols.base.UniformPolicy` instance of ``A``;
        called at the start of every interval (the paper reverts ``A`` to
        its initial state with fresh random choices at each restart).
    partition:
        Slot locator mapping a slot to its interval (default: the paper's
        doubling partition).  Ablation A9 swaps in
        :func:`~repro.protocols.intervals.fixed_partition` to show why the
        doubling matters.  It must be a pure function of the slot: the
        station asks once per slot, in :meth:`begin_slot`, and the
        built-in locators memoise their answers.
    """

    def __init__(
        self,
        algorithm_factory: Callable[[], UniformPolicy],
        partition: Callable[[int], IntervalId | None] = interval_of_slot,
    ) -> None:
        self.algorithm_factory = algorithm_factory
        self.partition = partition
        self._rng: np.random.Generator | None = None
        self.station_id: int | None = None
        self.phase = Phase.RUN_C1
        self._leader: bool | None = None
        self._alg: UniformPolicy | None = None
        self._alg_key: tuple[int, int] | None = None  # (j, i) of the running interval
        self._alg_step = 0
        self._alg_active_this_slot = False
        self._pending = False
        self._transmitted = False
        self._iv: IntervalId | None = None  # this slot's interval

    # -- StationProtocol -----------------------------------------------------

    def reset(self, station_id: int, rng: np.random.Generator) -> None:
        self.station_id = station_id
        self._rng = rng
        self.phase = Phase.RUN_C1
        self._leader = None
        self._alg = None
        self._alg_key = None
        self._alg_step = 0
        self._alg_active_this_slot = False
        self._pending = False
        self._transmitted = False
        self._iv = None

    def _run_set(self) -> int | None:
        """Which interval class (j) this station currently runs ``A`` in."""
        if self.phase is Phase.RUN_C1:
            return 1
        if self.phase is Phase.RUN_C2:
            return 2
        return None

    def begin_slot(self, slot: int) -> Action:
        if self._rng is None:
            raise ProtocolError("begin_slot before reset")
        if self._pending:
            raise ProtocolError("begin_slot called twice without end_slot")
        self._pending = True
        self._alg_active_this_slot = False
        self._transmitted = False
        if self.phase is Phase.DONE:
            return Action.LISTEN
        iv = self._iv = self.partition(slot)
        if iv is None:
            return Action.LISTEN

        run_set = self._run_set()
        if run_set is not None and iv.j == run_set:
            # Execute one step of A; restart at each new interval C^i_j.
            key = (iv.j, iv.i)
            if self._alg is None or self._alg_key != key:
                self._alg = self.algorithm_factory()
                self._alg_key = key
                self._alg_step = 0
            self._alg_active_this_slot = True
            p = self._alg.transmit_probability(self._alg_step)
            if p > 0.0 and self._rng.random() < p:
                self._transmitted = True
                return Action.TRANSMIT
            return Action.LISTEN
        if self.phase is Phase.NOTIFY_NONLEADER and iv.j == 1:
            self._transmitted = True
            return Action.TRANSMIT
        if self.phase is Phase.NOTIFY_LEADER and iv.j == 3:
            self._transmitted = True
            return Action.TRANSMIT
        return Action.LISTEN

    def end_slot(self, slot: int, feedback: SlotFeedback) -> None:
        if not self._pending:
            raise ProtocolError("end_slot without begin_slot")
        self._pending = False
        if self.phase is Phase.DONE:
            return
        iv = self._iv  # located by begin_slot for this same slot
        if iv is None:
            return

        # 1. Feed A its Broadcast(.) return value (weak-CD convention:
        #    transmitters assume Collision).
        if self._alg_active_this_slot and self._alg is not None:
            if feedback.transmitted:
                state_for_alg: ChannelState | None = ChannelState.COLLISION
            elif feedback.perceived is PerceivedState.SINGLE:
                state_for_alg = None  # A's goal reached; transitions below take over
            elif feedback.perceived is PerceivedState.UNKNOWN:
                state_for_alg = None  # fault-erased slot: no information for A
            else:
                state_for_alg = ChannelState(int(feedback.perceived))
            if state_for_alg is not None:
                self._alg.observe(self._alg_step, state_for_alg)
                self._alg_step += 1

        # 2. Phase transitions on heard events (listeners only: a weak-CD
        #    transmitter perceives UNKNOWN and never transitions here).
        if feedback.transmitted:
            return
        perceived = feedback.perceived
        if perceived is PerceivedState.SINGLE:
            self._on_single(iv)
        elif perceived is PerceivedState.NULL:
            if iv.j == 1 and self.phase is Phase.NOTIFY_LEADER:
                # Everyone else terminated and stopped transmitting in C1:
                # the leader's notification is acknowledged.
                self.phase = Phase.DONE

    def _on_single(self, iv: IntervalId) -> None:
        if iv.j == 1:
            if self.phase is Phase.RUN_C1:
                # First Single: a leader candidate exists; this station is
                # not it.  Move to the C2 execution of A.
                self._leader = False
                self.phase = Phase.RUN_C2
                self._drop_alg()
        elif iv.j == 2:
            if self._leader is None:
                # Only the C1 transmitter missed the first Single, so only
                # it still has leader undefined: it is the leader.
                self._leader = True
                self.phase = Phase.NOTIFY_LEADER
                self._drop_alg()
            elif self._leader is False and self.phase is Phase.RUN_C2:
                self.phase = Phase.NOTIFY_NONLEADER
                self._drop_alg()
        elif iv.j == 3:
            # The leader announced itself: everyone still waiting finishes.
            if self.phase in (Phase.RUN_C1, Phase.RUN_C2, Phase.NOTIFY_NONLEADER):
                if self._leader is None:
                    self._leader = False
                self.phase = Phase.DONE
                self._drop_alg()

    def _drop_alg(self) -> None:
        self._alg = None
        self._alg_key = None
        self._alg_step = 0

    # -- status ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.phase is Phase.DONE

    @property
    def is_leader(self) -> bool | None:
        return self._leader

    def transmit_probability_hint(self) -> float:
        # Only meaningful while the station is executing A; notification
        # phases transmit deterministically.
        if self._alg is not None:
            return self._alg.transmit_probability(self._alg_step)
        if self.phase in (Phase.NOTIFY_LEADER, Phase.NOTIFY_NONLEADER):
            return 1.0
        if self.phase is Phase.DONE:
            return 0.0
        return math.nan

    def u_hint(self) -> float:
        return self._alg.u if self._alg is not None else math.nan

    def __repr__(self) -> str:
        return (
            f"NotificationStation(phase={self.phase.value}, leader={self._leader})"
        )
