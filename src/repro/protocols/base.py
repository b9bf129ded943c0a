"""Protocol interfaces: shared-state uniform policies and per-station
protocols, plus the adapter between them.

Two levels of abstraction:

* :class:`UniformPolicy` -- the paper's algorithms written against the
  ``Broadcast(u)`` abstraction (Functions 1 and 3): a single transmission
  probability per slot plus a state update driven by the observed channel
  state.  A policy must be a *deterministic* function of its observation
  sequence; this is what makes one shared instance equivalent to n
  per-station copies (and is asserted by cross-validation tests).

* :class:`StationProtocol` -- the faithful per-station interface: an
  explicit transmit/listen action per slot and feedback filtered through
  the collision-detection mode.  Non-uniform baselines (ARS MAC) and the
  Notification wrapper implement this directly.

:class:`UniformStationAdapter` runs a private copy of a uniform policy
inside one station, applying the paper's ``Broadcast`` conventions:

* strong-CD (Function 1): every station receives the observed state; a
  station that hears/sends a successful ``Single`` learns the election is
  over (the transmitter knows it is the leader).
* weak-CD (Function 3): a transmitter receives no feedback and *assumes*
  ``Collision``; a listener that hears a ``Single`` knows a leader exists
  (but the leader itself does not -- hence the Notification wrapper).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.types import Action, CDMode, ChannelState, PerceivedState, SlotFeedback

__all__ = ["UniformPolicy", "StationProtocol", "UniformStationAdapter"]

#: Largest exponent for which ``2**-u`` is a positive double.
_MAX_EXPONENT = 1074.0


def probability_from_exponent(u: float) -> float:
    """``2**-u`` clamped against float underflow/overflow (u may be any real)."""
    if u <= 0.0:
        return 1.0
    if u >= _MAX_EXPONENT:
        return 0.0
    return 2.0 ** -u


class UniformPolicy(abc.ABC):
    """Shared-state description of a uniform protocol.

    The driver (fast engine or per-station adapter) calls, for each local
    step ``s = 0, 1, 2, ...``:

    1. ``p = policy.transmit_probability(s)`` -- the common probability;
    2. (channel resolves) ;
    3. ``policy.observe(s, state)`` with the observed channel state under
       the ``Broadcast`` convention of the CD mode in use.

    ``observe`` is *not* called for the step that ends the run (a
    successful ``Single`` in strong-CD), mirroring the paper's
    ``repeat ... until state = Single`` loop; policies should nevertheless
    tolerate observing ``SINGLE`` (they mark themselves completed).
    """

    @abc.abstractmethod
    def transmit_probability(self, step: int) -> float:
        """Common per-station transmission probability for local step *step*."""

    @abc.abstractmethod
    def observe(self, step: int, state: ChannelState) -> None:
        """Advance the shared state given the observed state of step *step*."""

    @property
    def u(self) -> float:
        """Current estimator value, if the policy has one (NaN otherwise)."""
        return math.nan

    @property
    def completed(self) -> bool:
        """Whether the policy finished of its own accord (e.g. Estimation
        returned a value).  Election by ``Single`` is signalled by the
        engine, not the policy."""
        return False

    @property
    def result(self) -> object | None:
        """Policy-specific result available once :attr:`completed`."""
        return None

    def clone(self) -> "UniformPolicy":
        """Fresh instance with identical parameters and *initial* state."""
        raise NotImplementedError


class StationProtocol(abc.ABC):
    """Per-station protocol driven by the faithful engine.

    Lifecycle: ``reset`` once, then alternating ``begin_slot`` /
    ``end_slot`` for every global slot until :attr:`done`.
    """

    @abc.abstractmethod
    def reset(self, station_id: int, rng: np.random.Generator) -> None:
        """Initialize for a new run.  ``station_id`` is for bookkeeping only
        (stations are anonymous in the model and must not use it to break
        symmetry); ``rng`` is the station's private randomness."""

    @abc.abstractmethod
    def begin_slot(self, slot: int) -> Action:
        """Decide to transmit or listen in global slot *slot*."""

    @abc.abstractmethod
    def end_slot(self, slot: int, feedback: SlotFeedback) -> None:
        """Receive the slot's feedback (already CD-mode filtered).

        *feedback* is immutable and shared: every station with the same
        action in the same slot receives the same object, so read it and
        never keep state on it.
        """

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """Whether the station has terminated its protocol."""

    @property
    @abc.abstractmethod
    def is_leader(self) -> bool | None:
        """Leader status: True / False once decided, None while undecided."""

    # -- optional introspection for traces and adaptive adversaries -------

    def transmit_probability_hint(self) -> float:
        """Transmission probability the station will use next (NaN if unknown)."""
        return math.nan

    def u_hint(self) -> float:
        """Current estimator value (NaN if not applicable)."""
        return math.nan


class UniformStationAdapter(StationProtocol):
    """Runs a private copy of a :class:`UniformPolicy` inside one station.

    Parameters
    ----------
    policy:
        A fresh policy instance owned by this station.
    cd_mode:
        ``STRONG`` or ``WEAK``.  (The paper defines its algorithms only for
        CD models; no-CD baselines implement :class:`StationProtocol`
        directly.)
    """

    def __init__(self, policy: UniformPolicy, cd_mode: CDMode = CDMode.STRONG) -> None:
        if cd_mode is CDMode.NO_CD:
            raise ConfigurationError(
                "uniform Broadcast-based protocols require a CD model; "
                "use a dedicated no-CD protocol instead"
            )
        self.policy = policy
        self.cd_mode = cd_mode
        self._rng: np.random.Generator | None = None
        self._step = 0
        self._pending = False
        self._done = False
        self._is_leader: bool | None = None
        self.station_id: int | None = None

    # -- StationProtocol ----------------------------------------------------

    def reset(self, station_id: int, rng: np.random.Generator) -> None:
        self.station_id = station_id
        self._rng = rng
        self._step = 0
        self._pending = False
        self._done = False
        self._is_leader = None

    def begin_slot(self, slot: int) -> Action:
        if self._rng is None:
            raise ProtocolError("begin_slot before reset")
        if self._pending:
            raise ProtocolError("begin_slot called twice without end_slot")
        if self._done:
            return Action.LISTEN
        self._pending = True
        p = self.policy.transmit_probability(self._step)
        if p > 0.0 and self._rng.random() < p:
            return Action.TRANSMIT
        return Action.LISTEN

    def end_slot(self, slot: int, feedback: SlotFeedback) -> None:
        if self._done:
            return
        if not self._pending:
            raise ProtocolError("end_slot without begin_slot")
        self._pending = False
        step = self._step
        self._step += 1

        perceived = feedback.perceived
        if perceived is PerceivedState.UNKNOWN and (
            not feedback.transmitted or self.cd_mode is CDMode.STRONG
        ):
            # Fault-erased slot (repro.resilience): the local step is
            # consumed but carries no information -- no policy update.  (A
            # weak-CD transmitter falls through: its "assume Collision"
            # comes from knowing it transmitted, not from channel feedback.)
            return
        if feedback.transmitted:
            if self.cd_mode is CDMode.STRONG:
                # Strong-CD: the transmitter hears the observed state; a
                # Single means it transmitted successfully -> it is leader.
                if perceived is PerceivedState.SINGLE:
                    self._done = True
                    self._is_leader = True
                    return
                self.policy.observe(step, ChannelState(int(perceived)))
            else:
                # Weak-CD Broadcast (Function 3): assume Collision.
                self.policy.observe(step, ChannelState.COLLISION)
        else:
            if perceived is PerceivedState.SINGLE:
                # A successful message was heard: selection resolved.  In
                # strong-CD the transmitter becomes leader; this listener is
                # a non-leader either way.
                self._done = True
                self._is_leader = False
                return
            self.policy.observe(step, ChannelState(int(perceived)))

        if self.policy.completed:
            self._done = True

    @property
    def done(self) -> bool:
        return self._done

    @property
    def is_leader(self) -> bool | None:
        return self._is_leader

    def transmit_probability_hint(self) -> float:
        if self._done:
            return 0.0
        return self.policy.transmit_probability(self._step)

    def u_hint(self) -> float:
        return self.policy.u
