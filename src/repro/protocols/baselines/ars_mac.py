"""The Awerbuch--Richa--Scheideler jamming-resistant MAC protocol [3].

Reimplementation of the MAC protocol of Awerbuch, Richa and Scheideler
("A jamming-resistant MAC protocol for single-hop wireless networks",
PODC 2008; journal version with Schmid and Zhang, ACM Trans. Algorithms
2014 -- reference [3] of the paper).  Leader election is one of its
applications and the benchmark our paper compares against: [3] proves an
``O(log^4 n)`` bound (for constant eps), improved by LESK to ``O(log n)``,
and ``O(T log T)`` for very large ``T``, improved to ``O(T log log T)``.

Protocol state per node ``v``: probability ``p_v <= p_max = 1/24``,
threshold ``T_v``, counter ``c_v``, and the time of the last *idle* slot
it sensed.  Each slot ``v`` transmits with probability ``p_v``; if it did
not transmit it senses the channel:

* idle (``Null``):    ``p_v <- min((1+gamma) p_v, p_max)``
* success (``Single``): ``p_v <- p_v / (1+gamma)``; ``T_v <- max(T_v-1, 1)``

Then (every node, every slot): ``c_v <- c_v + 1``; if ``c_v > T_v``:
``c_v <- 1`` and if ``v`` sensed no idle slot during the last ``T_v``
slots, ``p_v <- p_v / (1+gamma)`` and ``T_v <- T_v + 2``.

The learning rate ``gamma = O(1 / (log T + log log n))`` is a *global*
parameter the stations must know -- the dependence our paper's protocols
eliminate (Section 1.3).

Unlike the paper's protocols this one is **not uniform** (``p_v`` depends
on ``v``'s own past transmit decisions), so it runs per station: on the
faithful engine, or vectorized by
:func:`~repro.protocols.baselines.ars_fast.simulate_ars_fast`, which the
experiments use and the tests check against this class.  For leader
election we use the strong-CD equivalence (Section 1.3): the first
successful ``Single`` elects its transmitter.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.protocols.base import StationProtocol
from repro.types import Action, PerceivedState, SlotFeedback

__all__ = ["ARSMACStation", "ars_gamma", "P_MAX"]

#: The cap on per-node transmission probability used in [3].
P_MAX = 1.0 / 24.0


def ars_gamma(n: int, T: int, scale: float = 1.0) -> float:
    """The global learning rate ``gamma = scale / (log2 T + log2 log2 n)``.

    [3] requires ``gamma = O(1/(log T + log log n))``; *scale* tunes the
    hidden constant.  This is exactly the global knowledge the paper's
    protocols do away with.
    """
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    loglog_n = math.log2(max(2.0, math.log2(max(n, 2))))
    log_T = math.log2(max(2, T))
    return scale / (log_T + loglog_n)


class ARSMACStation(StationProtocol):
    """Per-station implementation of the [3] MAC protocol.

    Parameters
    ----------
    gamma:
        Global learning rate (see :func:`ars_gamma`).
    p_start:
        Initial transmission probability (defaults to ``p_max``).
    terminate_on_single:
        If true (default) the station runs the *leader election*
        application: the first successful ``Single`` ends its protocol.
        If false it runs the plain MAC forever (the throughput experiment's
        semantics), applying [3]'s success update
        ``p_v <- p_v/(1+gamma)``, ``T_v <- max(T_v - 1, 1)``.
    """

    def __init__(
        self,
        gamma: float,
        p_start: float = P_MAX,
        terminate_on_single: bool = True,
    ) -> None:
        if gamma <= 0.0:
            raise ConfigurationError(f"gamma must be > 0, got {gamma}")
        if not (0.0 < p_start <= P_MAX):
            raise ConfigurationError(
                f"p_start must be in (0, {P_MAX:.4f}], got {p_start}"
            )
        self.gamma = float(gamma)
        self.p_start = float(p_start)
        self.terminate_on_single = terminate_on_single
        self._rng: np.random.Generator | None = None
        self.station_id: int | None = None
        self.p = self.p_start
        self.T_v = 1
        self.c_v = 1
        self._slots_seen = 0
        self._last_idle: int | None = None  # local slot index of last sensed Null
        self._transmitted = False
        self._done = False
        self._is_leader: bool | None = None

    # -- StationProtocol -----------------------------------------------------

    def reset(self, station_id: int, rng: np.random.Generator) -> None:
        self.station_id = station_id
        self._rng = rng
        self.p = self.p_start
        self.T_v = 1
        self.c_v = 1
        self._slots_seen = 0
        self._last_idle = None
        self._transmitted = False
        self._done = False
        self._is_leader = None

    def begin_slot(self, slot: int) -> Action:
        if self._rng is None:
            raise ConfigurationError("begin_slot before reset")
        if self._done:
            return Action.LISTEN
        self._transmitted = self._rng.random() < self.p
        return Action.TRANSMIT if self._transmitted else Action.LISTEN

    def end_slot(self, slot: int, feedback: SlotFeedback) -> None:
        if self._done:
            return
        local = self._slots_seen
        self._slots_seen += 1

        if feedback.transmitted:
            # Strong-CD election application: a successful transmission is
            # heard by its own sender, electing it.
            if feedback.perceived is PerceivedState.SINGLE and self.terminate_on_single:
                self._done = True
                self._is_leader = True
                return
        else:
            if feedback.perceived is PerceivedState.NULL:
                self._last_idle = local
                self.p = min((1.0 + self.gamma) * self.p, P_MAX)
            elif feedback.perceived is PerceivedState.SINGLE:
                if self.terminate_on_single:
                    # Someone else won the election.
                    self._done = True
                    self._is_leader = False
                    return
                # Plain MAC: back off after another node's success.
                self.p /= 1.0 + self.gamma
                self.T_v = max(self.T_v - 1, 1)

        # Counter logic (every node, every slot).
        self.c_v += 1
        if self.c_v > self.T_v:
            self.c_v = 1
            no_recent_idle = (
                self._last_idle is None or local - self._last_idle >= self.T_v
            )
            if no_recent_idle:
                self.p /= 1.0 + self.gamma
                self.T_v += 2

    @property
    def done(self) -> bool:
        return self._done

    @property
    def is_leader(self) -> bool | None:
        return self._is_leader

    def transmit_probability_hint(self) -> float:
        return 0.0 if self._done else self.p

    def __repr__(self) -> str:
        return (
            f"ARSMACStation(gamma={self.gamma:.4f}, p={self.p:.3g}, "
            f"T_v={self.T_v}, c_v={self.c_v})"
        )
