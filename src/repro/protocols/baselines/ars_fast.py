"""Vectorized simulator for the ARS MAC protocol [3].

The ARS protocol is *not* uniform (each node's ``p_v`` depends on its own
past transmit decisions), so the shared-state fast engine does not apply.
It is, however, perfectly vectorizable: per-node state is four scalars
(``p_v``, ``T_v``, ``c_v``, last-idle age) updated by branch-free NumPy
expressions, giving O(n) work per slot with NumPy constants -- one to two
orders of magnitude faster than the per-station object engine, and
distributionally identical (cross-validated in
``tests/protocols/baselines/test_ars_fast.py``).

Semantics simulated, per ``halt_on_single``:

* ``True`` (default): strong-CD leader election -- the run ends at the
  first successful ``Single`` and its transmitter is the leader, matching
  how experiments T7 and T9 compare against LESK;
* ``False``: the plain MAC, run to ``max_slots`` -- a listener that hears
  a ``Single`` applies [3]'s success update (``p_v <- p_v/(1+gamma)``,
  ``T_v <- max(T_v-1, 1)``) and its transmitter only the counter logic,
  as ``ARSMACStation(terminate_on_single=False)`` does.  Experiment A4
  reads its throughput off the recorded trace.

The adversary's probe is node 0's ``p_v``, like the faithful engine's
``stations[0]`` probe.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import Adversary, AdversaryView
from repro.channel.channel import resolve_slot
from repro.channel.trace import ChannelTrace
from repro.errors import ConfigurationError
from repro.protocols.baselines.ars_mac import P_MAX
from repro.rng import RngLike, make_rng
from repro.types import ChannelState
from repro.sim.metrics import EnergyStats, RunResult

__all__ = ["simulate_ars_fast"]


def simulate_ars_fast(
    n: int,
    gamma: float,
    adversary: Adversary,
    max_slots: int,
    seed: RngLike = None,
    p_start: float = P_MAX,
    record_trace: bool = False,
    halt_on_single: bool = True,
) -> RunResult:
    """Run the [3] MAC over *n* nodes with learning rate *gamma*.

    Mirrors :class:`~repro.protocols.baselines.ars_mac.ARSMACStation`
    slot-for-slot; see that module for the protocol rules.  With
    *halt_on_single* the run is an election ending at the first
    successful ``Single``; without it the MAC runs all *max_slots*.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if gamma <= 0.0:
        raise ConfigurationError(f"gamma must be > 0, got {gamma}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")

    rng = make_rng(seed)
    adversary.reset(seed=rng.spawn(1)[0])
    trace = ChannelTrace()
    energy = EnergyStats()

    p = np.full(n, float(p_start))
    T_v = np.ones(n, dtype=np.int64)
    c_v = np.ones(n, dtype=np.int64)
    # Local slot index of the last sensed idle; -2**62 means "never".
    last_idle = np.full(n, -(2**62), dtype=np.int64)
    grow = 1.0 + gamma

    elected = False
    leader: int | None = None
    slots_run = 0
    timed_out = True

    for slot in range(max_slots):
        view = AdversaryView(
            slot=slot,
            n=n,
            trace=trace,
            budget=adversary.budget,
            transmit_probability=float(p[0]),
        )
        jammed = adversary.decide(view)

        tx = rng.random(n) < p
        k = int(tx.sum())
        energy.transmissions += k
        energy.listening += n - k
        outcome = resolve_slot(slot, k, jammed)
        trace.append(
            transmitters=k,
            jammed=jammed,
            true_state=outcome.true_state,
            observed_state=outcome.observed_state,
        )
        slots_run = slot + 1

        if outcome.successful_single and halt_on_single:
            elected = True
            leader = int(np.flatnonzero(tx)[0])
            timed_out = False
            break

        listen = ~tx
        if outcome.observed_state is ChannelState.NULL:
            # Listeners sense idle: p up (capped), idle timestamp refreshed.
            p[listen] = np.minimum(p[listen] * grow, P_MAX)
            last_idle[listen] = slot
        elif outcome.observed_state is ChannelState.SINGLE:
            # Plain MAC only (election mode halted above): listeners back
            # off after another node's success.
            p[listen] /= grow
            T_v[listen] = np.maximum(T_v[listen] - 1, 1)
        # (A jammed or collided slot triggers no direct update.)

        # Counter logic, every node every slot.
        c_v += 1
        over = c_v > T_v
        if over.any():
            no_recent_idle = over & (slot - last_idle >= T_v)
            c_v[over] = 1
            if no_recent_idle.any():
                p[no_recent_idle] /= grow
                T_v[no_recent_idle] += 2

    return RunResult(
        n=n,
        slots=slots_run,
        elected=elected,
        leader=leader,
        first_single_slot=trace.first_single_slot,
        all_terminated=elected,
        leaders_count=1 if elected else 0,
        jams=adversary.budget.jams_granted,
        jam_denied=adversary.budget.denied_requests,
        energy=energy,
        trace=trace if record_trace else None,
        timed_out=timed_out,
    )
