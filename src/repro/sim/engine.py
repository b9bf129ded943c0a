"""Faithful per-station synchronous engine.

Simulates the Section 1.1 model exactly: every slot, (1) the adversary
commits its jamming decision from public history, (2) every non-terminated
station independently decides to transmit or listen, (3) the channel
resolves, (4) feedback is delivered per the CD mode.  Terminated stations
sleep (no transmissions, no updates).

This engine is the ground truth: O(n) per slot, used for the weak-CD
Notification runs, the non-uniform baselines, and cross-validation of the
fast engine.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.channel.channel import resolve_slot
from repro.channel.faulty import corrupt_observed
from repro.channel.feedback import feedback_for
from repro.channel.trace import ChannelTrace
from repro.errors import ConfigurationError
from repro.protocols.base import StationProtocol
from repro.resilience.faults import FaultModel
from repro.rng import RngLike, make_rng, spawn_many
from repro.sim.instrumentation import EngineRecorder
from repro.sim.metrics import EnergyStats, RunResult
from repro.telemetry import get_telemetry
from repro.types import Action, CDMode, ChannelState, PerceivedState, SlotFeedback

__all__ = ["simulate_stations"]


def _realize_faults(faults, n: int, max_slots: int, spawn_from):
    """Common engine-side fault realization.

    Accepts a :class:`~repro.resilience.faults.FaultModel` (realized here
    from a freshly spawned stream -- drawn *only* when faults are enabled,
    after all pre-existing spawns, so the no-fault bitstream is untouched)
    or an already-realized schedule (tests, replay).  Returns ``None`` when
    there is nothing to inject.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultModel):
        if not faults.enabled:
            return None
        return faults.realize(n, max_slots, spawn_from.spawn(1)[0])
    return faults


def simulate_stations(
    stations: Sequence[StationProtocol],
    adversary: Adversary,
    cd_mode: CDMode,
    max_slots: int,
    seed: RngLike = None,
    record_trace: bool = False,
    stop_on_first_single: bool = False,
    stop_when_all_done: bool = True,
    faults=None,
    auditor=None,
) -> RunResult:
    """Run *stations* against *adversary* until termination.

    Parameters
    ----------
    stations:
        Fresh station protocol instances, one per honest station.  The
        engine resets each with a private RNG stream.
    adversary:
        Budget-enforced adversary (reset by the engine).
    cd_mode:
        Collision-detection model used for feedback delivery.
    max_slots:
        Hard slot limit; reaching it marks the result ``timed_out``.
    seed:
        Root seed or generator; station and adversary streams are spawned
        from it.
    record_trace:
        Keep the full slot-by-slot trace on the result.
    stop_on_first_single:
        End the run at the first successful ``Single`` (selection
        resolution semantics) even if stations have not terminated --
        used when measuring strong-CD election time, where the first
        ``Single`` *is* the election.
    stop_when_all_done:
        End the run once every station reports ``done`` (the normal
        termination criterion for Notification runs).
    faults:
        Optional :class:`~repro.resilience.faults.FaultModel` (or an
        already-realized schedule): station churn removes stations from
        slots, corruption rewrites what everyone hears.  ``None`` (or a
        disabled model) leaves the run bit-identical to a fault-free build.
    auditor:
        Optional :class:`~repro.resilience.auditor.InvariantAuditor`; when
        given, every slot and the final election are invariant-checked.
    """
    n = len(stations)
    if n < 1:
        raise ConfigurationError("need at least one station")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")

    root = make_rng(seed)
    station_rngs = spawn_many(root, n)
    adversary.reset(seed=root.spawn(1)[0])
    # Fault streams spawn only when faults are enabled, *after* every
    # pre-existing spawn: the fault-free bitstream is untouched.
    realized = _realize_faults(faults, n, max_slots, root)
    for sid, (station, srng) in enumerate(zip(stations, station_rngs)):
        station.reset(sid, srng)

    trace = ChannelTrace(record_probabilities=True)
    energy = EnergyStats(per_station_transmissions=[0] * n)
    # Feedback depends only on (transmitted, observed state), so every
    # station of a slot gets one of these shared, immutable objects:
    # ``feedback[observed] = (transmitter's, listener's)``.  An erased slot
    # (observed ``None``) withholds feedback from everyone; a sleeping
    # station hears nothing either.
    feedback = {
        state: (
            feedback_for(transmitted=True, observed=state, mode=cd_mode),
            feedback_for(transmitted=False, observed=state, mode=cd_mode),
        )
        for state in ChannelState
    }
    feedback[None] = (
        SlotFeedback(transmitted=True, perceived=PerceivedState.UNKNOWN),
        SlotFeedback(transmitted=False, perceived=PerceivedState.UNKNOWN),
    )
    asleep = feedback[None][1]
    actions: list[Action] = [Action.LISTEN] * n
    slots_run = 0
    first_single: int | None = None
    single_transmitter: int | None = None
    timed_out = True
    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "faithful", adversary.strategy_name)
        if tel.enabled
        else None
    )

    for slot in range(max_slots):
        # (1) adversary commits, seeing history but not current actions.
        probe = stations[0]
        view = AdversaryView(
            slot=slot,
            n=n,
            trace=trace,
            budget=adversary.budget,
            transmit_probability=probe.transmit_probability_hint(),
            protocol_u=probe.u_hint(),
        )
        jammed = adversary.decide(view)

        # (2) stations act; churned-out stations miss the slot entirely
        # (no begin_slot, frozen state, no energy).
        if realized is not None:
            participating = realized.station_awake(slot)
            flags = realized.begin_slot(slot, int(participating.sum()))
        else:
            participating = None
            flags = None
        k = 0
        last_tx = -1
        for sid, station in enumerate(stations):
            if participating is not None and not participating[sid]:
                actions[sid] = Action.LISTEN
                continue
            if station.done:
                actions[sid] = Action.LISTEN
                continue
            action = station.begin_slot(slot)
            actions[sid] = action
            if action is Action.TRANSMIT:
                k += 1
                last_tx = sid
                energy.transmissions += 1
                energy.per_station_transmissions[sid] += 1
            elif action is Action.LISTEN:
                energy.listening += 1
            # SLEEP: radio off, no energy, no feedback content.

        # (3) channel resolves; fault corruption rewrites the observation
        # for everyone alike (None = erased, feedback withheld).
        outcome = resolve_slot(slot, k, jammed)
        if flags is not None:
            observed = corrupt_observed(outcome.observed_state, flags)
        else:
            observed = outcome.observed_state
        trace.append(
            transmitters=k,
            jammed=jammed,
            true_state=outcome.true_state,
            observed_state=outcome.observed_state,
            probability=view.transmit_probability,
            u=view.protocol_u,
        )
        if (
            outcome.successful_single
            and observed is ChannelState.SINGLE
            and first_single is None
        ):
            # A Single only resolves the election if stations *hear* it: an
            # erased/downgraded Single goes unnoticed and the run continues.
            first_single = slot
            single_transmitter = last_tx
        if rec is not None:
            rec.record_slot(slot, k, jammed)
        if auditor is not None:
            auditor.observe_slot(
                slot,
                k,
                jammed,
                observed,
                corrupted=flags.corrupted if flags is not None else False,
            )

        # (4) feedback to active stations.
        sent, heard = feedback[observed]
        for sid, station in enumerate(stations):
            if participating is not None and not participating[sid]:
                # Missed the slot: no begin_slot happened, so no delivery.
                continue
            action = actions[sid]
            if action is Action.LISTEN:
                if station.done:
                    # Terminated stations sleep; skip delivery.  (A station
                    # that transmitted and became done in a previous slot is
                    # already covered by the same check.)
                    continue
                station.end_slot(slot, heard)
            elif action is Action.TRANSMIT:
                station.end_slot(slot, sent)
            else:
                station.end_slot(slot, asleep)

        slots_run = slot + 1
        if stop_on_first_single and first_single is not None:
            timed_out = False
            break
        if stop_when_all_done and _all_live_done(stations, realized, slot):
            timed_out = False
            break

    leaders = [sid for sid, s in enumerate(stations) if s.is_leader]
    all_done = _all_live_done(stations, realized, slots_run - 1)
    if stop_on_first_single:
        elected = first_single is not None
        leader = leaders[0] if len(leaders) == 1 else None
    else:
        elected = all_done and len(leaders) == 1
        leader = leaders[0] if elected else None
    leader_survived = True
    if realized is not None and leader is not None:
        leader_survived = realized.leader_survives(leader)
    if auditor is not None:
        leader_transmitted = True
        if stop_on_first_single and leader is not None and single_transmitter is not None:
            leader_transmitted = leader == single_transmitter
        leader_awake = True
        if realized is not None and leader is not None and first_single is not None:
            leader_awake = realized.station_participating(leader, first_single)
        auditor.check_election(
            len(leaders),
            leader=leader,
            deciding_slot=first_single,
            leader_transmitted=leader_transmitted,
            leader_awake=leader_awake,
        )
    if rec is not None:
        rec.finish(
            runs=1,
            elections=int(elected),
            timeouts=int(timed_out),
            jam_denied=adversary.budget.denied_requests,
            last_slot=slots_run,
        )
    if realized is not None and tel.enabled:
        realized.publish(tel)
    return RunResult(
        n=n,
        slots=slots_run,
        elected=elected,
        leader=leader,
        first_single_slot=first_single,
        all_terminated=all_done,
        leaders_count=len(leaders),
        jams=adversary.budget.jams_granted,
        jam_denied=adversary.budget.denied_requests,
        energy=energy,
        trace=trace if record_trace else None,
        timed_out=timed_out,
        leader_survived=leader_survived,
    )


def _all_live_done(stations, realized, slot: int) -> bool:
    """All-done termination, excluding permanently crashed stations.

    A crashed station never reaches ``done`` on its own; without this the
    normal termination criterion could never fire under churn.  Sleeping,
    skewed or not-yet-joined stations *do* still count -- they will be back.
    """
    if realized is None:
        return all(s.done for s in stations)
    crash = realized.crash_slot
    return all(
        s.done or (0 <= crash[sid] <= slot) for sid, s in enumerate(stations)
    )
