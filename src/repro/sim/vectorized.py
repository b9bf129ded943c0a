"""Vectorized faithful engine: per-station state for ``R`` replications.

:func:`repro.sim.engine.simulate_stations` is the ground truth -- one
Python object per station, O(n) interpreter work per slot -- and
BENCH_engines.json shows it ~3500x slower than the batched uniform
engine.  This engine keeps the *faithful* model (per-station transmit
decisions, per-station protocol state, CD-mode-filtered feedback,
per-station churn) but advances an ``(R, n)`` station-state matrix in
NumPy, one global slot per step:

* per-cell transmit decisions: one uniform per (station, rep) cell per
  slot, compared against that cell's own transmit probability;
* per-cell protocol state: a width-``n * reps``
  :class:`~repro.protocols.vector.VectorUniformPolicy` (cell ``(r, i)``
  is column ``r * n + i``), so stations within a replication may drift
  apart exactly as the scalar faithful engine allows (weak-CD
  transmitters assuming ``Collision``, churned stations missing slots);
* per-replication channel resolution, (T, 1-eps) budgets in lockstep
  (:class:`~repro.adversary.budget.JammingBudgetArray` via
  :class:`~repro.adversary.vector.BatchedAdversary`), and the fault
  layer's per-station churn/corruption via one
  :class:`~repro.resilience.faults.RealizedFaults` per replication;
* the winner of a heard ``Single`` is the *actual transmitting cell*
  (not a symmetric post-hoc draw): per-station fidelity is preserved.

RNG-stream contract: ``spawn_many(root, reps)`` yields one stream per
replication; each live replication consumes one ``(n,)`` uniform block
per slot (station order), then the engine stream serves nothing else --
leaders are read off the transmit matrix.  The *bitstream* therefore
differs from the scalar faithful engine (which spawns per-station
streams and draws lazily); the *law* is identical, which is what the
differential lockstep stack, the fixed-seed pins in
``tests/sim/test_vectorized.py`` and the KS cross-validation in
``tests/sim/test_conformance.py`` verify.  See ``docs/engines.md``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.adversary.vector import (
    BatchAdversaryView,
    BatchedAdversary,
    VectorJammingStrategy,
)
from repro.errors import ConfigurationError
from repro.protocols.vector import VectorUniformPolicy
from repro.rng import RngLike, make_rng, spawn_many
from repro.sim.batched import BatchRunResult
from repro.sim.instrumentation import EngineRecorder
from repro.telemetry import get_telemetry
from repro.types import CDMode, ChannelState

__all__ = ["simulate_stations_vectorized"]

_NULL = np.int8(ChannelState.NULL)
_SINGLE = np.int8(ChannelState.SINGLE)
_COLLISION = np.int8(ChannelState.COLLISION)


def _realize_per_rep(faults, n: int, reps: int, max_slots: int, root):
    """One :class:`RealizedFaults` per replication, or ``None``.

    Streams spawn only when faults are enabled, after every pre-existing
    spawn, so the fault-free bitstream is untouched -- the same discipline
    as the scalar engines.
    """
    if faults is None:
        return None
    from repro.resilience.faults import FaultModel

    if isinstance(faults, FaultModel):
        if not faults.enabled:
            return None
        return [
            faults.realize(n, max_slots, stream)
            for stream in root.spawn(reps)
        ]
    # An already-realized schedule (tests, replay) is shared by every rep.
    return [faults] * reps


def simulate_stations_vectorized(
    policy_factory: Callable[[int], VectorUniformPolicy],
    n: int,
    adversary_factory: Callable[[int], BatchedAdversary],
    reps: int,
    max_slots: int,
    root_seed: RngLike = None,
    cd_mode: CDMode = CDMode.STRONG,
    stop_on_first_single: bool = True,
    stop_when_all_done: bool = True,
    faults=None,
    auditor=None,
) -> BatchRunResult:
    """Run *reps* faithful per-station replications in NumPy lockstep.

    Parameters
    ----------
    policy_factory:
        ``width -> VectorUniformPolicy`` called once with ``n * reps``:
        one policy column per (station, rep) cell, exactly one private
        policy copy per station as in the scalar faithful engine.
    n:
        Honest stations per replication.
    adversary_factory:
        ``reps -> BatchedAdversary``; decides one jam mask per slot over
        the replications, conditioned (like the scalar engine's probe) on
        station 0's probability/estimator hints.
    reps:
        Independent replications advanced per step.
    max_slots:
        Hard per-replication slot limit.
    root_seed:
        Root seed or generator; per-rep station streams, the adversary
        stream and (when enabled) per-rep fault streams spawn from it.
    cd_mode:
        ``STRONG`` or ``WEAK`` (uniform ``Broadcast`` protocols need a CD
        model, mirroring ``UniformStationAdapter``).
    stop_on_first_single:
        Retire a replication at its first *heard* successful ``Single``.
    stop_when_all_done:
        Retire a replication once every station is done or permanently
        crashed (the Notification criterion).
    faults:
        Optional :class:`~repro.resilience.faults.FaultModel`; realized
        independently per replication (per-station churn, per-rep
        corruption draws), or an already-realized schedule shared by all.
    auditor:
        Optional :class:`~repro.resilience.auditor.BatchInvariantAuditor`
        of width ``reps``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")
    if cd_mode is CDMode.NO_CD:
        raise ConfigurationError(
            "uniform Broadcast-based protocols require a CD model; "
            "use a dedicated no-CD protocol instead"
        )
    weak = cd_mode is CDMode.WEAK

    width = n * reps
    root = make_rng(root_seed)
    rep_rngs = spawn_many(root, reps)
    policy = policy_factory(width)
    if policy.reps != width:
        raise ConfigurationError(
            f"policy_factory returned width {policy.reps}, expected {width}"
        )
    adversary = adversary_factory(reps)
    adversary.reset(seed=root.spawn(1)[0])
    realized = _realize_per_rep(faults, n, reps, max_slots, root)
    # Without churn or clock skew every cell is awake and none ever
    # crashes: ``part`` and ``crashed`` keep their initial values and only
    # corruption is drawn per slot.
    churn = realized is not None and (
        realized[0].model.has_churn or realized[0].model.skew_rate > 0.0
    )

    # Cell state, shape (reps, n).
    cell_done = np.zeros((reps, n), dtype=bool)
    cell_leader = np.zeros((reps, n), dtype=bool)
    # Replication state, shape (reps,).
    rep_active = np.ones(reps, dtype=bool)
    slots = np.full(reps, max_slots, dtype=np.int64)
    elected = np.zeros(reps, dtype=bool)
    leaders = np.full(reps, -1, dtype=np.int64)
    first_single = np.full(reps, -1, dtype=np.int64)
    jams = np.zeros(reps, dtype=np.int64)
    jam_denied = np.zeros(reps, dtype=np.int64)
    transmissions = np.zeros(reps, dtype=np.int64)
    listening = np.zeros(reps, dtype=np.int64)
    policy_done = np.zeros(reps, dtype=bool)
    timed_out = np.ones(reps, dtype=bool)
    leader_survived = np.ones(reps, dtype=bool) if realized is not None else None

    uniforms = np.empty((reps, n), dtype=np.float64)
    part = np.ones((reps, n), dtype=bool)
    crashed = np.zeros((reps, n), dtype=bool)
    flip = np.zeros(reps, dtype=bool)
    erase = np.zeros(reps, dtype=bool)
    downgrade = np.zeros(reps, dtype=bool)

    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "vectorized-faithful", adversary.strategy_name)
        if tel.enabled
        else None
    )

    notify = getattr(adversary, "observe_outcomes", None)
    strat = getattr(adversary, "strategy", None)
    if strat is not None:
        if (
            type(adversary).observe_outcomes is BatchedAdversary.observe_outcomes
            and type(strat).observe_outcomes
            is VectorJammingStrategy.observe_outcomes
        ):
            notify = None
        wants_u = getattr(strat, "uses_protocol_u", True)
    else:
        wants_u = True
    budget = adversary.budget
    view = BatchAdversaryView(slot=0, n=n, reps=reps, budget=budget)

    def retire(rows: np.ndarray, slot: int) -> None:
        slots[rows] = slot + 1
        jams[rows] = budget.jams_granted[rows]
        jam_denied[rows] = budget.denied_requests[rows]
        timed_out[rows] = False
        rep_active[rows] = False

    for slot in range(max_slots):
        live = np.flatnonzero(rep_active)
        if live.size == 0:
            break

        # (1) the adversary commits from public history; the hints mirror
        # the scalar engine's stations[0] probe (0.0 once that cell is
        # done, exactly like UniformStationAdapter.transmit_probability_hint).
        p = policy.transmit_probabilities(slot)
        pm = p.reshape(reps, n)
        p_hint = np.where(cell_done[:, 0], 0.0, pm[:, 0])
        view.slot = slot
        view.transmit_probabilities = p_hint
        view.protocol_u = policy.u.reshape(reps, n)[:, 0] if wants_u else None
        view.active = rep_active
        jammed = adversary.decide(view)

        # (2) stations act.  Each live replication consumes one (n,) block
        # of its own stream, in station order; churned-out or done cells
        # hold their state and spend no energy.
        if realized is not None:
            for r in live:
                awake = n
                if churn:
                    part[r] = realized[r].station_awake(slot)
                    awake = int(part[r].sum())
                    crashed[r] = (realized[r].crash_slot >= 0) & (
                        realized[r].crash_slot <= slot
                    )
                f = realized[r].begin_slot(slot, awake)
                flip[r], erase[r], downgrade[r] = f.flip, f.erase, f.downgrade
        alive = part & ~cell_done
        alive &= rep_active[:, None]
        for r in live:
            uniforms[r] = rep_rngs[r].random(n)
        transmit = alive & (uniforms < pm.clip(0.0, 1.0))
        k = transmit.sum(axis=1)
        heard_cells = alive.sum(axis=1)
        np.add(transmissions, k, out=transmissions, where=rep_active)
        np.add(listening, heard_cells - k, out=listening, where=rep_active)

        # (3) the channel resolves per replication; fault corruption
        # rewrites the observation for every station of a rep alike.
        observed = np.where(jammed, _COLLISION, np.minimum(k, 2))
        if notify is not None:
            # Pre-corruption states: the adversary knows what it jammed.
            notify(slot, observed, rep_active)
        if realized is not None:
            observed = np.where(
                downgrade & (observed == _SINGLE), _COLLISION, observed
            )
            flipped = np.where(
                observed == _NULL,
                _COLLISION,
                np.where(observed == _COLLISION, _NULL, observed),
            )
            observed = np.where(flip, flipped, observed)
        if rec is not None:
            rec.record_batch_slot(slot, k, jammed, rep_active)
        if auditor is not None:
            corrupted = (flip | erase | downgrade) if realized is not None else None
            auditor.observe_slot(
                slot,
                k,
                jammed,
                observed,
                corrupted=corrupted,
                active=rep_active,
            )

        # A Single resolves a replication only if stations *hear* it.
        single = observed == _SINGLE
        heard = rep_active & (k == 1) & ~jammed & single
        if realized is not None:
            heard &= ~erase
        fresh = heard & (first_single < 0)
        if fresh.any():
            rows = np.flatnonzero(fresh)
            first_single[rows] = slot
            winner = np.argmax(transmit[rows], axis=1)
            leaders[rows] = winner
            if not weak:
                # Weak-CD transmitters get no feedback: the winner never
                # learns it won (the Notification problem), so no cell
                # claims leadership here.
                cell_leader[rows, winner] = True
            if realized is not None:
                leader_survived[rows] = [
                    realized[r].leader_survives(int(w))
                    for r, w in zip(rows, winner)
                ]

        # (4) feedback, CD-filtered per cell.  Strong-CD: every alive cell
        # of a heard-Single rep is done (the transmitter heard itself win,
        # listeners heard a leader exist) and none of them observes the
        # halting slot.  Weak-CD: only the listeners learn; the lone
        # transmitter gets no feedback and keeps going (the Notification
        # problem).  Erased slots deliver nothing -- except to weak-CD
        # transmitters, whose "assume Collision" needs no channel.
        if weak:
            listeners = alive & ~transmit
            resolved = listeners & heard[:, None]
            cell_done |= resolved
            observers = listeners & (~heard & (observed != _SINGLE))[:, None]
            if realized is not None:
                observers &= ~erase[:, None]
            states = np.where(
                transmit, _COLLISION, np.broadcast_to(observed[:, None], (reps, n))
            )
            active_cells = (transmit | observers).reshape(width)
            policy.observe_batch(slot, states.reshape(width), active_cells)
        else:
            if heard.any():
                resolved = alive & heard[:, None]
                cell_done |= resolved
            observers = alive & ~heard[:, None]
            if realized is not None:
                observers &= ~erase[:, None]
            states = np.broadcast_to(observed[:, None], (reps, n))
            policy.observe_batch(
                slot, states.reshape(width), observers.reshape(width)
            )
        cell_done |= policy.completed.reshape(reps, n)

        halted = heard if stop_on_first_single else np.zeros(reps, dtype=bool)
        if stop_when_all_done:
            finished = rep_active & (cell_done | crashed).all(axis=1) & ~halted
            if finished.any():
                rows = np.flatnonzero(finished)
                counts = cell_leader[rows].sum(axis=1)
                elected[rows] = counts == 1
                policy_done[rows] = True
                retire(rows, slot)
        if stop_on_first_single and heard.any():
            rows = np.flatnonzero(heard)
            elected[rows] = True
            retire(rows, slot)

    live = np.flatnonzero(rep_active)
    if live.size:
        jams[live] = budget.jams_granted[live]
        jam_denied[live] = budget.denied_requests[live]
        counts = cell_leader[live].sum(axis=1)
        elected[live] = (cell_done | crashed)[live].all(axis=1) & (counts == 1)
    # A rep whose leader cell never got marked keeps leaders == -1.
    presults = policy.policy_results
    presults_rep = None
    if presults is not None:
        # Station 0's result stands for the rep (cells agree under strong
        # CD; per-station results only exist for Estimation-style runs).
        presults_rep = presults.reshape(reps, n)[:, 0].copy()

    if rec is not None:
        rec.finish(
            runs=reps,
            elections=int(elected.sum()),
            timeouts=int(timed_out.sum()),
            jam_denied=int(jam_denied.sum()),
            last_slot=int(slots.max()),
        )
    if realized is not None and tel.enabled:
        published = []
        for r in realized:
            if id(r) not in published:
                if tel.enabled:
                    r.publish(tel)
                published.append(id(r))
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
        policy_completed=policy_done,
        timed_out=timed_out,
        leader_survived=leader_survived,
        policy_results=presults_rep,
    )
