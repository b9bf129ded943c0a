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
  transmitters assuming ``Collision``, churned stations missing slots).
  In strong CD without churn or clock skew nothing can make them drift:
  every station of a replication hears the same feedback, so the policy
  has one column per replication, whose ``p`` each of its ``n``
  uniforms is compared against;
* per-replication channel resolution, (T, 1-eps) budgets and the fault
  layer's per-station churn/corruption via one
  :class:`~repro.resilience.faults.RealizedFaults` per replication.  An
  adversary that passes :func:`~repro.adversary.vector.schedule_refusal`
  (its wants a pure function of the slot) is granted a draw block at a
  time on one scalar :class:`~repro.adversary.budget.JammingBudget`:
  every replication's budget sees the same wants from slot 0, so all of
  them agree.  Other adversaries decide per slot through
  :class:`~repro.adversary.budget.JammingBudgetArray`;
* an auditor checks each draw block in one
  :meth:`~repro.resilience.auditor.BatchInvariantAuditor.observe_block`
  call;
* the winner of a heard ``Single`` is the *actual transmitting cell*
  (not a symmetric post-hoc draw): per-station fidelity is preserved;
* a policy that resolves Singles itself -- its
  :attr:`~repro.protocols.vector.VectorUniformPolicy.is_leader` is not
  ``None``, as for
  :class:`~repro.protocols.vector.VectorNotificationPolicy` -- runs in
  weak CD: its listeners receive a heard ``Single`` instead of being
  marked done, a replication retires once every cell is done, its leader
  count is read off the cells, and a per-slot adversary probes station 0
  through :meth:`~repro.protocols.vector.VectorUniformPolicy.probe`.

RNG-stream contract: ``spawn_many(root, reps)`` yields one stream per
replication; each live replication consumes one ``(n,)`` uniform block
per slot (station order), then the engine stream serves nothing else --
leaders are read off the transmit matrix.  The blocks are drawn
``_DRAW_SLOTS`` slots at a time, which consumes each stream exactly as
slot-by-slot draws do; each replication's fault flags come in the same
blocks from
:meth:`~repro.resilience.faults.RealizedFaults.corruption_block`.
Neither the column layout, the block size nor the jam path changes a
bit.  The *bitstream* differs from the scalar faithful engine (which
spawns per-station streams and draws lazily); the *law* is identical,
which is what the fixed-seed pins in ``tests/sim/test_vectorized.py``
and the KS cross-validation in ``tests/sim/test_conformance.py``
verify.  See ``docs/engines.md``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.adversary.budget import JammingBudget
from repro.adversary.vector import (
    BatchAdversaryView,
    BatchedAdversary,
    VectorJammingStrategy,
    schedule_refusal,
)
from repro.errors import ConfigurationError
from repro.protocols.vector import VectorUniformPolicy
from repro.rng import RngLike, make_rng, spawn_many
from repro.sim.batched import BatchRunResult
from repro.sim.instrumentation import EngineRecorder
from repro.telemetry import get_telemetry
from repro.types import CDMode, ChannelState

__all__ = ["simulate_stations_vectorized"]

_SINGLE = np.int8(ChannelState.SINGLE)
_COLLISION = np.int8(ChannelState.COLLISION)
#: The observed state after feedback corruption, indexed by
#: ``observed + 3 * downgrade + 6 * flip``: a downgrade reports a Single as
#: a Collision, then a flip swaps Null and Collision.
_CORRUPTED = np.array([0, 1, 2, 0, 2, 2, 2, 1, 0, 2, 0, 0], dtype=np.int8)


#: Slots of per-station uniforms, of fault flags, of block-granted jams
#: and of audited rows handled at once.  The streams do not depend on it
#: -- a ``(B, n)`` draw consumes a generator exactly like ``B`` successive
#: ``(n,)`` draws -- only the cost does.  The uniform buffer also stays
#: within ``_DRAW_BYTES``, so the widest cells draw their uniforms one
#: slot at a time, as before; their flags (a few bytes per slot) still
#: come in full blocks.
_DRAW_SLOTS = 64
_DRAW_BYTES = 1 << 20

#: Step one policy column per replication when its stations provably share
#: one state (strong CD, no churn, no skew).  Results do not depend on it;
#: tests clear it to force per-station cells.
_SHARED_COLUMNS = True


def _enabled_model(faults):
    """The enabled :class:`FaultModel` in *faults*, or ``None``."""
    if faults is None:
        return None
    from repro.resilience.faults import FaultModel

    if not isinstance(faults, FaultModel):
        raise ConfigurationError(
            f"faults must be a FaultModel, got {type(faults).__name__}"
        )
    return faults if faults.enabled else None


def simulate_stations_vectorized(
    policy_factory: Callable[[int], VectorUniformPolicy],
    n: int,
    adversary_factory: Callable[[int], BatchedAdversary],
    reps: int,
    max_slots: int,
    root_seed: RngLike = None,
    cd_mode: CDMode = CDMode.STRONG,
    faults=None,
    auditor=None,
) -> BatchRunResult:
    """Run *reps* faithful per-station replications in NumPy lockstep.

    A replication retires at its first *heard* successful ``Single``,
    unless its policy resolves Singles itself, and once every station is
    done or permanently crashed (the Notification criterion).

    An adversary whose wants are a pure function of the slot is granted a
    draw block at a time, skipping the per-slot view, probe and
    ``decide``; the others decide per slot.  Neither the jam path nor the
    policy's column layout changes a result bit.

    Parameters
    ----------
    policy_factory:
        ``width -> VectorUniformPolicy``, called once.  In weak CD, or
        with churn or clock skew, *width* is ``n * reps``: one policy
        column per (station, rep) cell, one private policy copy per
        station as in the scalar faithful engine.  In strong CD without
        churn or skew every station of a replication hears the same
        feedback, so those copies never drift apart: *width* is ``reps``,
        one column per replication.
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
    faults:
        Optional :class:`~repro.resilience.faults.FaultModel`, realized
        independently per replication (per-station churn, per-rep
        corruption draws).  Anything else raises
        :class:`~repro.errors.ConfigurationError`.
    auditor:
        Optional :class:`~repro.resilience.auditor.BatchInvariantAuditor`
        of width ``reps``, handed each draw block's slots at once.
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
    model = _enabled_model(faults)
    # With churn or clock skew every cell is awake or not on its own; without
    # them ``part`` and ``crashed`` keep their initial values and only
    # corruption is drawn, per replication.
    churn = model is not None and (model.has_churn or model.skew_rate > 0.0)
    # Policy columns per replication: one per station, or one for all of
    # them when every station hears the same feedback.
    cols = 1 if (_SHARED_COLUMNS and not weak and not churn) else n

    width = cols * reps
    root = make_rng(root_seed)
    rep_rngs = spawn_many(root, reps)
    policy = policy_factory(width)
    if policy.reps != width:
        raise ConfigurationError(
            f"policy_factory returned width {policy.reps}, expected {width}"
        )
    resolves = policy.is_leader is not None
    if resolves:
        if not weak:
            raise ConfigurationError(
                f"{type(policy).__name__} resolves Singles itself: run it in weak CD"
            )
        probe_cells = np.arange(reps) * n  # station 0 of each replication
    adversary = adversary_factory(reps)
    adversary.reset(seed=root.spawn(1)[0])
    # Fault streams spawn after every pre-existing spawn, so the fault-free
    # bitstream is untouched -- the same discipline as the scalar engines.
    realized = (
        None
        if model is None
        else [model.realize(n, max_slots, stream) for stream in root.spawn(reps)]
    )

    # Cell state, shape (reps, cols); the leader cell is a station, (reps, n).
    cell_done = np.zeros((reps, cols), dtype=bool)
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
    policy_done = np.zeros(reps, dtype=bool)
    timed_out = np.ones(reps, dtype=bool)
    leader_survived = np.ones(reps, dtype=bool) if realized is not None else None

    part = np.ones((reps, cols), dtype=bool)
    crashed = np.zeros((reps, cols), dtype=bool)
    # Slots each cell was alive in; a cell that did not transmit listened.
    awake = np.zeros((reps, cols), dtype=np.int64)
    # Each live replication draws blocks of its own streams: uniforms for
    # ``un`` slots from ``u0`` on, in (slot, station) order, and its fault
    # flags (rows flip, erase, downgrade) for the draw block's ``bn``
    # slots from ``b0`` on.
    ublock = max(1, min(_DRAW_SLOTS, _DRAW_BYTES // (8 * n * reps)))
    ubuf = np.empty((ublock, reps, n))
    u0 = un = 0
    fbuf = (
        None if realized is None else np.zeros((3, _DRAW_SLOTS, reps), dtype=bool)
    )
    b0 = bn = 0

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
    # A schedulable adversary's budget columns would all hold one state, so
    # one scalar budget grants each draw block for every replication:
    # ``granted`` holds the block's grants (``None`` while deciding per
    # slot), ``block_jams`` and ``block_denied`` the budget's counts after
    # each of its slots, which a replication retiring there reports.
    schedule = None
    if schedule_refusal(adversary) is None:
        schedule = adversary.strategy.want_schedule
        shared_budget = JammingBudget(adversary.T, adversary.eps)
    granted = None
    if auditor is not None:
        # The draw block's transmitter counts, observed states and per-slot
        # grants, audited when the block closes.
        kblk = np.zeros((_DRAW_SLOTS, reps), dtype=np.int64)
        oblk = np.zeros((_DRAW_SLOTS, reps), dtype=np.int8)
        jblk = np.zeros((_DRAW_SLOTS, reps), dtype=bool)

    def report_jams(rows: np.ndarray, slot: int) -> None:
        # The budget's jam and denied counts after *slot*, for *rows*.
        if granted is None:
            jams[rows] = budget.jams_granted[rows]
            jam_denied[rows] = budget.denied_requests[rows]
        else:
            jams[rows] = block_jams[slot - b0]
            jam_denied[rows] = block_denied[slot - b0]

    def retire(rows: np.ndarray, slot: int) -> None:
        slots[rows] = slot + 1
        report_jams(rows, slot)
        timed_out[rows] = False
        rep_active[rows] = False

    def close_block(ran: int) -> None:
        # The draw block's first *ran* slots are done: count each
        # replication's injections in the slots it ran, and audit them.
        if fbuf is not None:
            counted = np.clip(slots - b0, 0, ran)
            for r in np.flatnonzero(counted).tolist():
                realized[r].count_corruption(fbuf[:, : counted[r], r])
        if auditor is not None and ran:
            auditor.observe_block(
                b0,
                kblk[:ran],
                jblk[:ran] if granted is None else granted[:ran, None],
                oblk[:ran],
                corrupted=None if fbuf is None else fbuf[:, :ran].any(axis=0),
                active=np.arange(b0, b0 + ran)[:, None] < slots,
            )

    slot = 0
    while slot < max_slots and rep_active.any():
        if slot == b0 + bn:
            close_block(bn)
            b0, bn = slot, min(_DRAW_SLOTS, max_slots - slot)
            if fbuf is not None:
                for r in np.flatnonzero(rep_active).tolist():
                    fbuf[:, :bn, r] = realized[r].corruption_block(slot, bn)
                # Per slot and replication: the offset into _CORRUPTED and
                # whether the slot reaches the stations.
                flips, erases, downgrades = fbuf[:, :bn]
                offsets = 3 * downgrades.view(np.int8) + 6 * flips.view(np.int8)
                audible = ~erases
            if schedule is not None:
                wants = schedule(slot, bn)
                jams0 = shared_budget.jams_granted
                denied0 = shared_budget.denied_requests
                granted = shared_budget.grant_block(wants)
                block_jams = jams0 + np.cumsum(granted)
                block_denied = denied0 + np.cumsum(wants & ~granted)
        if slot - u0 == un:
            u0, un = slot, min(ublock, max_slots - slot)
            for r in np.flatnonzero(rep_active).tolist():
                ubuf[:un, r] = rep_rngs[r].random((un, n))
        i = slot - b0

        # (1) the adversary commits from public history; the hints mirror
        # the scalar engine's stations[0] probe (0.0 once that cell is
        # done, exactly like UniformStationAdapter.transmit_probability_hint),
        # taken before the slot begins.  Block-granted jams need no hints.
        if granted is None and resolves:
            p_hint, u_hint = policy.probe(probe_cells, slot)
        pm = policy.transmit_probabilities(slot).reshape(reps, cols)
        if granted is not None:
            jammed = granted[i]
        else:
            if not resolves:
                p_hint = np.where(cell_done[:, 0], 0.0, pm[:, 0])
                u_hint = policy.u.reshape(reps, cols)[:, 0] if wants_u else None
            view.slot = slot
            view.transmit_probabilities = p_hint
            view.protocol_u = u_hint
            view.active = rep_active
            jammed = adversary.decide(view)
            if auditor is not None:
                jblk[i] = jammed

        # (2) stations act on the block's uniforms; churned-out or done
        # cells hold their state and spend no energy.
        if churn:
            for r in np.flatnonzero(rep_active).tolist():
                part[r] = realized[r].station_awake(slot)
                crashed[r] = (realized[r].crash_slot >= 0) & (
                    realized[r].crash_slot <= slot
                )
        alive = part > cell_done  # part & ~cell_done
        alive &= rep_active[:, None]
        # Uniforms lie in [0, 1), so comparing against p unclipped decides
        # exactly as against p clipped to [0, 1].
        transmit = (ubuf[slot - u0] < pm) & alive
        k = transmit.sum(axis=1)
        transmissions += k
        awake += alive

        # (3) the channel resolves per replication; fault corruption
        # rewrites the observation for every station of a rep alike.
        observed = np.where(jammed, _COLLISION, np.minimum(k, 2))
        if notify is not None:
            # Pre-corruption states: the adversary knows what it jammed.
            notify(slot, observed, rep_active)
        if fbuf is not None:
            observed = _CORRUPTED[observed + offsets[i]]
            delivered = audible[i]
        if rec is not None:
            rec.record_batch_slot(slot, k, jammed, rep_active)
        if auditor is not None:
            kblk[i] = k
            oblk[i] = observed

        # A Single resolves a replication only if stations *hear* it.  Only
        # one unjammed transmitter is observed as a Single, and only live
        # replications transmit; an erased slot delivers nothing.
        heard = observed == _SINGLE
        if fbuf is not None:
            heard &= delivered
        any_heard = heard.any()
        fresh = heard & (first_single < 0) if any_heard else heard
        if any_heard and fresh.any():
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
            if resolves:
                observers = listeners
            else:
                cell_done |= listeners & heard[:, None]
                observers = listeners & (~heard & (observed != _SINGLE))[:, None]
            if realized is not None:
                observers &= delivered[:, None]
            states = np.where(transmit, _COLLISION, observed[:, None])
            active_cells = (transmit | observers).reshape(width)
            policy.observe_batch(slot, states.reshape(width), active_cells)
        else:
            if any_heard:
                cell_done |= alive & heard[:, None]
            observers = alive & ~heard[:, None]
            if realized is not None:
                observers &= delivered[:, None]
            policy.observe_batch(
                slot, np.repeat(observed, cols), observers.reshape(width)
            )
        cell_done |= policy.completed.reshape(reps, cols)

        finished = rep_active & (cell_done | crashed).all(axis=1)
        halts = any_heard and not resolves
        if halts:
            finished &= ~heard
        if finished.any():
            rows = np.flatnonzero(finished)
            counts = cell_leader[rows].sum(axis=1)
            elected[rows] = counts == 1
            policy_done[rows] = True
            retire(rows, slot)
        if halts:
            rows = np.flatnonzero(heard)
            elected[rows] = True
            retire(rows, slot)
        slot += 1

    close_block(slot - b0)
    listening = awake.sum(axis=1) * (n // cols) - transmissions
    live = np.flatnonzero(rep_active)
    if live.size:
        report_jams(live, max_slots - 1)
        counts = cell_leader[live].sum(axis=1)
        elected[live] = (cell_done | crashed)[live].all(axis=1) & (counts == 1)
    leaders_count = None
    if resolves:
        # Measured, not implied: the leader count and the all-done flag
        # come from the cells' own state, as in the scalar engine.
        cells = policy.is_leader.reshape(reps, n)
        leaders_count = cells.sum(axis=1)
        policy_done = (cell_done | crashed).all(axis=1)
        elected = policy_done & (leaders_count == 1)
        leaders = np.where(leaders_count == 1, cells.argmax(axis=1), -1)
    # A rep whose leader cell never got marked keeps leaders == -1.
    presults = policy.policy_results
    presults_rep = None
    if presults is not None:
        # Station 0's result stands for the rep (cells agree under strong
        # CD; per-station results only exist for Estimation-style runs).
        presults_rep = presults.reshape(reps, cols)[:, 0].copy()

    if rec is not None:
        rec.finish(
            runs=reps,
            elections=int(elected.sum()),
            timeouts=int(timed_out.sum()),
            jam_denied=int(jam_denied.sum()),
            last_slot=int(slots.max()),
        )
    if realized is not None and tel.enabled:
        for r in realized:
            r.publish(tel)
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
        leaders_count=leaders_count,
    )
