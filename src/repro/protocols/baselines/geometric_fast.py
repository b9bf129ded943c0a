"""Vectorized simulator for the geometric-level tournament.

The tournament's randomness is all in the per-round level draws; within a
round the schedule is deterministic.  So one round simulates as:

1. draw ``levels ~ Geometric(1/2)`` for all n stations (vectorized) and
   histogram ``min(level, G)``;
2. sweep slot for level ``j`` has exactly ``hist[j]`` transmitters; a
   clear slot with ``hist[j] == 1`` makes that station a round winner;
3. the confirmation slot has ``#winners`` transmitters; a clear ``Single``
   there elects.

Per-round cost is O(G + n) with NumPy constants -- orders of magnitude
faster than the per-station engine, and distributionally identical
(cross-validated in ``tests/protocols/baselines/test_geometric_energy.py``).
Energy accounting matches the faithful engine: one transmission per
station per round plus one confirmation listen (winners transmit instead).

Guesses double every round while the levels stay near ``log2 n``, so on
a long run almost every slot is a sweep level above the highest drawn
one: nobody transmits and only the jamming budget moves.  When the
strategy's wants are a pure function of the slot
(:meth:`~repro.adversary.base.JammingStrategy.want_schedule`) and no
trace is recorded, those levels run as one block per round -- the budget
grants the block's wants, nothing is drawn -- and every result field
equals the slot-by-slot path (``TestIdleLevelBlocks`` in
``tests/protocols/baselines/test_geometric_energy.py``).
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import Adversary, AdversaryView
from repro.channel.channel import resolve_slot
from repro.channel.trace import ChannelTrace
from repro.errors import ConfigurationError
from repro.rng import RngLike, make_rng
from repro.sim.metrics import EnergyStats, RunResult

__all__ = ["simulate_geometric_fast"]


def _idle_schedule(adversary: Adversary):
    """The strategy's ``want_schedule`` when idle sweep levels may skip the
    per-slot view: a plain :class:`Adversary` (its ``decide`` is the
    strategy's want granted by the budget) over a schedulable strategy."""
    if type(adversary).decide is not Adversary.decide:
        return None
    strategy = adversary.strategy
    if strategy.want_schedule(0, 1) is None:
        return None
    return strategy.want_schedule


def simulate_geometric_fast(
    n: int,
    adversary: Adversary,
    max_slots: int,
    seed: RngLike = None,
    initial_guess: int = 2,
    record_trace: bool = False,
) -> RunResult:
    """Run the geometric-level tournament election over *n* stations.

    Mirrors :class:`~repro.protocols.baselines.geometric_energy.GeometricLevelStation`
    slot-for-slot; see that module for the protocol.

    When the strategy has a ``want_schedule`` and no trace is recorded,
    each round's sweep levels above the highest drawn level -- slots
    nobody transmits in -- run as one block: the budget grants their
    wants and nothing else happens there, exactly as slot by slot.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if initial_guess < 1:
        raise ConfigurationError(f"initial_guess must be >= 1, got {initial_guess}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")

    rng = make_rng(seed)
    adversary.reset(seed=rng.spawn(1)[0])
    schedule = None if record_trace else _idle_schedule(adversary)
    # Adaptive strategies read the trace; a schedulable one needs none.
    trace = ChannelTrace() if schedule is None else None
    energy = EnergyStats()

    guess = int(initial_guess)
    slot = 0
    elected = False
    timed_out = True
    first_single = None

    def decide_jam() -> bool:
        view = AdversaryView(
            slot=slot, n=n, trace=trace, budget=adversary.budget
        )
        return adversary.decide(view)

    def resolve(k: int) -> bool:
        """Resolve the current slot with *k* transmitters; True on a
        successful Single."""
        nonlocal first_single
        jammed = decide_jam()
        outcome = resolve_slot(slot, k, jammed)
        if trace is not None:
            trace.append(k, jammed, outcome.true_state, outcome.observed_state)
        energy.transmissions += k
        if outcome.successful_single and first_single is None:
            first_single = slot
        return outcome.successful_single

    while slot < max_slots:
        levels = np.minimum(rng.geometric(0.5, size=n), guess)
        hist = np.bincount(levels, minlength=guess + 1)
        top = guess
        if schedule is not None:
            # Levels above the highest drawn one: no transmitter, so the
            # budget's grants are all that happens there.
            idle = min(guess - int(levels.max()), max_slots - slot)
            adversary.budget.grant_block(schedule(slot, idle))
            slot += idle
            top -= idle
        winners = 0
        # Sweep: levels top, top-1, ..., 1.
        for j in range(top, 0, -1):
            if slot >= max_slots:
                break
            # Non-transmitters sleep during the sweep: no listening energy.
            if resolve(int(hist[j])):
                winners += 1
            slot += 1
        if slot >= max_slots:
            break
        # Confirmation slot: winners transmit, everyone else listens.
        single = resolve(winners)
        energy.listening += n - winners
        slot += 1
        if single:
            elected = True
            timed_out = False
            break
        guess *= 2

    leader = int(rng.integers(n)) if elected else None
    return RunResult(
        n=n,
        slots=slot,
        elected=elected,
        leader=leader,
        first_single_slot=first_single,
        all_terminated=elected,
        leaders_count=1 if elected else 0,
        jams=adversary.budget.jams_granted,
        jam_denied=adversary.budget.denied_requests,
        energy=energy,
        trace=trace if record_trace else None,
        timed_out=timed_out,
    )
