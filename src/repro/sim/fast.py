"""Fast vectorized engine for uniform protocols.

For a uniform protocol all stations share one state and transmit with a
common probability ``p``; the only quantity the channel depends on is the
number of transmitters ``k``, distributed ``Binomial(n, p)``.  Sampling
``k`` directly makes the per-slot cost O(1), independent of ``n`` -- this
is the standard algorithmic optimization for simulating uniform radio
protocols, and it is *exact*: the distribution of the observed state
sequence is identical to the per-station simulation (cross-validated by
the faithful rows of ``tests/sim/test_conformance.py``).

Semantics are strong-CD / selection-resolution: the run ends at the first
successful (non-jammed) ``Single``; the transmitting station -- by
symmetry a uniformly random one -- is the leader.  Weak-CD LESK behaves
identically up to that slot (any slot where transmitter and listener
perceptions could diverge either ends the run or collapses to the same
``Collision`` update; see DESIGN.md), so this engine also measures weak-CD
selection-resolution time.
"""

from __future__ import annotations

from repro.adversary.base import Adversary, AdversaryView
from repro.channel.channel import resolve_slot
from repro.channel.faulty import corrupt_observed
from repro.channel.trace import ChannelTrace
from repro.errors import ConfigurationError
from repro.protocols.base import UniformPolicy
from repro.rng import RngLike, make_rng
from repro.sim.engine import _realize_faults
from repro.sim.instrumentation import EngineRecorder
from repro.sim.metrics import EnergyStats, RunResult
from repro.telemetry import get_telemetry
from repro.types import ChannelState

__all__ = ["simulate_uniform_fast"]


def simulate_uniform_fast(
    policy: UniformPolicy,
    n: int,
    adversary: Adversary,
    max_slots: int,
    seed: RngLike = None,
    record_trace: bool = False,
    halt_on_single: bool = True,
    faults=None,
    auditor=None,
) -> RunResult:
    """Simulate a uniform *policy* over *n* stations against *adversary*.

    Parameters
    ----------
    policy:
        Fresh :class:`~repro.protocols.base.UniformPolicy` instance (its
        state is consumed by the run).
    n:
        Number of honest stations (n >= 1).
    adversary:
        Budget-enforced adversary; reset by the engine.
    max_slots:
        Hard slot limit.
    seed:
        Root seed or generator.
    record_trace:
        Keep the slot-by-slot trace (including ``p`` and ``u`` series).
    halt_on_single:
        End the run at the first successful ``Single`` (election / selection
        resolution).  Set to False for protocols run purely for their own
        result (e.g. standalone ``Estimation`` used as a size-approximation
        primitive), in which case Singles are passed to the policy.
    faults:
        Optional :class:`~repro.resilience.faults.FaultModel` (or realized
        schedule).  Churn shrinks the binomial's station count, clock skew
        thins the transmit probability (``p * (1 - skew_rate)``, exact for
        the transmitter-count law), and corruption rewrites the shared
        observation.  ``None``/disabled keeps the run bit-identical to a
        fault-free build.
    auditor:
        Optional :class:`~repro.resilience.auditor.InvariantAuditor`.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")

    rng = make_rng(seed)
    adversary.reset(seed=rng.spawn(1)[0])
    # Fault streams spawn only when faults are enabled, *after* the
    # adversary's spawn: the fault-free bitstream is untouched.
    realized = _realize_faults(faults, n, max_slots, rng)
    # The trace doubles as the adversary's observed history even when the
    # caller does not want it back; the probability/u columns are only
    # stored when tracing, keeping the hot path free of per-slot appends.
    trace = ChannelTrace(record_probabilities=record_trace)
    energy = EnergyStats()
    elected = False
    leader: int | None = None
    first_heard_single: int | None = None
    timed_out = True
    slots_run = 0
    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "fast", adversary.strategy_name)
        if tel.enabled
        else None
    )
    last_u = policy.u

    for slot in range(max_slots):
        p = policy.transmit_probability(slot)
        u = policy.u
        view = AdversaryView(
            slot=slot,
            n=n,
            trace=trace,
            budget=adversary.budget,
            transmit_probability=p,
            protocol_u=u,
        )
        jammed = adversary.decide(view)

        if realized is not None:
            # Churn shrinks the station pool; clock skew thins the transmit
            # probability (exact for the Binomial transmitter-count law).
            awake = realized.awake_count(slot)
            flags = realized.begin_slot(slot, awake)
            p_eff = p * flags.p_scale
        else:
            awake = n
            flags = None
            p_eff = p
        if p_eff <= 0.0:
            k = 0
        elif p_eff >= 1.0:
            k = awake
        else:
            k = int(rng.binomial(awake, p_eff))
        energy.transmissions += k
        energy.listening += awake - k

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
            probability=p,
            u=u,
        )
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

        slots_run = slot + 1
        if (
            outcome.successful_single
            and observed is ChannelState.SINGLE
            and first_heard_single is None
        ):
            first_heard_single = slot
        if (
            outcome.successful_single
            and observed is ChannelState.SINGLE
            and halt_on_single
        ):
            # An erased/downgraded Single goes unheard and does not resolve
            # the election; with faults off this is successful_single as is.
            elected = True
            # By symmetry the successful transmitter is uniform over the
            # stations awake in this slot.
            if realized is not None:
                leader = realized.pick_awake_station(slot, rng)
            else:
                leader = int(rng.integers(n))
            timed_out = False
            break
        if observed is not None:
            policy.observe(slot, observed)
        if rec is not None and policy.u != last_u:
            rec.phase(slot, last_u, policy.u)
            last_u = policy.u
        if policy.completed:
            timed_out = False
            break

    leader_survived = True
    if realized is not None and leader is not None:
        leader_survived = realized.leader_survives(leader)
    if auditor is not None:
        leader_awake = True
        if realized is not None and leader is not None:
            leader_awake = realized.station_participating(leader, slots_run - 1)
        auditor.check_election(
            1 if elected else 0,
            leader=leader,
            deciding_slot=slots_run - 1 if elected else None,
            leader_transmitted=True,  # the winner is the slot's transmitter
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
        # Under faults only a *heard* Single counts (an erased/downgraded
        # one is invisible to stations); without faults the two agree.
        first_single_slot=(
            trace.first_single_slot if realized is None else first_heard_single
        ),
        all_terminated=elected or policy.completed,
        leaders_count=1 if elected else 0,
        jams=adversary.budget.jams_granted,
        jam_denied=adversary.budget.denied_requests,
        energy=energy,
        policy_result=policy.result,
        trace=trace if record_trace else None,
        timed_out=timed_out,
        leader_survived=leader_survived,
    )
