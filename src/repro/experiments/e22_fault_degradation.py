"""A10 -- graceful degradation of election under model-level faults.

The paper's guarantees assume a fixed, fault-free station population: the
only disruption is the (T, 1-eps)-bounded jammer.  This experiment measures
what happens when that assumption is relaxed with the
:mod:`repro.resilience` fault injector: station churn (a severity-fraction
of stations crash at scheduled slots) and feedback corruption (each slot's
shared observation is flipped or erased with the severity probability),
swept for LESK and LESU.

Every run executes with the runtime
:class:`~repro.resilience.auditor.InvariantAuditor` attached -- the
adversary budget, channel consistency and election safety are re-verified
on every slot of every cell, so the table doubles as a large randomized
audit (a violation aborts the experiment loudly).  Crashed would-be
leaders are handled by the restart supervision in
:func:`~repro.core.election.elect_leader`; the mean restart count is part
of the degradation picture.

Expected shape: success degrades smoothly (no cliff at small severities);
corruption slows elections (erased/flipped Singles go unheard, collisions
mislead the estimator) before it prevents them; churn costs restarts --
the chance the first winner is doomed scales with the crashed fraction --
rather than slots.
"""

from __future__ import annotations

from statistics import mean

from repro.adversary.vector import make_batched_adversary
from repro.core.config import default_slot_budget
from repro.core.election import elect_leader
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    record_engine_fallback,
    replicate,
    replicate_vectorized,
    summarize_times,
)
from repro.protocols.vector import VectorLESKPolicy, VectorLESUPolicy
from repro.resilience.faults import NO_FAULTS, FaultModel

EXPERIMENT = "A10"

#: Restart budget for crashed would-be leaders (supervision layer).
MAX_RESTARTS = 3


def _fault_model(kind: str, rate: float, n: int, T: int) -> FaultModel:
    if rate == 0.0:
        return NO_FAULTS
    if kind == "churn":
        # Crash a *fraction* of the population at scheduled slots spread
        # over the first 8T slots.  (A geometric crash *rate* would doom
        # essentially every station within the slot budget's horizon --
        # informative about nothing but the horizon length; the fraction
        # sweep isolates how election copes with losing stations.)
        crashes = max(1, round(rate * n))
        return FaultModel(
            crash_slots=tuple((i * 8 * T) // crashes for i in range(crashes))
        )
    if kind == "corruption":
        return FaultModel(flip_rate=rate, erase_rate=rate)
    raise ValueError(f"unknown fault kind {kind!r}")


def _vector_policy_factory(protocol: str, eps: float):
    if protocol == "lesk":
        return lambda width: VectorLESKPolicy(eps, width)
    return lambda width: VectorLESUPolicy(width)


def run(preset: str = "small", seed: int = 2026) -> Table:
    """Run experiment A10 at *preset* scale and return its table.

    Each corruption cell runs as one audited
    :func:`~repro.sim.vectorized.simulate_stations_vectorized` batch --
    the same per-station faithful model, minus the scalar station loop.
    Churn cells (and the fault-free baseline, which is the churn sweep's
    zero-severity row) stay on the scalar path: restart supervision after
    a doomed leader lives in :func:`~repro.core.election.elect_leader`,
    which reruns one scalar election at a time.
    """
    n = preset_value(preset, 128, 1024)
    eps = 0.5
    T = 16
    reps = preset_value(preset, 12, 200)
    rates = preset_value(
        preset,
        [0.0, 0.1, 0.3],
        [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5],
    )
    adversary = "saturating"

    table = Table(
        name=EXPERIMENT,
        title=(
            f"Election under injected faults (n={n}, eps={eps}, T={T}, "
            f"{adversary} jammer, auditor on)"
        ),
        claim=(
            "robustness: success degrades smoothly with fault severity; "
            "every slot passes the invariant auditor"
        ),
        columns=[
            Column("protocol", "protocol"),
            Column("fault", "fault"),
            Column("rate", "severity", ".3f"),
            Column("success_rate", "clean success", ".3f"),
            Column("mean_slots", "mean slots", ".1f"),
            Column("mean_restarts", "mean restarts", ".2f"),
            Column("leader_crashes", "doomed leaders", "d"),
        ],
    )

    for pi, protocol in enumerate(("lesk", "lesu")):
        for ki, kind in enumerate(("churn", "corruption")):
            for ri, rate in enumerate(rates):
                if rate == 0.0 and ki > 0:
                    continue  # the fault-free baseline is one row per protocol
                faults = _fault_model(kind, rate, n, T)
                if kind != "churn":
                    # Corruption schedules no crashes, so restart
                    # supervision is moot and the whole cell runs as one
                    # audited vectorized batch.
                    results = replicate_vectorized(
                        _vector_policy_factory(protocol, eps),
                        n,
                        lambda r: make_batched_adversary(
                            adversary, T=T, eps=eps, reps=r
                        ),
                        reps,
                        seed,
                        22,
                        pi,
                        ki,
                        ri,
                        max_slots=default_slot_budget(n, eps, T, protocol),
                        faults=faults,
                        audit_T=T,
                        audit_eps=eps,
                    )
                else:
                    record_engine_fallback("e22-churn", "restart-supervision")
                    results = replicate(
                        lambda s: elect_leader(
                            n=n,
                            protocol=protocol,
                            eps=eps,
                            T=T,
                            adversary=adversary,
                            seed=s,
                            engine="fast",
                            faults=faults,
                            audit=True,
                            max_restarts=MAX_RESTARTS,
                        ),
                        reps,
                        seed,
                        22,
                        pi,
                        ki,
                        ri,
                    )
                # "Clean" success: elected AND the leader is not scheduled
                # to crash within the horizon (leader_survived).
                clean = [r for r in results if r.elected and r.leader_survived]
                stats = summarize_times(
                    results,
                    elected_of=lambda r: r.elected and r.leader_survived,
                )
                table.add_row(
                    protocol=protocol,
                    fault="none" if rate == 0.0 else kind,
                    rate=rate,
                    success_rate=stats["success_rate"],
                    mean_slots=(
                        mean(r.slots for r in clean) if clean else float("nan")
                    ),
                    mean_restarts=mean(r.restarts for r in results),
                    leader_crashes=sum(
                        1 for r in results if r.elected and not r.leader_survived
                    ),
                )
    table.add_note(
        f"every run audited per-slot (budget/channel/election invariants); "
        f"restart supervision re-elects after a doomed leader, "
        f"max_restarts={MAX_RESTARTS}"
    )
    table.add_note(
        "churn severity = fraction of stations scheduled to crash (spread "
        "over the first 8T slots); corruption severity = per-slot "
        "flip/erase probability of the shared observation"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
