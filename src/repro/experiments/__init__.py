"""Experiment suite regenerating every quantitative claim of the paper.

One module per experiment (see DESIGN.md section 2 for the index):

====  ==========================================================
id    claim
====  ==========================================================
T1    Theorem 2.6 -- LESK O(log n) scaling (e01)
T2    Theorem 2.6 -- LESK eps-dependence (e02)
T3    Lemma 2.7  -- lower bound / front jammer (e03)
T4    Lemma 2.8  -- Estimation bracket and runtime (e04)
T5    Theorem 2.9 -- LESU two regimes (e05)
T6    Lemma 3.1 / Thm 3.2-3.3 -- Notification overhead (e06)
T7    Section 1.3 -- LESK vs ARS [3] (e07)
T8    Section 1.1 -- adversary-strategy ablation (e08)
T9    Section 1.3 -- energy (e09)
T10   Lemmas 2.1-2.5 -- numeric bound + proof-chain checks (e10)
F1    Section 2.2 -- estimator trajectories (e11)
F2    Theorem 2.6 -- success-probability curve (e12)
A1    ablation: the collision weight a = 8/eps (e13)
A2    ablation: LESU's constant c (e14)
A3    the Section 4 no-CD open problem, quantified (e15)
A4    ARS [3] throughput sanity check (e16)
A5    Section 4 building blocks end to end (e17)
A6    energy-vs-robustness frontier (e18)
A7    the price of universality (e19)
A8    evolution-searched adversaries (e20)
A9    ablation: why Notification's intervals double (e21)
A10   robustness: election under injected faults (e22)
====  ==========================================================

Every experiment module exposes ``run(preset="small"|"full", seed=...)``
returning one or more :class:`repro.experiments.harness.Table` objects;
``python -m repro.experiments.run_all`` regenerates everything.  The CLI
runs each experiment as a supervised unit of work -- process isolation,
timeout, retry with backoff, atomic checkpointing and ``--resume`` -- via
:mod:`repro.experiments.runner` (see docs/runner.md), chaos-tested with
the deterministic fault injection in :mod:`repro.experiments.faults`.
"""

from repro.experiments.harness import Table, replicate, summarize_times

__all__ = ["Table", "replicate", "summarize_times"]
