"""T6 -- Lemma 3.1 / Theorems 3.2-3.3: weak-CD election via Notification.

Runs LEWK (= Notification(LESK)) per station, on the vectorized faithful
engine with :class:`~repro.protocols.vector.VectorNotificationPolicy`, and
compares against plain LESK in strong-CD on the scalar fast engine.
Checks, per configuration:

* **correctness**: every station terminates and *exactly one* holds
  ``leader = true`` (reported as a rate over repetitions; must be 1.0);
* **overhead**: the ratio of the weak-CD completion time to the strong-CD
  first-Single time stays bounded by a constant (Lemma 3.1's factor is 8
  asymptotically; small n pay extra for interval alignment).

Both rates are measured: the engine reads each replication's leader
count and all-done flag off the stations' own Notification state.  The
per-station law is checked against the scalar faithful engine
(:func:`repro.sim.engine.simulate_stations`) in
``tests/sim/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.vector import make_batched_adversary
from repro.core.config import default_slot_budget
from repro.core.election import elect_leader
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    replicate,
    replicate_vectorized,
    summarize_times,
)
from repro.protocols.vector import VectorLESKPolicy, VectorNotificationPolicy
from repro.types import CDMode

EXPERIMENT = "T6"


def run(preset: str = "small", seed: int = 2020) -> Table:
    """Run experiment T6 at *preset* scale and return its table."""
    ns = preset_value(preset, [16, 64], [8, 32, 128, 512])
    reps = preset_value(preset, 10, 40)
    eps = 0.5
    T = 16
    adversaries = preset_value(
        preset, ["none", "saturating"], ["none", "saturating", "single-suppressor"]
    )

    table = Table(
        name=EXPERIMENT,
        title="LEWK (weak-CD Notification) vs LESK (strong-CD)",
        claim="Lemma 3.1/Thm 3.2: weak-CD election in O(t(n)) (<= 8 t(n)), "
        "w.h.p. exactly one leader",
        columns=[
            Column("adversary", "adversary"),
            Column("n", "n"),
            Column("weak_median", "LEWK median", ".0f"),
            Column("strong_median", "LESK median", ".0f"),
            Column("overhead", "overhead x", ".2f"),
            Column("unique_leader", "1-leader rate", ".3f"),
            Column("terminated", "all-done rate", ".3f"),
        ],
    )
    for ai, adversary in enumerate(adversaries):
        for ni, n in enumerate(ns):
            weak = replicate_vectorized(
                lambda width: VectorNotificationPolicy(
                    lambda w: VectorLESKPolicy(eps, w), width
                ),
                n,
                lambda r: make_batched_adversary(adversary, T=T, eps=eps, reps=r),
                reps,
                seed,
                6,
                ai,
                ni,
                0,
                max_slots=default_slot_budget(n, eps, T, "lewk"),
                cd_mode=CDMode.WEAK,
            )
            strong = replicate(
                lambda s: elect_leader(
                    n=n, protocol="lesk", eps=eps, T=T, adversary=adversary, seed=s
                ),
                reps,
                seed,
                6,
                ai,
                ni,
                1,
            )
            w = summarize_times(weak)
            s = summarize_times(strong)
            unique = sum(1 for r in weak if r.leaders_count == 1) / len(weak)
            done = sum(1 for r in weak if r.all_terminated) / len(weak)
            table.add_row(
                adversary=adversary,
                n=n,
                weak_median=w["median_slots"],
                strong_median=s["median_slots"],
                overhead=w["median_slots"] / max(1.0, s["median_slots"]),
                unique_leader=unique,
                terminated=done,
            )
    overheads = [row["overhead"] for row in table.rows]
    table.add_note(
        f"max observed overhead {np.max(overheads):.1f}x; Lemma 3.1 promises O(1) "
        "(the asymptotic constant is 8; interval alignment adds a small-n surcharge)"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
