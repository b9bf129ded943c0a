"""A3 -- the paper's open problem, quantified: the no-CD frontier.

Section 4: "it is not clear what countermeasures against a jammer can be
constructed for the communication model without collision detection."

Two halves to the problem, and this experiment measures the half that is
measurable:

1. **Selection** (getting a first ``Single``) *can* survive jamming in
   no-CD -- but only via oblivious repetition ([19]-style schedules that
   ignore feedback entirely), at an ``O(log^2 n)``-ish slot bill.  The
   table races the no-CD sweep against LESK across the jammer suite: both
   succeed, but the adaptive protocol is far cheaper *and* its advantage
   is exactly the feedback bit no-CD lacks.

2. **Termination** is the open half: in no-CD a listener cannot
   distinguish ``Null`` from ``Collision``, so LESK's estimator has no
   unforgeable anchor and -- worse -- the Notification construction
   breaks: the leader quits on a *silence* in ``C_1`` (Function 4), an
   event a no-CD station simply cannot observe.  No table can show a
   protocol that does not exist; the note records the structural reason.
"""

from __future__ import annotations

from repro.experiments.cells import CellSpec, run_cells
from repro.experiments.harness import Column, Table, preset_value, summarize_times

EXPERIMENT = "A3"


def run(preset: str = "small", seed: int = 2029) -> Table:
    """Run experiment A3 at *preset* scale and return its table.

    The LESK side runs on the batched engine and the no-CD side on the
    megakernel's fused path: ``single-suppressor`` (the jammer used here)
    reads only the transmit probability, which every live no-CD sweep
    column shares.
    """
    ns = preset_value(preset, [2**8, 2**14], [2**8, 2**12, 2**16, 2**20, 2**24])
    reps = preset_value(preset, 10, 60)
    eps = 0.5
    T = 16
    cap = preset_value(preset, 100_000, 500_000)
    adversary = "single-suppressor"

    table = Table(
        name=EXPERIMENT,
        title=f"no-CD oblivious selection vs CD-adaptive LESK "
        f"({adversary} jammer, eps={eps})",
        claim="Sec 4 open problem: no-CD selection survives only by oblivious "
        "repetition, pays ~log^2 n, and cannot notify its winner",
        columns=[
            Column("n", "n"),
            Column("nocd_median", "no-CD median", ".0f"),
            Column("nocd_success", "no-CD success", ".3f"),
            Column("lesk_median", "LESK median", ".0f"),
            Column("lesk_success", "LESK success", ".3f"),
            Column("ratio", "no-CD/LESK", ".1f"),
        ],
    )
    nocd_specs = [
        CellSpec(
            kind="nocd", n=n, eps=eps, T=T, adversary=adversary,
            reps=reps, root_seed=seed, path=(15, ni, 0), max_slots=cap,
        )
        for ni, n in enumerate(ns)
    ]
    lesk_specs = [
        CellSpec(
            kind="lesk", n=n, eps=eps, T=T, adversary=adversary,
            reps=reps, root_seed=seed, path=(15, ni, 1),
            max_slots=cap,
        )
        for ni, n in enumerate(ns)
    ]
    nocd_cells = run_cells(nocd_specs)
    lesk_cells = run_cells(lesk_specs)
    nocd_pts, lesk_pts = [], []
    for ni, n in enumerate(ns):
        nocd = nocd_cells[ni]
        lesk = lesk_cells[ni]
        ns_ = summarize_times(nocd)
        ls = summarize_times(lesk)
        table.add_row(
            n=n,
            nocd_median=ns_["median_slots"],
            nocd_success=ns_["success_rate"],
            lesk_median=ls["median_slots"],
            lesk_success=ls["success_rate"],
            ratio=ns_["median_slots"] / max(1.0, ls["median_slots"]),
        )
        nocd_pts.append(ns_["median_slots"])
        lesk_pts.append(ls["median_slots"])
    import math

    from repro.analysis.estimators import fit_power_law

    logn = [math.log2(n) for n in ns]
    table.add_note(
        f"growth in log2(n): no-CD slope "
        f"{fit_power_law(logn, nocd_pts).slope:.2f} (theory 2), LESK "
        f"{fit_power_law(logn, lesk_pts).slope:.2f} (theory 1)"
    )
    table.add_note(
        "selection-resolution semantics (first Single).  Full no-CD *election* "
        "is the open problem: the winner cannot be notified -- Notification's "
        "termination signal is a Null in C_1, invisible without collision "
        "detection -- and any adaptive estimator lacks an unforgeable anchor."
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
