"""A4 -- context experiment: the [3] MAC's constant-throughput claim.

The paper positions itself against Awerbuch-Richa-Scheideler [3], whose
headline is *constant throughput* under (T, 1-eps) jamming -- leader
election is just one application.  To confirm our reimplementation is a
fair comparator, this experiment runs the plain ARS MAC (no termination on
Single) and measures the fraction of non-jammed slots that carry a
successful message, in the first and the second half of the run.  Both
halves read about 1/3 at every n: the back-off from p = 1/24 settles
early in the first half, whose throughput sits only slightly below the
second half's at the largest n.  The claim is the positive plateau of
the second half.

The runs use the vectorized :func:`simulate_ars_fast` in its no-halt mode,
which mirrors ``ARSMACStation(terminate_on_single=False)`` slot for slot
(its per-half throughput law is checked against the faithful engine in
``tests/protocols/baselines/test_ars_fast.py``).
"""

from __future__ import annotations

import numpy as np

from repro.adversary.suite import make_adversary
from repro.experiments.harness import Column, Table, preset_value, replicate
from repro.protocols.baselines.ars_fast import simulate_ars_fast
from repro.protocols.baselines.ars_mac import ars_gamma

EXPERIMENT = "A4"


def _throughput(n: int, eps: float, T: int, adversary: str, slots: int, seed: int):
    result = simulate_ars_fast(
        n,
        ars_gamma(n, T),
        make_adversary(adversary, T=T, eps=eps),
        max_slots=slots,
        seed=seed,
        record_trace=True,
        halt_on_single=False,
    )
    trace = result.trace
    singles = (trace.true_states_array() == 1) & ~trace.jammed_array()
    clear = ~trace.jammed_array()
    half = slots // 2
    early = singles[:half].sum() / max(1, clear[:half].sum())
    late = singles[half:].sum() / max(1, clear[half:].sum())
    return float(early), float(late)


def run(preset: str = "small", seed: int = 2030) -> Table:
    """Run experiment A4 at *preset* scale and return its table."""
    ns = preset_value(preset, [32, 128], [32, 128, 512])
    reps = preset_value(preset, 4, 20)
    slots = preset_value(preset, 4_000, 20_000)
    eps = 0.5
    T = 16
    adversary = "saturating"

    table = Table(
        name=EXPERIMENT,
        title="ARS [3] MAC throughput (successful Singles per clear slot)",
        claim="[3] achieves constant throughput after convergence -- sanity "
        "check that our comparator is faithful",
        columns=[
            Column("n", "n"),
            Column("early", "first-half throughput", ".3f"),
            Column("late", "second-half throughput", ".3f"),
        ],
    )
    for ni, n in enumerate(ns):
        pairs = replicate(
            lambda s: _throughput(n, eps, T, adversary, slots, s), reps, seed, 16, ni
        )
        early = float(np.mean([p[0] for p in pairs]))
        late = float(np.mean([p[1] for p in pairs]))
        table.add_row(n=n, early=early, late=late)
    table.add_note(
        f"{slots} slots per run; 'throughput' is measured over non-jammed "
        "slots only (the adversary denies the rest by definition)"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
