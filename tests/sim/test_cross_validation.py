"""Cross-validation: weak-CD LESK and strong-CD LESK elect in lockstep.

The fast engine's KS cross-validation against the faithful per-station
engine (the correctness argument for the "Fast path" of DESIGN.md) is the
``faithful`` rows of the engine registry in
``tests/sim/test_conformance.py``.  What stays here is a paired exact
equality, which does not fit a registry row.
"""

from __future__ import annotations

from repro.adversary.suite import make_adversary
from repro.protocols.lesk import LESKPolicy
from repro.sim.engine import simulate_stations
from repro.types import CDMode

N = 64
EPS = 0.5
T = 8


def test_weak_cd_selection_matches_strong_cd_until_first_single():
    """Weak-CD LESK (Function 3) behaves identically to strong-CD LESK up
    to the first successful Single: the shared estimator state never
    diverges before then (DESIGN.md equivalence argument).  We verify on
    the faithful engine by comparing first-single times."""
    weak, strong = [], []
    for seed in range(60):
        for cd, sink in ((CDMode.STRONG, strong), (CDMode.WEAK, weak)):
            from repro.protocols.base import UniformStationAdapter

            stations = [
                UniformStationAdapter(LESKPolicy(EPS), cd_mode=cd) for _ in range(N)
            ]
            result = simulate_stations(
                stations,
                adversary=make_adversary("none", T=T, eps=EPS),
                cd_mode=cd,
                max_slots=100_000,
                seed=seed,
                stop_on_first_single=True,
            )
            assert result.first_single_slot is not None
            sink.append(result.first_single_slot)
    # Identical seeds drive identical coin flips until the first Single,
    # so the paired times must match exactly.
    assert weak == strong
