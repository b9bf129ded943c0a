"""Fixed-seed pins for the five cell kinds on both engine paths.

Each kind runs one cell on the batched engines and on the scalar fast
engine (``batched=False``), with faults off and on.  A second cell per
kind erases every slot's feedback, so each of its runs ends at the
kind's default slot cap: a kind built with the wrong policy or the wrong
cap shows here.
"""

from __future__ import annotations

import pytest

from repro.experiments.cells import CELL_KINDS
from repro.resilience.faults import FaultModel

FAULTS = {
    "faults-off": None,
    "faults-on": FaultModel(crash_rate=0.01, flip_rate=0.05),
}

#: ``(slots, elected, jams, policy_result)`` per run of
#: ``cell(512, 0.5, 8, "saturating", 4, 7, 5)``.
PINS = {
    ("lesk", "batched", "faults-off"): (
        (144, True, 64, None), (117, True, 52, None),
        (137, True, 61, None), (126, True, 56, None),
    ),
    ("lesk", "batched", "faults-on"): (
        (195, True, 87, None), (179, True, 80, None),
        (135, True, 60, None), (261, True, 116, None),
    ),
    ("lesk", "scalar", "faults-off"): (
        (105, True, 47, None), (112, True, 50, None),
        (116, True, 52, None), (112, True, 50, None),
    ),
    ("lesk", "scalar", "faults-on"): (
        (159, True, 71, None), (305, True, 136, None),
        (92, True, 41, None), (357, True, 159, None),
    ),
    ("lesu", "batched", "faults-off"): (
        (110, True, 49, None), (11, True, 5, None),
        (7, True, 4, None), (7, True, 4, None),
    ),
    ("lesu", "batched", "faults-on"): (
        (7, True, 4, None), (141, True, 63, None),
        (9, True, 4, None), (7, True, 4, None),
    ),
    ("lesu", "scalar", "faults-off"): (
        (11, True, 5, None), (8, True, 4, None),
        (29, True, 13, None), (8, True, 4, None),
    ),
    ("lesu", "scalar", "faults-on"): (
        (11, True, 5, None), (8, True, 4, None),
        (29, True, 13, None), (8, True, 4, None),
    ),
    ("estimation", "batched", "faults-off"): (
        (30, False, 14, 4), (11, True, 5, None),
        (7, True, 4, None), (7, True, 4, None),
    ),
    ("estimation", "batched", "faults-on"): (
        (7, True, 4, None), (30, False, 14, 4),
        (9, True, 4, None), (7, True, 4, None),
    ),
    ("estimation", "scalar", "faults-off"): (
        (11, True, 5, None), (8, True, 4, None),
        (29, True, 13, None), (8, True, 4, None),
    ),
    ("estimation", "scalar", "faults-on"): (
        (11, True, 5, None), (8, True, 4, None),
        (29, True, 13, None), (8, True, 4, None),
    ),
    ("sweep", "batched", "faults-off"): (
        (51, True, 23, None), (29, True, 13, None),
        (31, True, 14, None), (1043, True, 464, None),
    ),
    ("sweep", "batched", "faults-on"): (
        (29, True, 13, None), (144, True, 64, None),
        (33, True, 15, None), (29, True, 13, None),
    ),
    ("sweep", "scalar", "faults-off"): (
        (83, True, 37, None), (80, True, 36, None),
        (31, True, 14, None), (49, True, 22, None),
    ),
    ("sweep", "scalar", "faults-on"): (
        (29, True, 13, None), (18, True, 8, None),
        (27, True, 12, None), (141, True, 63, None),
    ),
    ("nocd", "batched", "faults-off"): (
        (90, True, 40, None), (92, True, 41, None),
        (85, True, 38, None), (83, True, 37, None),
    ),
    ("nocd", "batched", "faults-on"): (
        (87, True, 39, None), (78, True, 35, None),
        (76, True, 34, None), (90, True, 40, None),
    ),
    ("nocd", "scalar", "faults-off"): (
        (98, True, 44, None), (92, True, 41, None),
        (231, True, 103, None), (89, True, 40, None),
    ),
    ("nocd", "scalar", "faults-on"): (
        (90, True, 40, None), (90, True, 40, None),
        (83, True, 37, None), (76, True, 34, None),
    ),
}

#: The default cap of each kind at n = 2, eps = 0.9, T = 1: LESK's
#: budget for LESK and both sweeps, LESU's own, and T4's for Estimation.
CAPS = {"lesk": 687, "lesu": 5532, "estimation": 5120, "sweep": 687, "nocd": 687}


def _key(results) -> tuple:
    return tuple((r.slots, r.elected, r.jams, r.policy_result) for r in results)


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("engine", ["batched", "scalar"])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_cell_pin(kind, engine, faults):
    results = CELL_KINDS[kind](
        512, 0.5, 8, "saturating", 4, 7, 5,
        batched=engine == "batched", faults=FAULTS[faults],
    )
    assert _key(results) == PINS[kind, engine, faults]


@pytest.mark.parametrize("engine", ["batched", "scalar"])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_runs_end_at_the_default_cap(kind, engine):
    results = CELL_KINDS[kind](
        2, 0.9, 1, "saturating", 2, 23, 6,
        batched=engine == "batched", faults=FaultModel(erase_rate=1.0),
    )
    assert [(r.slots, r.elected) for r in results] == [(CAPS[kind], False)] * 2
