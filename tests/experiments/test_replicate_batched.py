"""replicate_batched: harness wiring of the batched engine.

Checks seed-stability and summary-dict compatibility with the scalar
``replicate`` path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.vector import make_batched_adversary
from repro.core.election import elect_leader
from repro.errors import ConfigurationError
from repro.experiments.cells import lesk_cell
from repro.experiments.harness import replicate, replicate_batched, summarize_times
from repro.protocols.vector import VectorLESKPolicy

N = 64
EPS = 0.5
T = 8


def _batch(reps, root_seed, *path):
    return replicate_batched(
        lambda r: VectorLESKPolicy(EPS, r),
        N,
        lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
        reps,
        root_seed,
        *path,
        max_slots=100_000,
    )


def test_returns_runresult_list():
    results = _batch(20, 77, 3)
    assert len(results) == 20
    assert all(r.elected for r in results)
    assert all(0 <= r.leader < N for r in results)


def test_path_stable_seeding():
    a = _batch(12, 77, 1, 2)
    b = _batch(12, 77, 1, 2)
    c = _batch(12, 77, 2, 1)
    assert [r.slots for r in a] == [r.slots for r in b]
    assert [r.slots for r in a] != [r.slots for r in c]


def test_summary_dict_matches_replicate_schema():
    batched = summarize_times(_batch(30, 5))
    scalar = summarize_times(
        replicate(
            lambda s: elect_leader(
                n=N, eps=EPS, T=T, adversary="saturating", seed=s
            ),
            30,
            5,
        )
    )
    assert set(batched) == set(scalar)
    assert batched["reps"] == scalar["reps"] == 30
    assert batched["success_rate"] == 1.0
    # Same law: medians land close at 30 reps.
    assert batched["median_slots"] == pytest.approx(scalar["median_slots"], rel=0.3)


def test_lesk_cell_scalar_fallback_for_adaptive_adversary():
    """Adaptive strategies have no vector path; the cell falls back to the
    scalar engine and still produces the same result schema."""
    results = lesk_cell(N, EPS, T, "single-suppressor", 5, 11, batched=True)
    assert len(results) == 5
    assert all(r.elected for r in results)


def test_lesk_cell_engines_agree_in_law():
    batched = lesk_cell(N, EPS, T, "saturating", 40, 9, batched=True)
    scalar = lesk_cell(N, EPS, T, "saturating", 40, 9, batched=False)
    assert np.median([r.slots for r in batched]) == pytest.approx(
        np.median([r.slots for r in scalar]), rel=0.3
    )


def test_bad_reps():
    with pytest.raises(ConfigurationError):
        _batch(0, 1)
