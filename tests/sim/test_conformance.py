"""Engine conformance: one registry, three contracts every engine must meet.

:data:`ENGINES` lists every simulation engine that runs a uniform protocol
(the scalar fast engine, the faithful per-station engine, its vectorized
twin, the batched engine and the megakernel) with the cells it supports.
Adding or removing an engine means editing that registry; each engine is
then checked for

* **law** -- election times (and, where the adversary jams, granted-jam
  counts) match the scalar fast engine's on shared cells, by two-sample
  Kolmogorov-Smirnov tests at significance level :data:`ALPHA` with fixed
  seeds (the fast engine is itself pinned to the faithful engine's law by
  ``tests/sim/test_cross_validation.py`` and by the faithful row here);
* **determinism** -- the same seed gives the same bits;
* **one stream** -- the megakernel and the batched engine consume one
  bitstream, so ``CellSpec(megakernel=True)`` returns exactly the results
  of ``megakernel=False`` for every cell kind, oblivious or adaptive
  adversary, faults off or on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy import stats

from repro.adversary.suite import make_adversary
from repro.adversary.vector import make_batched_adversary
from repro.experiments.cells import CELL_KINDS, CellSpec, run_cell_direct
from repro.protocols.base import UniformStationAdapter
from repro.protocols.baselines.nakano_olariu import (
    NoCDSweepPolicy,
    UniformSweepPolicy,
)
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import (
    VectorLESKPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
)
from repro.resilience.faults import FaultModel
from repro.rng import derive_seed
from repro.sim.batched import simulate_uniform_batched
from repro.sim.engine import simulate_stations
from repro.sim.fast import simulate_uniform_fast
from repro.sim.megakernel import simulate_uniform_megakernel
from repro.sim.vectorized import simulate_stations_vectorized
from repro.types import CDMode

N = 32
EPS = 0.5
T = 8
REPS = 150
MAX_SLOTS = 100_000

#: Significance level of every KS law check.  Seeds are fixed, so a
#: check either always passes or always fails; at this level a correct
#: engine fails a given check with probability 1e-4.
ALPHA = 1e-4

SCALAR_POLICIES = {
    "lesk": lambda: LESKPolicy(EPS),
    "sweep": UniformSweepPolicy,
    "nocd": NoCDSweepPolicy,
}
VECTOR_POLICIES = {
    "lesk": lambda width: VectorLESKPolicy(EPS, width),
    "sweep": VectorSweepPolicy,
    "nocd": VectorNoCDSweepPolicy,
}


@dataclass(frozen=True)
class Sample:
    """Per-replication outcomes of one engine on one cell."""

    slots: np.ndarray
    jams: np.ndarray
    leaders: np.ndarray
    elected: np.ndarray

    @classmethod
    def of_runs(cls, runs) -> "Sample":
        runs = list(runs)
        return cls(
            slots=np.array([r.slots for r in runs]),
            jams=np.array([r.jams for r in runs]),
            leaders=np.array([-1 if r.leader is None else r.leader for r in runs]),
            elected=np.array([r.elected for r in runs]),
        )

    @classmethod
    def of_batch(cls, batch) -> "Sample":
        return cls(batch.slots, batch.jams, batch.leaders, batch.elected)


def _vector_adversary(adversary: str):
    return lambda reps: make_batched_adversary(adversary, T=T, eps=EPS, reps=reps)


def run_fast(policy: str, adversary: str, reps: int, seed: int) -> Sample:
    return Sample.of_runs(
        simulate_uniform_fast(
            SCALAR_POLICIES[policy](),
            n=N,
            adversary=make_adversary(adversary, T=T, eps=EPS),
            max_slots=MAX_SLOTS,
            seed=derive_seed(seed, r),
        )
        for r in range(reps)
    )


def run_faithful(policy: str, adversary: str, reps: int, seed: int) -> Sample:
    return Sample.of_runs(
        simulate_stations(
            [UniformStationAdapter(SCALAR_POLICIES[policy]()) for _ in range(N)],
            make_adversary(adversary, T=T, eps=EPS),
            cd_mode=CDMode.STRONG,
            max_slots=MAX_SLOTS,
            seed=derive_seed(seed, r),
            stop_on_first_single=True,
        )
        for r in range(reps)
    )


def run_vectorized(policy: str, adversary: str, reps: int, seed: int) -> Sample:
    return Sample.of_batch(
        simulate_stations_vectorized(
            VECTOR_POLICIES[policy], N, _vector_adversary(adversary),
            reps=reps, max_slots=MAX_SLOTS, root_seed=seed,
        )
    )


def run_batched(policy: str, adversary: str, reps: int, seed: int) -> Sample:
    return Sample.of_batch(
        simulate_uniform_batched(
            VECTOR_POLICIES[policy], N, _vector_adversary(adversary),
            reps=reps, max_slots=MAX_SLOTS, root_seed=seed,
        )
    )


def run_megakernel(policy: str, adversary: str, reps: int, seed: int) -> Sample:
    return Sample.of_batch(
        simulate_uniform_megakernel(
            VECTOR_POLICIES[policy], N, _vector_adversary(adversary),
            reps=reps, max_slots=MAX_SLOTS, root_seed=seed,
        )
    )


@dataclass(frozen=True)
class Engine:
    run: Callable[[str, str, int, int], Sample]
    #: ``(policy, adversary)`` cells whose law is checked for this engine.
    cells: tuple[tuple[str, str], ...]


ENGINES = {
    "fast": Engine(run_fast, ()),  # the reference
    "faithful": Engine(run_faithful, (("lesk", "saturating"), ("lesk", "reactive"))),
    "vectorized": Engine(
        run_vectorized, (("lesk", "saturating"), ("lesk", "reactive"))
    ),
    "batched": Engine(
        run_batched,
        (
            ("lesk", "none"),
            ("lesk", "saturating"),
            ("lesk", "periodic-front"),
            ("lesk", "random"),
            ("lesk", "reactive"),
            ("sweep", "none"),
        ),
    ),
    # Fast-path policies under oblivious (schedulable) jammers; every
    # other configuration runs the batched loop, checked above.
    "megakernel": Engine(
        run_megakernel,
        (
            ("lesk", "none"),
            ("lesk", "saturating"),
            ("sweep", "none"),
            ("sweep", "saturating"),
            ("nocd", "none"),
            ("nocd", "saturating"),
        ),
    ),
}

REFERENCE = "fast"

LAW_CASES = [
    pytest.param(engine, policy, adversary, id=f"{engine}-{policy}-{adversary}")
    for engine, spec in ENGINES.items()
    for policy, adversary in spec.cells
]


@functools.lru_cache(maxsize=None)
def reference_sample(policy: str, adversary: str) -> Sample:
    return ENGINES[REFERENCE].run(policy, adversary, REPS, 1)


def assert_same_law(got: np.ndarray, ref: np.ndarray, label: str) -> None:
    ks = stats.ks_2samp(got.astype(float), ref.astype(float))
    assert ks.pvalue > ALPHA, (
        f"{label} diverges from the {REFERENCE} engine: KS p={ks.pvalue:.2e}, "
        f"medians {np.median(got):.0f} vs {np.median(ref):.0f}"
    )


@pytest.mark.parametrize("engine, policy, adversary", LAW_CASES)
def test_law_matches_scalar(engine, policy, adversary):
    ref = reference_sample(policy, adversary)
    got = ENGINES[engine].run(policy, adversary, REPS, 2)
    assert ref.elected.all() and got.elected.all()
    label = f"{engine} {policy}/{adversary}"
    assert_same_law(got.slots, ref.slots, f"{label} election time")
    if adversary != "none":
        assert_same_law(got.jams, ref.jams, f"{label} jam count")


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_same_seed_same_bits(engine):
    run = ENGINES[engine].run
    a = run("lesk", "reactive", 12, 7)
    b = run("lesk", "reactive", 12, 7)
    for field in ("slots", "jams", "leaders", "elected"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), field)
    c = run("lesk", "reactive", 12, 8)
    assert not np.array_equal(a.slots, c.slots)


FAULTS = FaultModel(flip_rate=0.05, erase_rate=0.05, crash_rate=0.002)


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["faults-off", "faults-on"])
@pytest.mark.parametrize("adversary", ["saturating", "reactive"])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_megakernel_flag_changes_no_bit(kind, adversary, faults):
    def cell(megakernel: bool) -> list:
        return run_cell_direct(
            CellSpec(
                kind=kind, n=N, eps=EPS, T=T, adversary=adversary, reps=16,
                root_seed=5, path=(3, 1), max_slots=4000, faults=faults,
                megakernel=megakernel,
            )
        )

    assert cell(True) == cell(False)
