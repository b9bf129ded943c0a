"""Engine conformance: one registry, four contracts.

:data:`ENGINES` lists every simulation engine that runs a uniform protocol
(the scalar fast engine, the faithful per-station engine, its vectorized
twin, the batched engine and the megakernel) with the cells it supports;
:data:`POLICY_PAIRS` lists every scalar policy with its vector twin, and
the suite registries pair every jamming strategy with its vector twin.
Adding or removing an engine, a policy pair or a strategy pair means
editing these registries; each is then checked for

* **law** -- election times (and, where the adversary jams, granted-jam
  counts) match the scalar fast engine's on shared cells, by two-sample
  Kolmogorov-Smirnov tests at significance level :data:`ALPHA` with fixed
  seeds (the faithful rows pin the fast engine to the per-station model);
  the weak-CD Notification cells of :data:`NOTIFICATION_CELLS` take the
  faithful engine as their reference instead, and both engines must
  always end with exactly one leader and every station done;
* **determinism** -- the same seed gives the same bits;
* **one stream** -- the megakernel and the batched engine consume one
  bitstream, so a batched cell, whichever path its eligibility picks,
  returns exactly what the batched engine alone returns for the same
  factories and seed path, for every cell kind, oblivious, state-reading
  or history-reading adversary, faults off or on;
* **lockstep** -- on seeded scripts, each scalar policy (alone, and inside
  a strong-CD :class:`UniformStationAdapter` fed through ``feedback_for``)
  and its vector twin, one column per script, agree slot by slot on ``p``,
  ``u``, completion and result; each deterministic strategy and its vector
  twin agree on every want, and :class:`JammingBudget` and
  :class:`JammingBudgetArray` on every grant; on seeded weak-CD scripts,
  :class:`NotificationStation` and :class:`VectorNotificationPolicy` agree
  on the adversary's probe, the transmit decision, the phase, the leader
  flag and completion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy import stats

from repro.adversary.base import Adversary, AdversaryView
from repro.adversary.budget import JammingBudget, JammingBudgetArray
from repro.adversary.suite import STRATEGY_REGISTRY, make_adversary
from repro.adversary.vector import (
    BATCHED_STRATEGY_REGISTRY,
    BatchAdversaryView,
    BatchedAdversary,
    VectorReactiveJammer,
    make_batched_adversary,
)
from repro.channel.feedback import feedback_for
from repro.channel.trace import ChannelTrace
from repro.experiments.cells import _KINDS, CELL_KINDS, CellSpec, run_cell_direct
from repro.experiments.e21_interval_ablation import VectorC3Killer, _c3_killer
from repro.experiments.harness import replicate_batched
from repro.protocols.base import UniformStationAdapter
from repro.protocols.baselines.nakano_olariu import (
    NoCDSweepPolicy,
    UniformSweepPolicy,
)
from repro.protocols.estimation import EstimationPolicy
from repro.protocols.intervals import fixed_partition, interval_of_slot
from repro.protocols.lesk import LESKPolicy
from repro.protocols.lesu import LESUPolicy
from repro.protocols.notification import NotificationStation, Phase
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNoCDSweepPolicy,
    VectorNotificationPolicy,
    VectorSweepPolicy,
)
from repro.resilience.faults import FaultModel
from repro.rng import derive_seed
from repro.sim.batched import simulate_uniform_batched
from repro.sim.engine import simulate_stations
from repro.sim.fast import simulate_uniform_fast
from repro.sim.megakernel import simulate_uniform_megakernel
from repro.sim.vectorized import simulate_stations_vectorized
from repro.types import Action, CDMode, ChannelState, PerceivedState, SlotFeedback

N = 32
EPS = 0.5
T = 8
REPS = 150
MAX_SLOTS = 100_000

#: Significance level of every KS law check.  Seeds are fixed, so a
#: check either always passes or always fails; at this level a correct
#: engine fails a given check with probability 1e-4.
ALPHA = 1e-4

#: Each scalar policy, its vector twin, and the registry's arguments.
POLICY_PAIRS = {
    "lesk": (LESKPolicy, VectorLESKPolicy, {"eps": EPS}),
    "lesu": (LESUPolicy, VectorLESUPolicy, {}),
    "estimation": (EstimationPolicy, VectorEstimationPolicy, {}),
    "sweep": (UniformSweepPolicy, VectorSweepPolicy, {}),
    "nocd": (NoCDSweepPolicy, VectorNoCDSweepPolicy, {}),
}
SCALAR_POLICIES = {
    name: functools.partial(scalar, **kw)
    for name, (scalar, _, kw) in POLICY_PAIRS.items()
}
VECTOR_POLICIES = {
    name: lambda width, twin=twin, kw=kw: twin(reps=width, **kw)
    for name, (_, twin, kw) in POLICY_PAIRS.items()
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
    "faithful": Engine(
        run_faithful,
        (
            ("lesk", "none"),
            ("lesk", "saturating"),
            ("lesk", "reactive"),
            ("lesk", "single-suppressor"),
            ("lesu", "none"),
        ),
    ),
    "vectorized": Engine(
        run_vectorized, (("lesk", "saturating"), ("lesk", "reactive"))
    ),
    # Every adaptive strategy under LESK: the jam counts are the sharper
    # check, because they depend on the history each engine hands over.
    "batched": Engine(
        run_batched,
        (
            ("lesk", "none"),
            ("lesk", "saturating"),
            ("lesk", "periodic-front"),
            ("lesk", "random"),
            ("lesk", "reactive"),
            ("lesk", "single-suppressor"),
            ("lesk", "estimator-attacker"),
            ("lesk", "silence-masker"),
            ("lesk", "collision-forcer"),
            ("lesu", "saturating"),
            ("lesu", "estimator-attacker"),
            ("sweep", "none"),
            ("nocd", "single-suppressor"),
        ),
    ),
    # Fast-path policies under oblivious (schedulable) jammers, and a
    # shared ladder under a jammer that reads its state; every other
    # configuration runs the batched loop, checked above.
    "megakernel": Engine(
        run_megakernel,
        (
            ("lesk", "none"),
            ("lesk", "saturating"),
            ("sweep", "none"),
            ("sweep", "saturating"),
            ("nocd", "none"),
            ("nocd", "saturating"),
            ("nocd", "single-suppressor"),
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


def assert_same_law(
    got: np.ndarray, ref: np.ndarray, label: str, reference: str = REFERENCE
) -> None:
    ks = stats.ks_2samp(got.astype(float), ref.astype(float))
    assert ks.pvalue > ALPHA, (
        f"{label} diverges from the {reference} engine: KS p={ks.pvalue:.2e}, "
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


# -- Notification (weak CD) --------------------------------------------------

#: Stations and runs per Notification cell, sized for the faithful side:
#: the four cells take about 9 s.
NOTIFY_N = 8
NOTIFY_REPS = 120
#: ``(adversary, T)`` cells of LEWK on the doubling partition.  The C3
#: killer requests every C_3 slot; at T = 128 it silences the leader's
#: announcements up to the 64-slot intervals.
NOTIFICATION_CELLS = (
    ("none", T),
    ("saturating", T),
    ("single-suppressor", T),
    ("c3-killer", 128),
)


def notification_adversaries(adversary: str, T_: int) -> tuple[Callable, Callable]:
    """Scalar and batched factories of one Notification cell's adversary."""
    if adversary == "c3-killer":
        return (
            lambda: Adversary(_c3_killer(interval_of_slot), T=T_, eps=EPS),
            lambda reps: BatchedAdversary(
                VectorC3Killer(interval_of_slot), T=T_, eps=EPS, reps=reps
            ),
        )
    return (
        lambda: make_adversary(adversary, T=T_, eps=EPS),
        lambda reps: make_batched_adversary(adversary, T=T_, eps=EPS, reps=reps),
    )


def run_notification(engine: str, adversary: str, T_: int, seed: int) -> list:
    """LEWK runs of one cell on the ``faithful`` or ``vectorized`` engine."""
    scalar, batched = notification_adversaries(adversary, T_)
    if engine == "faithful":
        return [
            simulate_stations(
                [
                    NotificationStation(functools.partial(LESKPolicy, EPS))
                    for _ in range(NOTIFY_N)
                ],
                scalar(),
                cd_mode=CDMode.WEAK,
                max_slots=MAX_SLOTS,
                seed=derive_seed(seed, r),
            )
            for r in range(NOTIFY_REPS)
        ]
    return simulate_stations_vectorized(
        lambda width: VectorNotificationPolicy(
            lambda w: VectorLESKPolicy(EPS, w), width
        ),
        NOTIFY_N,
        batched,
        reps=NOTIFY_REPS,
        max_slots=MAX_SLOTS,
        root_seed=seed,
        cd_mode=CDMode.WEAK,
    ).results()


@pytest.mark.parametrize(
    "adversary, T_", NOTIFICATION_CELLS, ids=[a for a, _ in NOTIFICATION_CELLS]
)
def test_notification_law_matches_faithful(adversary, T_):
    ref = run_notification("faithful", adversary, T_, 1)
    got = run_notification("vectorized", adversary, T_, 2)
    for engine, runs in (("faithful", ref), ("vectorized", got)):
        assert all(r.leaders_count == 1 for r in runs), f"{engine}: 1-leader rate"
        assert all(r.all_terminated for r in runs), f"{engine}: all-done rate"
    label = f"vectorized notification/{adversary}"
    sample = lambda runs, field: np.array([getattr(r, field) for r in runs])
    assert_same_law(
        sample(got, "slots"), sample(ref, "slots"), f"{label} completion slot",
        "faithful",
    )
    if adversary != "none":
        assert_same_law(
            sample(got, "jams"), sample(ref, "jams"), f"{label} jam count",
            "faithful",
        )


class SlotUniforms:
    """A station RNG that returns its column's uniform for the current slot."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.slot = 0

    def random(self) -> float:
        return float(self.values[self.slot])


def notification_lockstep(seed: int, partition) -> tuple | None:
    """Run :class:`NotificationStation` and :class:`VectorNotificationPolicy`
    on one seeded weak-CD script; return the first ``(slot, column,
    quantity)`` where they disagree, or ``None``.

    A column is one station.  Its script gives, per slot, the uniform its
    transmit decision compares against and the state it hears when it
    listens (Null, Single, Collision or erased); a transmitter hears
    nothing.  Before each slot the adversary's probe (``p``, ``u``) is
    compared, then the transmit decision, then the phase, leader flag and
    completion after the slot.
    """
    rng = np.random.default_rng(seed)
    width, slots = int(rng.integers(4, 9)), 300
    uniforms = rng.random((slots, width))
    # Singles are rarer in C_3, so that cells linger in every phase.
    odds = {True: [0.4, 0.01, 0.56, 0.03], False: [0.4, 0.06, 0.51, 0.03]}
    codes = np.array([
        rng.choice(
            [NULL, SINGLE, COLLISION, ERASED], size=width,
            p=odds[iv is not None and iv.j == 3],
        )
        for iv in map(partition, range(slots))
    ])
    what = ("p", "u", "transmit", "phase", "leader", "done")
    scalar = np.empty((slots, width, len(what)))
    for col in range(width):
        station = NotificationStation(
            functools.partial(LESKPolicy, EPS), partition=partition
        )
        draws = SlotUniforms(uniforms[:, col])
        station.reset(col, draws)
        for slot in range(slots):
            probe = station.transmit_probability_hint(), station.u_hint()
            sent = False
            if not station.done:
                draws.slot = slot
                sent = station.begin_slot(slot) is Action.TRANSMIT
                code = int(codes[slot, col])
                if code == ERASED or sent:
                    feedback = SlotFeedback(sent, PerceivedState.UNKNOWN)
                else:
                    feedback = feedback_for(False, ChannelState(code), CDMode.WEAK)
                station.end_slot(slot, feedback)
            scalar[slot, col] = (
                *probe, sent, list(Phase).index(station.phase),
                station.is_leader is True, station.done,
            )

    twin = VectorNotificationPolicy(
        lambda w: VectorLESKPolicy(EPS, w), width, partition=partition
    )
    vector = np.empty_like(scalar)
    cells = np.arange(width)
    for slot in range(slots):
        probe = twin.probe(cells, slot)
        done = twin.completed.copy()
        sent = ~done & (uniforms[slot] < twin.transmit_probabilities(slot))
        heard = np.where(codes[slot] == ERASED, NULL, codes[slot])
        twin.observe_batch(
            slot,
            np.where(sent, COLLISION, heard),
            ~done & (sent | (codes[slot] != ERASED)),
        )
        vector[slot] = np.stack(
            [*probe, sent, twin.phase, twin.is_leader, twin.completed], axis=1
        )
    return first_mismatch(differs(vector, scalar), what)


@pytest.mark.parametrize(
    "partition", [interval_of_slot, fixed_partition(4)], ids=["doubling", "fixed-4"]
)
def test_notification_lockstep(partition):
    diverged = [
        (seed, first)
        for seed in range(20)
        if (first := notification_lockstep(seed, partition)) is not None
    ]
    assert not diverged, f"(seed, (slot, column, quantity)) {diverged[:3]}"


FAULTS = FaultModel(flip_rate=0.05, erase_rate=0.05, crash_rate=0.002)


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["faults-off", "faults-on"])
@pytest.mark.parametrize(
    "adversary",
    ["saturating", "reactive", "single-suppressor", "collision-forcer"],
)
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_megakernel_flag_changes_no_bit(kind, adversary, faults):
    """Whether the megakernel's eligibility flag sends a cell down the
    fused path or the per-slot loop, the cell returns exactly what the
    batched engine alone returns for the same factories and seed path."""
    vector_policy = _KINDS[kind][0]
    got = run_cell_direct(
        CellSpec(
            kind=kind, n=N, eps=EPS, T=T, adversary=adversary, reps=16,
            root_seed=5, path=(3, 1), max_slots=4000, faults=faults,
        )
    )
    ref = replicate_batched(
        lambda width: vector_policy(EPS, width),
        N,
        lambda width: make_batched_adversary(adversary, T=T, eps=EPS, reps=width),
        16,
        5,
        3,
        1,
        max_slots=4000,
        faults=faults,
    )
    assert got == ref


# -- lockstep ----------------------------------------------------------------

#: ``2.0**-u`` (scalar) and ``np.exp2(-u)`` (vector) may differ in the last ulp.
FLOAT_TOL = 1e-12
NULL, SINGLE, COLLISION = (int(s) for s in ChannelState)
#: Script code of a fault-erased slot: nobody hears it.
ERASED = -1
SCRIPT_SLOTS = 96
#: Lockstep runs per pair; each run has 4-8 columns, one script each, so a
#: policy pair meets at least 100 scripts and a strategy pair at least 52.
POLICY_RUNS = 25
STRATEGY_RUNS = 13

#: Per-run constructor arguments, drawn so that every branch of each update
#: rule fires: LESK's floor, LESU's sub-run turnover, Estimation's round cap.
LOCKSTEP_ARGS = {
    "lesk": lambda rng: {
        "eps": float(rng.choice([0.1, 0.5, 0.9])),
        "initial_u": float(rng.choice([0.0, 2.5])),
        "floor_at_zero": bool(rng.random() < 0.8),
    },
    "lesu": lambda rng: {"c": float(rng.choice([0.01, 0.1])), "L": int(rng.integers(1, 3))},
    "estimation": lambda rng: {"L": int(rng.integers(1, 4)), "max_round": int(rng.integers(2, 7))},
    "sweep": lambda rng: {"initial_ceiling": int(rng.integers(1, 4))},
    "nocd": lambda rng: {"initial_ceiling": int(rng.integers(1, 4))},
}


def first_mismatch(rows: np.ndarray, what: tuple[str, ...]) -> tuple | None:
    """``(slot, column, quantity)`` of the first true cell of a
    ``(slot, column, quantity)`` mismatch array, or ``None``."""
    hits = np.argwhere(rows)
    if not hits.size:
        return None
    slot, column, quantity = hits[0]
    return int(slot), int(column), what[quantity]


def differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise disagreement beyond :data:`FLOAT_TOL` (NaN equals NaN)."""
    with np.errstate(invalid="ignore"):
        close = np.abs(a - b) <= FLOAT_TOL
    return ~(close | (np.isnan(a) & np.isnan(b)))


class ScriptedUniforms:
    """A station RNG that replays one column's scripted uniforms."""

    def __init__(self, values: np.ndarray) -> None:
        self._values = iter(values.tolist())

    def random(self) -> float:
        return next(self._values)


def draw_script(rng: np.random.Generator, width: int) -> np.ndarray:
    """``(SCRIPT_SLOTS, width)`` observation codes, one script per column,
    with per-column odds so that walks both climb and hit their floor."""
    odds = np.cumsum(
        [rng.uniform(lo, hi, width) for lo, hi in ((0.05, 0.6), (0, 0.03), (0, 0.15))],
        axis=0,
    )
    pick = (rng.random((SCRIPT_SLOTS, width, 1)) >= odds.T).sum(axis=2)
    return np.array([NULL, SINGLE, ERASED, COLLISION])[pick]


def state(p: float, u: float, completed: bool, result) -> tuple:
    """One record row: ``(p, u, completed, result)``, ``-1`` for no result."""
    return p, u, float(completed), -1.0 if result is None else float(result)


def policy_lockstep(
    name: str,
    seed: int,
    twin_cls=None,
    *,
    script: np.ndarray | None = None,
    kwargs: dict | None = None,
    solo_cls=None,
    adapter_cls=None,
) -> tuple | None:
    """Run one seeded lockstep of a policy pair; return the first
    ``(slot, column, quantity)`` whose state disagrees, or ``None``.

    Row ``s`` of each record is the state before slot ``s`` is observed.
    A column's script stops after its first Single or once the scalar
    policy completes; the vector twin then holds that column inactive, and
    once, mid-script, compacts the stopped columns away.

    *script* (``(slots, width)`` observation codes) and *kwargs* (the
    policy's arguments) replace the seeded draws; *solo_cls*,
    *adapter_cls* and *twin_cls* replace the class on one side: the
    policy alone, the one inside the adapter, or the vector twin.
    """
    scalar_cls, default_twin, _ = POLICY_PAIRS[name]
    rng = np.random.default_rng(seed)
    if kwargs is None:
        kwargs = LOCKSTEP_ARGS[name](rng)
    if script is None:
        script = draw_script(rng, int(rng.integers(4, 9)))
    slots, width = script.shape
    uniforms = rng.random(script.shape)
    compact_at = int(rng.integers(1, slots))
    rows = (slots + 1, width, 4)
    scalar = np.empty(rows)
    adapter = np.empty(rows)
    heard = np.zeros(rows[:2], dtype=bool)  # a Single was delivered before
    stop = np.full(width, slots)

    for col in range(width):
        policy = (solo_cls or scalar_cls)(**kwargs)
        station = UniformStationAdapter(
            (adapter_cls or scalar_cls)(**kwargs), cd_mode=CDMode.STRONG
        )
        station.reset(col, ScriptedUniforms(uniforms[:, col]))
        for slot in range(slots + 1):
            scalar[slot, col] = state(
                policy.transmit_probability(slot), policy.u, policy.completed,
                policy.result,
            )
            adapter[slot, col] = state(
                station.transmit_probability_hint(), station.u_hint(),
                station.done, station.policy.result,
            )
            if slot == stop[col]:
                scalar[slot + 1 :, col] = scalar[slot, col]
                adapter[slot + 1 :, col] = adapter[slot, col]
                heard[slot:, col] = script[slot - 1, col] == SINGLE
                break
            code = int(script[slot, col])
            sent = station.begin_slot(slot) is Action.TRANSMIT
            if code == ERASED:
                feedback = SlotFeedback(sent, PerceivedState.UNKNOWN)
            else:
                policy.observe(slot, ChannelState(code))
                feedback = feedback_for(sent, ChannelState(code), CDMode.STRONG)
            station.end_slot(slot, feedback)
            if code == SINGLE or policy.completed:
                stop[col] = slot + 1

    twin = (twin_cls or default_twin)(reps=width, **kwargs)
    vector = np.full(rows, np.nan)
    seen = np.zeros(rows[:2], dtype=bool)
    cols = np.arange(width)
    for slot in range(slots + 1):
        if slot == compact_at:
            keep = np.flatnonzero(stop[cols] > slot)
            if 0 < keep.size < cols.size:
                twin.compact(keep)
                cols = cols[keep]
        results = twin.policy_results
        vector[slot, cols] = np.stack(
            [twin.transmit_probabilities(slot), twin.u, twin.completed,
             np.full(cols.size, -1) if results is None else results],
            axis=1,
        )
        seen[slot, cols] = True
        if slot == slots:
            break
        codes = script[slot, cols]
        running = (stop[cols] > slot) & (codes != ERASED)
        twin.observe_batch(slot, np.where(codes == ERASED, NULL, codes), running)

    # The adapter stops with its station: once done it hints p = 0, and a
    # Single it heard never reaches its policy.
    done = scalar[:, :, 2].astype(bool) | heard
    adapter_off = np.zeros(rows, dtype=bool)
    adapter_off[:, :, 2] = adapter[:, :, 2].astype(bool) != done
    adapter_off[:, :, [0, 1, 3]] = differs(adapter, scalar)[:, :, [0, 1, 3]] & ~done[:, :, None]
    mismatch = (differs(vector, scalar) & seen[:, :, None]) | adapter_off
    return first_mismatch(mismatch, ("p", "u", "completed", "result"))


@dataclass(frozen=True)
class History:
    """What a strategy pair faces: ``(slot, column)`` arrays of the
    protocol's ``p`` and ``u`` and of the channel state before jamming,
    and the slot at which each column stops."""

    n: int
    T: int
    eps: float
    p: np.ndarray
    u: np.ndarray
    states: np.ndarray
    stop: np.ndarray


def draw_history(rng: np.random.Generator) -> History:
    """A scripted history: protocol-like probabilities and estimates, plus
    NaN, the 0/1 edges and the estimator-attacker's band edges; all but a
    random non-empty subset of the columns stop at one random slot."""
    n = int(rng.choice([1, 2, 3, 8, 64, 1621]))
    T_, eps = int(rng.integers(1, 12)), float(rng.choice([0.1, 0.5, 0.9]))
    width = int(rng.integers(4, 9))
    shape = (SCRIPT_SLOTS, width)
    u0 = math.log2(n)
    p = 2.0 ** -rng.uniform(0.0, 2.0 * u0 + 4.0, shape)
    u = rng.uniform(0.0, 2.0 * u0 + 6.0, shape)
    pick = rng.integers(0, 20, shape)
    p[pick == 0], p[pick == 1], p[pick == 2] = 0.0, 1.0, math.nan
    u[pick == 3], u[pick == 4], u[pick == 5] = u0 - 3.0, u0 + 3.0, math.nan
    states = rng.integers(0, 3, shape)
    stop = np.full(width, int(rng.integers(1, SCRIPT_SLOTS)))
    stop[rng.choice(width, int(rng.integers(1, width)), replace=False)] = SCRIPT_SLOTS
    return History(n, T_, eps, p, u, states, stop)


def strategy_lockstep(
    name: str, seed: int, twin_cls=None, history: History | None = None
) -> tuple | None:
    """Run one seeded lockstep of a strategy pair; return the first
    ``(slot, column, quantity)`` whose want or grant disagrees, or ``None``.

    One scalar strategy, :class:`JammingBudget` and trace per column face
    the vector twin and one :class:`JammingBudgetArray`; a granted jam
    turns the history's state into a Collision on both sides, and the twin
    is compacted whenever columns stop.  *history* replaces the seeded
    draw, and *twin_cls* the vector twin's class.
    """
    h = draw_history(np.random.default_rng(seed)) if history is None else history
    slots, width = h.p.shape
    rows = (slots, width, 2)
    scalar = np.zeros(rows, dtype=bool)

    for col in range(width):
        strategy = STRATEGY_REGISTRY[name](h.T, h.eps)
        budget = JammingBudget(h.T, h.eps)
        trace = ChannelTrace()
        for slot in range(h.stop[col]):
            view = AdversaryView(
                slot=slot, n=h.n, trace=trace, budget=budget,
                transmit_probability=float(h.p[slot, col]),
                protocol_u=float(h.u[slot, col]),
            )
            # rng=None: a deterministic strategy never draws.
            want = bool(strategy.wants_jam(view, None))
            granted = budget.grant(want)
            scalar[slot, col] = want, granted
            state = ChannelState(h.states[slot, col])
            trace.append(
                int(state), granted, state,
                ChannelState.COLLISION if granted else state,
            )

    twin = (twin_cls or BATCHED_STRATEGY_REGISTRY[name])(h.T, h.eps)
    twin.reset()
    budget = JammingBudgetArray(h.T, h.eps, width)
    vector = np.zeros(rows, dtype=bool)
    seen = np.zeros(rows[:2], dtype=bool)
    cols = np.arange(width)
    for slot in range(slots):
        keep = np.flatnonzero(h.stop[cols] > slot)
        if not keep.size:
            break
        if keep.size < cols.size:
            twin.compact(keep)
            budget.compact(keep)
            cols = cols[keep]
        active = np.ones(cols.size, dtype=bool)
        view = BatchAdversaryView(
            slot=slot, n=h.n, reps=cols.size, budget=budget,
            transmit_probabilities=h.p[slot, cols], protocol_u=h.u[slot, cols],
            active=active,
        )
        want = np.asarray(twin.wants_jam_batch(view, None), dtype=bool)
        granted = budget.grant(want)
        vector[slot, cols, 0], vector[slot, cols, 1] = want, granted
        seen[slot, cols] = True
        twin.observe_outcomes(
            slot, np.where(granted, COLLISION, h.states[slot, cols]), active
        )
    return first_mismatch((vector != scalar) & seen[:, :, None], ("want", "grant"))


LOCKSTEP_CASES = [
    pytest.param(policy_lockstep, name, POLICY_RUNS, id=f"policy-{name}")
    for name in POLICY_PAIRS
] + [
    pytest.param(strategy_lockstep, name, STRATEGY_RUNS, id=f"strategy-{name}")
    for name in STRATEGY_REGISTRY
    if name != "random"  # the one strategy that draws
]


@pytest.mark.parametrize("lockstep, name, runs", LOCKSTEP_CASES)
def test_lockstep(lockstep, name, runs):
    diverged = [
        (seed, first)
        for seed in range(runs)
        if (first := lockstep(name, seed)) is not None
    ]
    assert not diverged, f"{name}: (seed, (slot, column, quantity)) {diverged[:3]}"


def test_lockstep_reports_a_seeded_tamper():
    """The checker's own self-test: a twin that mishears one slot is
    reported at the next slot, and a strategy twin that flips one want is
    reported at that slot."""

    class MishearingLESK(VectorLESKPolicy):
        def observe_batch(self, step, states, active):
            if step == 5:
                states = np.where(states == NULL, COLLISION, NULL)
            super().observe_batch(step, states, active)

    class FlippingReactive(VectorReactiveJammer):
        def wants_jam_batch(self, view, rng):
            want = super().wants_jam_batch(view, rng)
            return ~want if view.slot == 7 else want

    assert policy_lockstep("lesk", 0, MishearingLESK)[0] == 6
    assert strategy_lockstep(
        "reactive", 0, lambda T_, eps: FlippingReactive()
    )[:3:2] == (7, "want")
