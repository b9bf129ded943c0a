"""The vectorized faithful engine: pins, law, CD semantics and faults.

:mod:`repro.sim.vectorized` keeps the scalar faithful model -- per-cell
transmit decisions, per-cell protocol state, CD-filtered feedback, the
actual transmitting cell as winner -- in ``(reps, n)`` NumPy lockstep.
Its bitstream differs from :func:`repro.sim.engine.simulate_stations`
(vectorized draw layout), so fidelity is checked by fixed-seed pins
(regression), the CD-semantics and fault tests here, and KS
cross-validation of election-time samples against the scalar engines
(law, in ``tests/sim/test_conformance.py``, whose lockstep contract also
checks the vector policies it runs slot by slot against the scalar ones).
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.adversary.base import AdversaryView
from repro.adversary.vector import (
    BatchAdversaryView,
    BatchedAdversary,
    VectorJammingStrategy,
    make_batched_adversary,
    schedule_refusal,
)
from repro.core.config import default_slot_budget
from repro.errors import ConfigurationError
from repro.experiments.e21_interval_ablation import VectorC3Killer, _c3_killer
from repro.protocols.intervals import (
    first_slot_of_interval,
    fixed_partition,
    interval_of_slot,
)
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNotificationPolicy,
    VectorSweepPolicy,
)
from repro.resilience.auditor import BatchInvariantAuditor
from repro.resilience.faults import NO_FAULTS, FaultModel
from repro.sim import vectorized
from repro.sim.vectorized import simulate_stations_vectorized
from repro.telemetry import collecting
from repro.types import CDMode

EPS = 0.5
T = 8


def vectorized_lesk(adversary: str, *, n=64, reps=6, seed=7, max_slots=2000, **kw):
    return simulate_stations_vectorized(
        lambda w: VectorLESKPolicy(EPS, w),
        n,
        lambda r: make_batched_adversary(adversary, T=T, eps=EPS, reps=r),
        reps=reps,
        max_slots=max_slots,
        root_seed=seed,
        **kw,
    )


class TestPins:
    """Fixed-seed regressions: any stream or semantics drift trips these."""

    def test_saturating(self):
        r = vectorized_lesk("saturating")
        assert list(r.slots) == [69, 71, 71, 96, 74, 60]
        assert list(r.leaders) == [21, 0, 15, 50, 38, 50]
        assert list(r.jams) == [31, 32, 32, 43, 33, 27]
        assert list(r.transmissions) == [1420, 1448, 1429, 1532, 1444, 1420]
        assert list(r.listening) == [2996, 3096, 3115, 4612, 3292, 2420]
        assert r.elected.all() and not r.timed_out.any()

    def test_reactive(self):
        r = vectorized_lesk("reactive", n=32, seed=21)
        assert list(r.slots) == [56, 42, 36, 61, 66, 53]
        assert list(r.leaders) == [15, 29, 15, 14, 12, 15]
        assert list(r.jams) == [0, 0, 0, 0, 1, 0]

    def test_faults(self):
        fm = FaultModel(
            flip_rate=0.04,
            erase_rate=0.04,
            crash_rate=0.003,
            join_slots=(4, 9),
            downgrade_slots=(3, 8),
            skew_rate=0.02,
        )
        with collecting() as tel:
            r = vectorized_lesk("saturating", n=32, seed=5, faults=fm)
        assert list(r.slots) == [92, 51, 80, 96, 155, 62]
        assert list(r.leaders) == [5, 30, 21, 25, 1, 29]
        assert list(r.transmissions) == [1308, 824, 1175, 1157, 1600, 739]
        assert r.elected.all()
        assert not r.leader_survived.any()
        # Churn and skew step per rep; the corruption flags still come in
        # blocks and count only the slots each rep ran.
        injected = {
            kind: tel.metrics.counter_value("faults_injected_total", kind=kind)
            for kind in ("flip", "erase", "downgrade", "crash", "join", "skew_slots")
        }
        assert injected == {
            "flip": 18,
            "erase": 25,
            "downgrade": 12,
            "crash": 39,
            "join": 12,
            "skew_slots": 294,
        }

    def test_corruption_audited(self):
        # A10's vectorized cell: corruption only (no churn, no skew),
        # every slot audited.
        n, reps = 32, 6
        with collecting() as tel:
            auditor = BatchInvariantAuditor(T, EPS, reps)
            r = vectorized_lesk(
                "saturating",
                n=n,
                reps=reps,
                seed=123,
                max_slots=default_slot_budget(n, EPS, T),
                faults=FaultModel(flip_rate=0.05, erase_rate=0.05),
                auditor=auditor,
            )
        assert list(r.slots) == [126, 119, 204, 116, 229, 98]
        assert list(r.leaders) == [30, 5, 9, 5, 24, 21]
        assert r.elected.all()
        assert auditor.slots_checked == 229
        counters = {
            (name, kind): tel.metrics.counter_value(name, kind=kind)
            for name in ("faults_injected_total", "feedback_corrupted_total")
            for kind in ("flip", "erase")
        }
        assert counters == {
            ("faults_injected_total", "flip"): 43,
            ("faults_injected_total", "erase"): 54,
            ("feedback_corrupted_total", "flip"): 43,
            ("feedback_corrupted_total", "erase"): 54,
        }

    def test_reproducible(self):
        a = vectorized_lesk("reactive", seed=13)
        b = vectorized_lesk("reactive", seed=13)
        for field in ("slots", "leaders", "jams", "transmissions", "listening"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestInvariants:
    def test_leaders_are_stations(self):
        r = vectorized_lesk("saturating", reps=12, seed=31)
        assert r.elected.all()
        assert ((r.leaders >= 0) & (r.leaders < 64)).all()
        assert (r.first_single_slot == r.slots - 1).all()

    def test_energy_identity_fault_free(self):
        # Strong CD + halt-on-single: every cell is awake and undone
        # until the halting slot, so per rep transmissions + listening
        # account for exactly n station-slots per slot.
        r = vectorized_lesk("reactive", reps=10, seed=17)
        np.testing.assert_array_equal(
            r.transmissions + r.listening, 64 * r.slots
        )

    def test_auditor_accepts_engine_channel(self):
        auditor = BatchInvariantAuditor(T, EPS, reps=8)
        r = vectorized_lesk("saturating", reps=8, seed=23, auditor=auditor)
        assert r.elected.all()
        assert auditor.slots_checked >= int(r.slots.max())

    @pytest.mark.parametrize("cd_mode", [CDMode.STRONG, CDMode.WEAK])
    def test_erased_slots_deliver_no_single(self, cd_mode):
        # At p = 1/8 for 8 stations lone transmitters are common, yet with
        # every slot erased no station hears one.
        def run(faults):
            return simulate_stations_vectorized(
                lambda w: VectorLESKPolicy(EPS, w, initial_u=3.0),
                8,
                lambda r: make_batched_adversary("none", T=T, eps=EPS, reps=r),
                reps=6,
                max_slots=200,
                root_seed=3,
                cd_mode=cd_mode,
                faults=faults,
            )

        assert run(None).elected.all()
        erased = run(FaultModel(erase_rate=1.0))
        assert erased.timed_out.all() and not erased.elected.any()
        assert (erased.first_single_slot == -1).all()

    def test_no_cd_rejected(self):
        with pytest.raises(ConfigurationError):
            vectorized_lesk("saturating", cd_mode=CDMode.NO_CD)

    def test_faults_must_be_a_model(self):
        # One realized schedule shared by every replication would share
        # its corruption stream; only a FaultModel, realized per rep, goes.
        realized = FaultModel(flip_rate=0.1).realize(8, 10, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="FaultModel"):
            vectorized_lesk("none", n=8, faults=realized)

    def test_policy_width_checked(self):
        with pytest.raises(ConfigurationError):
            simulate_stations_vectorized(
                lambda w: VectorLESKPolicy(EPS, w // 2),
                8,
                lambda r: make_batched_adversary("none", T=T, eps=EPS, reps=r),
                reps=4,
                max_slots=10,
                root_seed=1,
            )


class TestWeakCD:
    def test_halt_on_single_still_elects(self):
        r = vectorized_lesk(
            "none", n=16, reps=4, seed=3, max_slots=400, cd_mode=CDMode.WEAK
        )
        assert r.elected.all()
        assert (r.slots == r.first_single_slot + 1).all()


CORRUPTION = FaultModel(
    flip_rate=0.05,
    erase_rate=0.05,
    flip_slots=(9, 30),
    erase_slots=(10, 30),
    downgrade_slots=(3, 31, 64),
)

#: (policy factory, adversary, cd mode, faults, max_slots) per cell.  In
#: each, some replications elect and some run to the cap, which ends
#: inside a draw block for every block size tried.
BLOCK_CELLS = {
    "lesk": (lambda w: VectorLESKPolicy(EPS, w), "saturating", CDMode.STRONG, None, 60),
    "lesk-corrupt": (
        lambda w: VectorLESKPolicy(EPS, w), "reactive", CDMode.STRONG, CORRUPTION, 120
    ),
    "lesu": (lambda w: VectorLESUPolicy(w), "saturating", CDMode.STRONG, None, 50),
    "lesu-corrupt": (
        lambda w: VectorLESUPolicy(w),
        "saturating",
        CDMode.STRONG,
        FaultModel(flip_rate=0.3, erase_rate=0.3),
        302,
    ),
    "lesk-churn-corrupt": (
        lambda w: VectorLESKPolicy(EPS, w),
        "reactive",
        CDMode.STRONG,
        dataclasses.replace(CORRUPTION, crash_rate=0.002, sleep_spans=((5, 40),)),
        120,
    ),
    "notification-weak": (
        lambda w: VectorNotificationPolicy(lambda v: VectorLESKPolicy(EPS, v), w),
        "saturating",
        CDMode.WEAK,
        None,
        600,
    ),
    # A9's shape: the C3 killer's jams are granted a block at a time.
    "notification-c3-killer": (
        lambda w: VectorNotificationPolicy(lambda v: VectorLESKPolicy(EPS, v), w),
        lambda r: BatchedAdversary(
            VectorC3Killer(interval_of_slot), T=T, eps=EPS, reps=r
        ),
        CDMode.WEAK,
        None,
        600,
    ),
}


def adversary_factory(adversary):
    """A registry name or a ``reps -> BatchedAdversary`` factory, as the
    latter."""
    if callable(adversary):
        return adversary
    return lambda r: make_batched_adversary(adversary, T=T, eps=EPS, reps=r)


class TestDrawBlocks:
    """Blocked draws and one policy column per replication keep every bit."""

    def run(self, cell, widths):
        factory, adversary, cd_mode, faults, max_slots = BLOCK_CELLS[cell]

        def policy(width):
            widths.append(width)
            return factory(width)

        with collecting() as tel:
            result = simulate_stations_vectorized(
                policy,
                24,
                adversary_factory(adversary),
                reps=5,
                max_slots=max_slots,
                root_seed=99,
                cd_mode=cd_mode,
                faults=faults,
            )
        injected = {
            kind: tel.metrics.counter_value("faults_injected_total", kind=kind)
            for kind in ("flip", "erase", "downgrade")
        }
        return result, injected

    @pytest.mark.parametrize("cell", sorted(BLOCK_CELLS))
    def test_block_size_and_shared_columns_change_no_bit(self, cell, monkeypatch):
        runs = {}
        # (slots per block, uniform-buffer bytes); 8 bytes leaves the
        # uniforms one slot per draw while the flags keep 64-slot blocks.
        default = (vectorized._DRAW_SLOTS, vectorized._DRAW_BYTES)
        for block, nbytes in ((1, default[1]), (7, default[1]), default, (64, 8)):
            for shared in (True, False):
                monkeypatch.setattr(vectorized, "_DRAW_SLOTS", block)
                monkeypatch.setattr(vectorized, "_DRAW_BYTES", nbytes)
                monkeypatch.setattr(vectorized, "_SHARED_COLUMNS", shared)
                widths = []
                runs[block, nbytes, shared] = self.run(cell, widths)
                _, _, cd_mode, faults, _ = BLOCK_CELLS[cell]
                per_station = cd_mode is CDMode.WEAK or (
                    faults is not None and faults.has_churn
                )
                assert widths == [5 if shared and not per_station else 24 * 5]
        (ref, ref_injected), *_ = runs.values()
        assert ref.timed_out.any() and not ref.timed_out.all()
        for key, (result, injected) in runs.items():
            assert injected == ref_injected, key
            for field in dataclasses.fields(result):
                a, b = getattr(result, field.name), getattr(ref, field.name)
                if isinstance(b, np.ndarray):
                    np.testing.assert_array_equal(a, b, err_msg=f"{key} {field.name}")
                else:
                    assert a == b, (key, field.name)


def notification(partition=interval_of_slot):
    return lambda w: VectorNotificationPolicy(
        lambda width: VectorLESKPolicy(EPS, width), w, partition=partition
    )


class TestNotification:
    """Weak-CD Notification: the policy resolves its own Singles."""

    def test_lewk_doubling_pinned(self):
        r = simulate_stations_vectorized(
            notification(),
            16,
            lambda reps: make_batched_adversary("saturating", T=T, eps=EPS, reps=reps),
            reps=4,
            max_slots=200_000,
            root_seed=123,
            cd_mode=CDMode.WEAK,
        )
        assert list(r.slots) == [191, 382, 382, 382]
        assert list(r.leaders) == [14, 3, 9, 5]
        assert list(r.leaders_count) == [1, 1, 1, 1]
        assert list(r.first_single_slot) == [120, 242, 239, 230]
        assert list(r.jams) == [85, 170, 170, 170]
        assert list(r.transmissions) == [955, 1409, 1418, 1313]
        assert list(r.listening) == [1621, 3758, 3749, 3854]
        assert r.elected.all() and r.policy_completed.all()
        assert not r.timed_out.any()

    def test_fixed_partition_under_c3_killer_pinned(self):
        # A9's shape: with every C_3 slot jammed, an elected leader never
        # announces; its followers wait in notify-nonleader to the end.
        partition = fixed_partition(16)
        made = []

        def policy(width):
            made.append(notification(partition)(width))
            return made[-1]

        r = simulate_stations_vectorized(
            policy,
            10,
            lambda reps: BatchedAdversary(
                VectorC3Killer(partition), T=64, eps=EPS, reps=reps
            ),
            reps=3,
            max_slots=3000,
            root_seed=5,
            cd_mode=CDMode.WEAK,
        )
        assert list(r.slots) == [3000, 3000, 3000]
        assert r.timed_out.all() and not r.elected.any()
        assert list(r.first_single_slot) == [777, -1, 253]
        assert list(r.leaders_count) == [1, 0, 1]
        assert list(r.jams) == [992, 992, 992]
        assert list(r.transmissions) == [9161, 7491, 8188]
        phases = made[0].phase.reshape(3, 10)
        assert [int((row == 3).sum()) for row in phases] == [8, 0, 8]
        runs = r.results()
        assert [x.leaders_count for x in runs] == [1, 0, 1]
        assert not any(x.all_terminated or x.elected for x in runs)

    def test_probe_precedes_the_restart(self):
        # The adversary reads station 0 before the slot begins, as the
        # scalar engine does: at the first slot of a C_1 interval a station
        # still shows the copy of A it ran in the last one.
        class Spy(VectorJammingStrategy):
            def __init__(self):
                self.u = {}

            def wants_jam_batch(self, view, rng):
                self.u[view.slot] = view.protocol_u.copy()
                return np.zeros(view.reps, dtype=bool)

        spy = Spy()
        simulate_stations_vectorized(
            notification(),
            16,
            lambda reps: BatchedAdversary(spy, T=T, eps=EPS, reps=reps),
            reps=8,
            max_slots=2000,
            root_seed=4,
            cd_mode=CDMode.WEAK,
        )
        checked = 0
        for i in range(2, 9):
            start = first_slot_of_interval(i, 1)
            if start not in spy.u:
                break
            before, at = spy.u[start - 1], spy.u[start]
            running = np.isfinite(before) & np.isfinite(at)
            np.testing.assert_array_equal(at[running], before[running])
            checked += int((running & (before > 0)).sum())
        assert checked > 0

    def test_strong_cd_rejected(self):
        with pytest.raises(ConfigurationError, match="weak CD"):
            simulate_stations_vectorized(
                notification(),
                4,
                lambda reps: make_batched_adversary("none", T=T, eps=EPS, reps=reps),
                reps=2,
                max_slots=10,
                root_seed=1,
            )

    @pytest.mark.parametrize(
        "partition", [interval_of_slot, fixed_partition(256)], ids=["doubling", "fixed"]
    )
    def test_c3_killer_wants_match_scalar(self, partition):
        scalar = _c3_killer(partition)
        vector = VectorC3Killer(partition)
        for slot in range(5000):
            want = scalar.wants_jam(
                AdversaryView(slot=slot, n=10, trace=None, budget=None), None
            )
            wants = vector.wants_jam_batch(
                BatchAdversaryView(slot=slot, n=10, reps=3, budget=None), None
            )
            assert wants.tolist() == [want] * 3, slot


_PER_SLOT_CLASSES: dict[type, type] = {}


def per_slot(adversary: BatchedAdversary) -> BatchedAdversary:
    """*adversary* with its strategy's want schedule hidden, so the engine
    decides its jams slot by slot through the adversary's budget array."""
    cls = type(adversary.strategy)
    if cls not in _PER_SLOT_CLASSES:
        _PER_SLOT_CLASSES[cls] = type(
            f"PerSlot{cls.__name__}",
            (cls,),
            {"want_schedule": lambda self, start, count, view=None: None},
        )
    adversary.strategy.__class__ = _PER_SLOT_CLASSES[cls]
    return adversary


FUZZ_POLICIES = {
    "lesk": lambda w: VectorLESKPolicy(EPS, w),
    "lesu": lambda w: VectorLESUPolicy(w),
    "sweep": lambda w: VectorSweepPolicy(w),
    "estimation": lambda w: VectorEstimationPolicy(w),
}
FUZZ_JAMMERS = (
    "none",
    "saturating",
    "periodic-front",
    "burst",
    "reactive",
    "single-suppressor",
)
FUZZ_FAULTS = (
    None,
    NO_FAULTS,
    FaultModel(flip_rate=0.05, erase_rate=0.05),
    FaultModel(flip_rate=0.3, erase_rate=0.3),
    FaultModel(
        flip_slots=(0, 5, 63, 64), erase_slots=(1, 64, 65), downgrade_slots=(2, 63, 130)
    ),
)


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    policy: str
    n: int
    reps: int
    cap: int
    jammer: str
    faults: FaultModel | None
    audited: bool
    telemetry: bool
    cd_mode: CDMode
    seed: int

    @classmethod
    def draw(cls, seed: int) -> "FuzzCase":
        rng = np.random.default_rng(seed)
        return cls(
            policy=str(rng.choice(sorted(FUZZ_POLICIES))),
            n=int(rng.choice([1, 2, 3, 7, 64, 300])),
            reps=int(rng.integers(1, 41)),
            cap=int(rng.choice([1, 63, 64, 65, 2000])),
            jammer=str(rng.choice(FUZZ_JAMMERS)),
            faults=FUZZ_FAULTS[int(rng.integers(len(FUZZ_FAULTS)))],
            audited=bool(rng.integers(2)),
            telemetry=bool(rng.integers(2)),
            cd_mode=CDMode.WEAK if rng.random() < 0.2 else CDMode.STRONG,
            seed=seed,
        )

    def run(self, monkeypatch, *, shared: bool, scheduled: bool):
        """Every result field, the auditor's slot count and the telemetry
        (injection counters included) of one path."""
        monkeypatch.setattr(vectorized, "_SHARED_COLUMNS", shared)
        auditor = BatchInvariantAuditor(T, EPS, self.reps) if self.audited else None

        def adversary(reps):
            made = make_batched_adversary(self.jammer, T=T, eps=EPS, reps=reps)
            return made if scheduled else per_slot(made)

        scope = collecting() if self.telemetry else contextlib.nullcontext()
        with scope as tel:
            result = simulate_stations_vectorized(
                FUZZ_POLICIES[self.policy],
                self.n,
                adversary,
                reps=self.reps,
                max_slots=self.cap,
                root_seed=self.seed,
                cd_mode=self.cd_mode,
                faults=self.faults,
                auditor=auditor,
            )
        fields = {
            f.name: getattr(result, f.name) for f in dataclasses.fields(result)
        }
        fields["slots_checked"] = None if auditor is None else auditor.slots_checked
        if tel is not None:
            fields["counters"] = tel.metrics.to_jsonable()["counters"]
            fields["events"] = tel.events.events()
        return fields


class TestPathFuzz:
    """One policy column per replication, block-granted jams and block
    audits keep every bit of per-station columns and of per-slot jams."""

    @pytest.mark.parametrize("seed", range(150))
    def test_paths_agree(self, seed, monkeypatch):
        case = FuzzCase.draw(seed)
        ref = case.run(monkeypatch, shared=True, scheduled=True)
        for shared, scheduled in ((False, True), (True, False)):
            with monkeypatch.context() as patch:
                other = case.run(patch, shared=shared, scheduled=scheduled)
            assert other.keys() == ref.keys()
            for name, value in ref.items():
                key = (case, shared, scheduled, name)
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(other[name], value, err_msg=str(key))
                else:
                    assert other[name] == value, key


class TestBlockGrants:
    """Which strategies the engine grants a block at a time."""

    @pytest.mark.parametrize(
        "jammer, expected",
        [
            ("none", True),
            ("saturating", True),
            ("periodic-front", True),
            ("burst", True),
            ("random", False),
            ("reactive", False),
            ("single-suppressor", False),
            ("estimator-attacker", False),
        ],
    )
    def test_schedulable_strategies(self, jammer, expected):
        adversary = make_batched_adversary(jammer, T=T, eps=EPS, reps=3)
        assert (schedule_refusal(adversary) is None) == expected
        assert schedule_refusal(per_slot(adversary)) is not None

    def test_strict_and_subclassed_adversaries_decide_per_slot(self):
        strict = make_batched_adversary("saturating", T=T, eps=EPS, reps=3, strict=True)
        assert schedule_refusal(strict) == "strict-budget"

        class Spy(BatchedAdversary):
            def decide(self, view):
                return super().decide(view)

        spy = Spy(make_batched_adversary("none", T=T, eps=EPS, reps=3).strategy,
                  T=T, eps=EPS, reps=3)
        assert schedule_refusal(spy) == "adversary:Spy"

    @pytest.mark.parametrize(
        "partition", [interval_of_slot, fixed_partition(16)], ids=["doubling", "fixed"]
    )
    def test_c3_killer_schedule_matches_its_wants(self, partition):
        strategy = VectorC3Killer(partition)
        schedule = np.concatenate(
            [strategy.want_schedule(start, 64) for start in range(0, 3000, 64)]
        )
        wants = [
            bool(strategy.wants_jam_batch(
                BatchAdversaryView(slot=slot, n=10, reps=1, budget=None), None
            )[0])
            for slot in range(3008)
        ]
        assert schedule.tolist() == wants
        assert schedule.any() and not schedule.all()

    def test_retiring_replications_read_their_own_slot(self, monkeypatch):
        # Replications retire in different slots of one draw block under
        # a jammer whose grants change within the block: each reports the
        # budget's counts after its own slot.
        r = vectorized_lesk("periodic-front", n=16, reps=12, seed=8)
        assert len(set(r.slots.tolist())) > 3
        monkeypatch.setattr(vectorized, "_SHARED_COLUMNS", False)
        ref = simulate_stations_vectorized(
            lambda w: VectorLESKPolicy(EPS, w),
            16,
            lambda reps: per_slot(
                make_batched_adversary("periodic-front", T=T, eps=EPS, reps=reps)
            ),
            reps=12,
            max_slots=2000,
            root_seed=8,
        )
        np.testing.assert_array_equal(r.jams, ref.jams)
        np.testing.assert_array_equal(r.slots, ref.slots)
        assert len(set(r.jams.tolist())) > 3


def telemetry_of(run):
    with collecting() as tel:
        result = run()
    counters = tel.metrics.to_jsonable()["counters"]
    windows = [e for e in tel.events.events() if e["kind"] == "slot_window"]
    return result, counters, windows


class TestTelemetryParity:
    """Counters and ``slot_window`` events do not depend on the path."""

    def a10_cell(self, shared, scheduled, monkeypatch):
        monkeypatch.setattr(vectorized, "_SHARED_COLUMNS", shared)
        auditor = BatchInvariantAuditor(T, EPS, 6)

        def adversary(reps):
            made = make_batched_adversary("saturating", T=T, eps=EPS, reps=reps)
            return made if scheduled else per_slot(made)

        result, counters, windows = telemetry_of(
            lambda: simulate_stations_vectorized(
                lambda w: VectorLESUPolicy(w),
                32,
                adversary,
                reps=6,
                max_slots=900,
                root_seed=44,
                faults=FaultModel(flip_rate=0.3, erase_rate=0.3),
                auditor=auditor,
            )
        )
        return result, counters, windows, auditor.slots_checked

    def t6_cell(self, scheduled):
        def adversary(reps):
            made = make_batched_adversary("saturating", T=T, eps=EPS, reps=reps)
            return made if scheduled else per_slot(made)

        return telemetry_of(
            lambda: simulate_stations_vectorized(
                notification(), 16, adversary, reps=4, max_slots=5000,
                root_seed=123, cd_mode=CDMode.WEAK,
            )
        )

    def test_a10_cell(self, monkeypatch):
        result, counters, windows, checked = self.a10_cell(True, True, monkeypatch)
        assert result.timed_out.any() and not result.timed_out.all()
        assert len(windows) > 10 and checked == 900
        names = {c["name"] for c in counters}
        assert {"faults_injected_total", "jam_slots_total"} <= names
        ref = self.a10_cell(False, False, monkeypatch)
        assert (counters, windows, checked) == ref[1:]

    def test_t6_cell(self):
        result, counters, windows = self.t6_cell(True)
        assert result.elected.all() and len(windows) > 5
        _, ref_counters, ref_windows = self.t6_cell(False)
        assert counters == ref_counters and windows == ref_windows
