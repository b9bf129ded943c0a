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

import numpy as np
import pytest

from repro.adversary.vector import make_batched_adversary
from repro.core.config import default_slot_budget
from repro.errors import ConfigurationError
from repro.protocols.vector import VectorLESKPolicy
from repro.resilience.auditor import BatchInvariantAuditor
from repro.resilience.faults import FaultModel
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
        r = vectorized_lesk("saturating", n=32, seed=5, faults=fm)
        assert list(r.slots) == [92, 51, 80, 96, 155, 62]
        assert list(r.leaders) == [5, 30, 21, 25, 1, 29]
        assert r.elected.all()
        assert not r.leader_survived.any()

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

    def test_no_cd_rejected(self):
        with pytest.raises(ConfigurationError):
            vectorized_lesk("saturating", cd_mode=CDMode.NO_CD)

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
    def test_winner_never_learns(self):
        # The Notification problem: listeners resolve on a heard Single,
        # but the weak-CD transmitter gets no feedback -- without the
        # halt-on-single convention no replication ever elects.
        r = vectorized_lesk(
            "none",
            n=16,
            reps=4,
            seed=3,
            max_slots=400,
            cd_mode=CDMode.WEAK,
            stop_on_first_single=False,
        )
        assert not r.elected.any()
        assert r.timed_out.all()
        assert list(r.first_single_slot) == [53, 39, 35, 28]

    def test_halt_on_single_still_elects(self):
        r = vectorized_lesk(
            "none", n=16, reps=4, seed=3, max_slots=400, cd_mode=CDMode.WEAK
        )
        assert r.elected.all()
        assert (r.slots == r.first_single_slot + 1).all()
