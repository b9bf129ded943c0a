"""FaultModel validation, serialization and deterministic realization."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.resilience.faults import NO_FAULTS, FaultModel


class TestValidation:
    def test_no_faults_disabled(self):
        assert not NO_FAULTS.enabled
        assert not FaultModel().enabled

    def test_any_field_enables(self):
        assert FaultModel(flip_rate=0.1).enabled
        assert FaultModel(crash_slots=(3,)).enabled
        assert FaultModel(skew_rate=0.01).enabled

    @pytest.mark.parametrize("field", ["crash_rate", "flip_rate", "erase_rate", "skew_rate"])
    def test_rates_bounded(self, field):
        with pytest.raises(ConfigurationError):
            FaultModel(**{field: -0.1})
        with pytest.raises(ConfigurationError):
            FaultModel(**{field: 1.5})

    def test_negative_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(crash_slots=(-1,))
        with pytest.raises(ConfigurationError):
            FaultModel(flip_slots=(3, -2))

    def test_bad_sleep_span_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultModel(sleep_spans=((10, 5),))  # end before start
        with pytest.raises(ConfigurationError):
            FaultModel(sleep_spans=((-1, 5),))

    def test_has_churn(self):
        assert FaultModel(crash_rate=0.1).has_churn
        assert FaultModel(join_slots=(2,)).has_churn
        assert not FaultModel(flip_rate=0.1).has_churn
        assert not FaultModel(skew_rate=0.1).has_churn


class TestSerialization:
    def test_round_trip_equality(self):
        fm = FaultModel(
            crash_slots=(5, 9),
            sleep_spans=((12, 20),),
            join_slots=(3,),
            flip_rate=0.05,
            erase_slots=(4,),
            downgrade_slots=(7,),
            skew_rate=0.02,
        )
        assert FaultModel.from_jsonable(fm.to_jsonable()) == fm

    def test_unknown_field_rejected(self):
        data = NO_FAULTS.to_jsonable()
        data["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            FaultModel.from_jsonable(data)


class TestRealization:
    FM = FaultModel(
        crash_slots=(5, 9),
        sleep_spans=((12, 20),),
        join_slots=(3,),
        flip_rate=0.1,
        erase_rate=0.1,
        downgrade_slots=(7,),
        skew_rate=0.05,
    )

    def test_deterministic_from_seed(self):
        a = self.FM.realize(32, 200, np.random.default_rng(7))
        b = self.FM.realize(32, 200, np.random.default_rng(7))
        assert (a.crash_slot == b.crash_slot).all()
        assert (a.join_slot == b.join_slot).all()
        for slot in range(200):
            ma = a.station_awake(slot)
            mb = b.station_awake(slot)
            assert (ma == mb).all()
            fa = a.begin_slot(slot, int(ma.sum()))
            fb = b.begin_slot(slot, int(mb.sum()))
            assert (fa.flip, fa.erase, fa.downgrade) == (fb.flip, fb.erase, fb.downgrade)
        assert a.counters == b.counters

    def test_counters_populated(self):
        realized = self.FM.realize(32, 200, np.random.default_rng(7))
        for slot in range(200):
            mask = realized.station_awake(slot)
            realized.begin_slot(slot, int(mask.sum()))
        c = realized.counters
        assert c["crash"] == 2
        assert c["join"] == 1
        assert c["sleep_slots"] == 8  # one station, span [12, 20)
        assert c["downgrade"] >= 1
        assert c["flip"] > 0 and c["erase"] > 0
        assert c["skew_slots"] > 0

    def test_scheduled_downgrade_fires_on_its_slot(self):
        fm = FaultModel(downgrade_slots=(7,))
        realized = fm.realize(8, 20, np.random.default_rng(0))
        for slot in range(20):
            mask = realized.station_awake(slot)
            flags = realized.begin_slot(slot, int(mask.sum()))
            assert flags.downgrade == (slot == 7)

    def test_crashed_station_stays_down(self):
        fm = FaultModel(crash_slots=(4,))
        realized = fm.realize(4, 30, np.random.default_rng(1))
        crashed = int(np.flatnonzero(realized.crash_slot >= 0)[0])
        for slot in range(30):
            mask = realized.station_awake(slot)
            if slot >= 4:
                assert not mask[crashed]
        assert not realized.leader_survives(crashed)
        alive = (set(range(4)) - {crashed}).pop()
        assert realized.leader_survives(alive)

    def test_batch_realization_shares_churn(self):
        fm = FaultModel(crash_slots=(4,), flip_rate=0.2)
        bf = fm.realize_batch(8, 5, 50, np.random.default_rng(3))
        active = np.ones(5, dtype=bool)
        for slot in range(50):
            bf.awake_count(slot)
            flip, erase, downgrade = bf.begin_slot(slot, active)
            assert flip.shape == (5,)
            assert erase.shape == (5,)


_RATES = st.sampled_from([0.0, 0.05, 0.5, 1.0])
_SCHEDULED = st.lists(st.integers(0, 90), max_size=6)


@given(
    flip_rate=_RATES,
    erase_rate=_RATES,
    flip_slots=_SCHEDULED,
    erase_slots=_SCHEDULED,
    downgrade_slots=_SCHEDULED,
    blocks=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    ran=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_corruption_blocks_equal_successive_begin_slots(
    flip_rate, erase_rate, flip_slots, erase_slots, downgrade_slots, blocks, ran, seed
):
    """Block flags, the stream they consume and the injection counters
    equal slot-by-slot ``begin_slot`` calls, whatever the block boundaries,
    for a run of *ran* slots that may stop inside its last block."""
    fm = FaultModel(
        flip_rate=flip_rate,
        erase_rate=erase_rate,
        flip_slots=flip_slots,
        erase_slots=erase_slots,
        downgrade_slots=downgrade_slots,
    )

    def realize():
        return fm.realize(4, 200, np.random.default_rng(seed))

    def slot_flags(realized, start, count):
        flags = [realized.begin_slot(s, 4) for s in range(start, start + count)]
        return np.array([[f.flip, f.erase, f.downgrade] for f in flags]).T

    blockwise = realize()
    drawn = []
    start = 0
    for size in itertools.cycle(blocks):
        if start >= ran:
            break
        flags = blockwise.corruption_block(start, size)
        assert flags.shape == (3, size) and flags.dtype == bool
        blockwise.count_corruption(flags[:, : ran - start])  # the slots run
        drawn.append(flags)
        start += size

    slotwise = realize()
    np.testing.assert_array_equal(
        np.concatenate(drawn, axis=1), slot_flags(slotwise, 0, start)
    )
    # The stream stands where the slot-by-slot one does after as many slots.
    np.testing.assert_array_equal(
        blockwise.corruption_block(start, 5), slot_flags(slotwise, start, 5)
    )
    counted = realize()
    slot_flags(counted, 0, ran)
    assert blockwise.counters == counted.counters
