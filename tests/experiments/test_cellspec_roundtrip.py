"""CellSpec JSON round-trip: exact reconstruction, strict unknown keys."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cells import CellSpec
from repro.resilience.faults import FaultModel


def spec(**overrides) -> CellSpec:
    base = dict(
        kind="lesk", n=64, eps=0.3, T=16, adversary="random",
        reps=8, root_seed=7, path=(99, 0),
    )
    base.update(overrides)
    return CellSpec(**base)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"batched": False},
            {"max_slots": 500},
            {"faults": FaultModel(crash_rate=0.01, flip_rate=0.002)},
            {
                "kind": "estimation",
                "adversary": "silence-masker",
                "path": (7, 3),
                "max_slots": 900,
                "faults": FaultModel(erase_rate=0.05),
            },
        ],
        ids=["defaults", "scalar", "max_slots", "faults", "all"],
    )
    def test_exact_round_trip(self, overrides):
        original = spec(**overrides)
        data = original.to_jsonable()
        # the wire form must be pure JSON
        restored = CellSpec.from_jsonable(json.loads(json.dumps(data)))
        assert restored == original
        assert restored.path == original.path  # tuple, not list
        assert restored.to_jsonable() == data

    def test_defaults_are_omitted_from_wire_form(self):
        data = spec().to_jsonable()
        assert "batched" not in data  # True is the default
        assert "max_slots" not in data
        assert "faults" not in data

    def test_faults_nest_as_plain_data(self):
        data = spec(faults=FaultModel(crash_rate=0.25)).to_jsonable()
        assert data["faults"]["crash_rate"] == 0.25
        restored = CellSpec.from_jsonable(data)
        assert isinstance(restored.faults, FaultModel)


class TestStrictness:
    def test_unknown_key_rejected(self):
        # ``megakernel`` was a field once; a spec that still carries it
        # is refused like any other stray key.
        for key, value in (("jam_budget", 3), ("megakernel", True)):
            data = spec().to_jsonable()
            data[key] = value
            with pytest.raises(ConfigurationError, match="unknown CellSpec fields"):
                CellSpec.from_jsonable(data)

    def test_error_names_offenders_and_known_fields(self):
        data = spec().to_jsonable()
        data.update(zz=1, aa=2)
        with pytest.raises(ConfigurationError) as err:
            CellSpec.from_jsonable(data)
        message = str(err.value)
        assert "['aa', 'zz']" in message
        assert "root_seed" in message  # known fields listed
