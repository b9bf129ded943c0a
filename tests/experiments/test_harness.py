"""Tests for the experiment harness (repro.experiments.harness)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    replicate,
    summarize_times,
)
from repro.rng import derive_seed


class FakeResult:
    def __init__(self, slots, elected=True):
        self.slots = slots
        self.elected = elected


class TestPreset:
    def test_values(self):
        assert preset_value("small", 1, 2) == 1
        assert preset_value("full", 1, 2) == 2

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            preset_value("medium", 1, 2)


class TestTable:
    def make(self):
        return Table(
            name="TX",
            title="demo",
            claim="something holds",
            columns=[Column("n", "n"), Column("v", "value", ".2f")],
        )

    def test_render_contains_everything(self):
        t = self.make()
        t.add_row(n=4, v=1.234)
        t.add_note("a note")
        text = t.render()
        assert "TX: demo" in text
        assert "claim: something holds" in text
        assert "1.23" in text
        assert "note: a note" in text

    def test_missing_value_renders_dash(self):
        t = self.make()
        t.add_row(n=4)
        assert "-" in t.render()

    def test_csv(self):
        t = self.make()
        t.add_row(n=4, v=1.5)
        assert t.to_csv().splitlines() == ["n,v", "4,1.5"]

    def test_column_values(self):
        t = self.make()
        t.add_row(n=4, v=1.0)
        t.add_row(n=8, v=2.0)
        assert t.column_values("n") == [4, 8]

    def test_format_fallback_for_unformattable(self):
        t = self.make()
        t.add_row(n=4, v="not-a-number")
        assert "not-a-number" in t.render()

    def test_csv_quotes_commas_and_quotes(self):
        import csv
        import io

        t = self.make()
        t.add_row(n='medium, with "quotes"', v=1.5)
        t.add_row(n="line\nbreak", v=2.0)
        parsed = list(csv.reader(io.StringIO(t.to_csv() + "\n")))
        assert parsed == [
            ["n", "v"],
            ['medium, with "quotes"', "1.5"],
            ["line\nbreak", "2.0"],
        ]


class TestReplicate:
    def test_stable_seed_derivation(self):
        seen = replicate(lambda s: s, 3, 99, 1, 2)
        again = replicate(lambda s: s, 3, 99, 1, 2)
        assert seen == again
        assert seen == [derive_seed(99, 1, 2, r) for r in range(3)]

    def test_distinct_paths_distinct_seeds(self):
        a = replicate(lambda s: s, 2, 99, 1)
        b = replicate(lambda s: s, 2, 99, 2)
        assert set(a).isdisjoint(b)

    def test_rejects_zero_reps(self):
        with pytest.raises(ConfigurationError):
            replicate(lambda s: s, 0, 1)


class TestSummarize:
    def test_statistics(self):
        results = [FakeResult(s) for s in (10, 20, 30, 40, 100)]
        stats = summarize_times(results)
        assert stats["reps"] == 5
        assert stats["median_slots"] == 30
        assert stats["mean_slots"] == 40
        assert stats["max_slots"] == 100
        assert stats["success_rate"] == 1.0

    def test_failures_counted(self):
        results = [FakeResult(10), FakeResult(99, elected=False)]
        stats = summarize_times(results)
        assert stats["success_rate"] == 0.5
        assert stats["success_lo"] < 0.5 < stats["success_hi"]

    def test_empty_results_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no results to summarize"):
            summarize_times([])
