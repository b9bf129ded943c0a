"""Smoke tests: every experiment runs at a tiny preset and its table
carries the structure the claim needs.

These intentionally re-run the "small" presets (seconds in total); the
headline shape assertions -- who wins, scaling slopes, success rates --
live in tests/integration/test_paper_claims.py against the same presets.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from repro.experiments.harness import Table
from repro.experiments.run_all import EXPERIMENT_MODULES, run_experiment


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_MODULES))
def test_experiment_runs_and_produces_table(exp_id):
    table = run_experiment(exp_id, "small")
    assert isinstance(table, Table)
    assert table.name == exp_id
    assert table.rows, f"{exp_id} produced no rows"
    assert table.claim
    text = table.render()
    assert exp_id in text
    csv = table.to_csv()
    assert len(csv.splitlines()) == len(table.rows) + 1


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_MODULES))
def test_entry_point_is_run_preset_seed(exp_id):
    # Engines are chosen per cell, not per experiment: no entry point
    # grows engine switches.
    run = importlib.import_module(EXPERIMENT_MODULES[exp_id]).run
    assert list(inspect.signature(run).parameters) == ["preset", "seed"]


def test_run_all_cli_subset(tmp_path, capsys):
    from repro.experiments.run_all import main

    rc = main(["--preset", "small", "--only", "T10", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "T10" in out
    assert (tmp_path / "T10.txt").exists()
    assert (tmp_path / "T10.csv").exists()


def test_run_all_rejects_unknown_id():
    from repro.experiments.run_all import main

    with pytest.raises(SystemExit):
        main(["--only", "T99"])


def test_run_all_parallel_matches_serial(tmp_path, capsys):
    """--jobs N produces byte-identical tables (seeds are pre-derived)."""
    from repro.experiments.run_all import main

    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    assert main(["--preset", "small", "--only", "T10,A7", "--out", str(serial_dir)]) == 0
    assert (
        main(
            ["--preset", "small", "--only", "T10,A7", "--out", str(parallel_dir),
             "--jobs", "2"]
        )
        == 0
    )
    capsys.readouterr()
    for name in ("T10.csv", "A7.csv"):
        assert (serial_dir / name).read_text() == (parallel_dir / name).read_text()


def test_run_all_rejects_bad_jobs():
    from repro.experiments.run_all import main

    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(["--jobs", "0", "--only", "T10"])
