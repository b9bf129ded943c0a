"""Scenario CLI: exit codes, store round-trips, tamper detection."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main
from repro.service.cli import main

GOOD = """
scenario: cli-t
schema: 1
seed: 9
grid:
  kind: [lesk]
  n: [8]
  adversary: [random]
reps: 3
sharding: {block_size: 2}
"""

BAD = """
scenario: cli-bad
schema: 1
grid:
  n: [8]
  adversary: [bogus]
reps: 3
"""


@pytest.fixture()
def good(tmp_path):
    path = tmp_path / "good.yaml"
    path.write_text(GOOD)
    return path


@pytest.fixture()
def bad(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(BAD)
    return path


class TestValidate:
    def test_valid_document_exits_zero(self, good, capsys):
        assert main(["validate", str(good)]) == 0
        out = capsys.readouterr().out
        assert "cli-t" in out and "digest" in out

    def test_invalid_document_exits_one_with_paths(self, bad, capsys):
        assert main(["validate", str(bad)]) == 1
        assert "grid.adversary[0]" in capsys.readouterr().err

    def test_mixed_batch_fails(self, good, bad, capsys):
        assert main(["validate", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "cli-t" in captured.out  # the good one still reported
        assert "grid.adversary[0]" in captured.err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.yaml")]) == 1
        capsys.readouterr()


class TestRunAndReplay:
    def test_run_status_results_replay(self, good, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", str(good), "--store", store, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        run_id = out.split("run ")[1].split(" ")[0]

        assert main(["status", run_id, "--store", store]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"

        assert main(["results", run_id, "--store", store]) == 0
        assert "scenario cli-t" in capsys.readouterr().out

        assert main(["results", run_id, "--store", store, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("kind,")

        assert main(["replay", run_id, "--store", store]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

        assert main(["list", "--store", store]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == run_id

    def test_replay_of_tampered_store_exits_nonzero(
        self, good, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["run", str(good), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        (table_path,) = store_dir.glob("runs/*/tables/SCENARIO.json")
        data = json.loads(table_path.read_text())
        data["table"]["rows"][0]["median_slots"] = 1.0
        table_path.write_text(json.dumps(data))
        run_id = table_path.parent.parent.name
        assert main(["replay", run_id, "--store", str(store_dir)]) == 1
        assert "integrity violation" in capsys.readouterr().err

    def test_replay_of_stored_compact_interval_is_a_configuration_error(
        self, good, tmp_path, capsys
    ):
        """Stores written before compaction stopped being a knob carry
        ``engine.compact_interval: null``; replaying one must fail with a
        path-qualified configuration error, not a traceback."""
        store_dir = tmp_path / "store"
        assert main(["run", str(good), "--store", str(store_dir)]) == 0
        capsys.readouterr()
        (doc_path,) = store_dir.glob("runs/*/scenario.json")
        doc = json.loads(doc_path.read_text())
        doc["engine"]["compact_interval"] = None
        doc_path.write_text(json.dumps(doc))
        run_id = doc_path.parent.name
        assert main(["replay", run_id, "--store", str(store_dir)]) == 1
        err = capsys.readouterr().err
        assert "engine.compact_interval: unknown key" in err
        assert "Traceback" not in err

    def test_submit_registers_without_executing(self, good, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["submit", str(good), "--store", store]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["created"] is True
        assert summary["state"] == "queued"

    def test_unknown_run_id_exits_one(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["status", "ffff", "--store", store]) == 1
        assert "no run" in capsys.readouterr().err

    def test_store_or_url_required(self, capsys):
        assert main(["status", "abc"]) == 1
        assert "--store" in capsys.readouterr().err


class TestMainForwarding:
    def test_scenario_subcommand_forwards(self, good, capsys):
        assert repro_main(["scenario", "validate", str(good)]) == 0
        assert "cli-t" in capsys.readouterr().out
