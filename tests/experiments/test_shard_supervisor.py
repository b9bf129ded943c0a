"""Chaos suite for the block-level shard supervisor.

The contract under test mirrors the paper's adversary model applied to
the execution layer: worker kills, hangs and corrupted results are the
"jamming", and the supervisor must still deliver bit-identical sweep
results (deterministic block seeds + bounded retry + redispatch), or
degrade gracefully into an explicit quarantine -- never silently lose or
duplicate work.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, ShardFailureError
from repro.experiments.cells import (
    CellSpec,
    run_cell_direct,
    run_cells,
    run_cells_sharded,
    run_cells_sharded_report,
    run_shard,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.retry import RetryPolicy
from repro.experiments.shard_supervisor import (
    BLOCK_CHECKPOINT_FORMAT,
    BlockCheckpointStore,
    BlockSupervisor,
    ShardContext,
    SupervisionConfig,
    get_shard_context,
    shard_context,
)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_cap=0.01)

SPEC = CellSpec(
    kind="lesk", n=32, eps=0.5, T=8, adversary="saturating",
    reps=16, root_seed=21, path=(3, 0),
)


def _key(results):
    return [(r.slots, r.elected, r.jams) for r in results]


def _baseline(block_size=4):
    return run_cells_sharded([SPEC], jobs=1, block_size=block_size)


# -- module-level worker fns (picklable by reference) ------------------------


def _double(item):
    return [2 * x for x in item]


def _sleepy(item):
    time.sleep(item[0])
    return list(item)


def _raise_value_error(item):
    raise ValueError(f"transient {item}")


def _raise_config_error(item):
    raise ConfigurationError(f"bad cell {item}")


_FLAKY_CALLS = {"n": 0}


def _flaky_twice(item):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] < 3:
        raise ValueError("transient")
    return list(item)


class TestCrashRedispatch:
    def test_killed_worker_block_is_redispatched_bit_identically(self):
        plan = FaultPlan.from_spec("block0:kill@1")
        chaotic = run_cells_sharded(
            [SPEC], jobs=2, block_size=4, retry=FAST_RETRY, fault_plan=plan
        )
        assert [_key(c) for c in chaotic] == [_key(c) for c in _baseline()]

    def test_redispatch_counted_in_report(self):
        plan = FaultPlan.from_spec("block1:kill@1")
        _, _, report = run_cells_sharded_report(
            [SPEC], jobs=2, block_size=4, retry=FAST_RETRY, fault_plan=plan
        )
        assert report.ok
        assert report.redispatches >= 1
        assert report.completed == report.blocks == 4


class TestQuarantine:
    PLAN = "block0:kill@1,block0:kill@2,block0:kill@3"

    def test_poison_block_quarantined_with_keep_going(self):
        results, _, report = run_cells_sharded_report(
            [SPEC], jobs=2, block_size=4, retry=FAST_RETRY,
            fault_plan=FaultPlan.from_spec(self.PLAN), keep_going=True,
        )
        assert len(report.quarantined) == 1
        failure = report.quarantined[0]
        assert (failure.spec_index, failure.block_index) == (0, 0)
        assert failure.kind == "crash"
        assert failure.attempts == 3
        # Partial results: exactly the poisoned block's reps are missing,
        # and the surviving reps match the undisturbed baseline.
        assert len(results[0]) == SPEC.reps - 4
        assert _key(results[0]) == _key(_baseline()[0][4:])

    def test_quarantine_raises_without_keep_going(self):
        with pytest.raises(ShardFailureError, match="quarantined") as err:
            run_cells_sharded(
                [SPEC], jobs=2, block_size=4, retry=FAST_RETRY,
                fault_plan=FaultPlan.from_spec(self.PLAN),
            )
        assert err.value.report.quarantined

    def test_quarantine_table_renders(self):
        _, _, report = run_cells_sharded_report(
            [SPEC], jobs=2, block_size=4, retry=FAST_RETRY,
            fault_plan=FaultPlan.from_spec(self.PLAN), keep_going=True,
        )
        rendered = report.quarantine_table().render()
        assert "SHARD-FAILURES" in rendered
        assert "crash" in rendered


class TestTimeouts:
    def test_hung_block_killed_and_retried(self):
        # speculate=False so the rescue must come from the deadline kill +
        # retry, not from a speculative duplicate racing the hang.
        plan = FaultPlan.from_spec("block0:hang@1")
        chaotic, _, report = run_cells_sharded_report(
            [SPEC], jobs=2, block_size=4, block_timeout=3.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.001,
                              retry_timeouts=True),
            fault_plan=plan, speculate=False,
        )
        assert report.ok and report.retries >= 1
        assert [_key(c) for c in chaotic] == [_key(c) for c in _baseline()]

    def test_timeout_permanent_unless_retry_timeouts(self):
        plan = FaultPlan.from_spec("block0:hang@1")
        _, _, report = run_cells_sharded_report(
            [SPEC], jobs=2, block_size=4, block_timeout=1.0,
            retry=FAST_RETRY, fault_plan=plan, keep_going=True,
            speculate=False,
        )
        assert len(report.quarantined) == 1
        assert report.quarantined[0].kind == "timeout"
        assert report.quarantined[0].attempts == 1


class TestCorruptResult:
    def test_corrupt_fault_perturbs_exactly_one_block(self):
        plan = FaultPlan.from_spec("block0:corrupt-result@1")
        corrupted = run_cells_sharded(
            [SPEC], jobs=2, block_size=4, retry=FAST_RETRY, fault_plan=plan
        )
        base = _baseline()
        assert _key(corrupted[0][:4]) != _key(base[0][:4])
        assert [r.slots for r in corrupted[0][:4]] == [
            r.slots + 1 for r in base[0][:4]
        ]
        assert _key(corrupted[0][4:]) == _key(base[0][4:])


class TestSpeculation:
    def test_straggler_is_speculated_first_result_wins(self):
        config = SupervisionConfig(jobs=2, retry=FAST_RETRY)
        items = [(0, b, (0.0,)) for b in range(6)] + [(0, 6, (0.6,))]
        payloads, report = BlockSupervisor(_sleepy, config).run(items, 1)
        assert report.ok and report.completed == 7
        assert report.speculative_launches >= 1
        assert report.speculative_mismatches == 0
        assert payloads[6] == [0.6]

    def test_speculation_can_be_disabled(self):
        config = SupervisionConfig(jobs=2, retry=FAST_RETRY, speculate=False)
        items = [(0, b, (0.0,)) for b in range(6)] + [(0, 6, (0.3,))]
        _, report = BlockSupervisor(_sleepy, config).run(items, 1)
        assert report.speculative_launches == 0


class TestInlinePath:
    def test_transient_error_retried_then_succeeds(self):
        _FLAKY_CALLS["n"] = 0
        config = SupervisionConfig(jobs=1, retry=FAST_RETRY)
        payloads, report = BlockSupervisor(_flaky_twice, config).run(
            [(0, 0, (7,))], 1
        )
        assert payloads == [[7]]
        assert report.retries == 2 and report.ok

    def test_repro_error_is_permanent(self):
        config = SupervisionConfig(jobs=1, retry=FAST_RETRY, keep_going=True)
        payloads, report = BlockSupervisor(_raise_config_error, config).run(
            [(0, 0, (7,))], 1
        )
        assert payloads == [None]
        assert report.quarantined[0].attempts == 1  # no retry for ReproError

    def test_transient_error_exhausts_attempts(self):
        config = SupervisionConfig(jobs=1, retry=FAST_RETRY, keep_going=True)
        _, report = BlockSupervisor(_raise_value_error, config).run(
            [(0, 0, (7,))], 1
        )
        assert report.quarantined[0].attempts == FAST_RETRY.max_attempts
        assert report.retries == FAST_RETRY.max_attempts - 1

    def test_inline_kill_fault_rejected(self):
        plan = FaultPlan.from_spec("block0:kill@1")
        config = SupervisionConfig(
            jobs=1, retry=FAST_RETRY, fault_plan=plan, keep_going=True
        )
        _, report = BlockSupervisor(_double, config).run([(0, 0, [1])], 1)
        # fire_block(in_process=True) raises ConfigurationError -> permanent.
        assert report.quarantined[0].kind == "error"
        assert "needs worker processes" in report.quarantined[0].message


class TestBlockCheckpoints:
    def _specs(self):
        return [SPEC]

    def test_checkpoint_resume_restores_and_bit_reproduces(self, tmp_path):
        first = run_cells_sharded(
            self._specs(), jobs=2, block_size=4, checkpoint_dir=tmp_path
        )
        assert len(list(tmp_path.glob("block-*.json"))) == 4
        second, _, report = run_cells_sharded_report(
            self._specs(), jobs=2, block_size=4, checkpoint_dir=tmp_path
        )
        assert report.restored == 4 and report.completed == 0
        assert [_key(c) for c in first] == [_key(c) for c in second]

    def test_torn_checkpoint_rejected_and_recomputed(self, tmp_path):
        run_cells_sharded(
            self._specs(), jobs=1, block_size=4, checkpoint_dir=tmp_path
        )
        victim = sorted(tmp_path.glob("block-*.json"))[0]
        victim.write_text(victim.read_text()[: victim.stat().st_size // 2])
        results, _, report = run_cells_sharded_report(
            self._specs(), jobs=1, block_size=4, checkpoint_dir=tmp_path
        )
        assert report.restored == 3 and report.completed == 1
        assert [_key(c) for c in results] == [_key(c) for c in _baseline()]

    def test_file_text_is_the_sorted_key_dump(self, tmp_path):
        # Checkpoints written by the two-dump form must still resume, so
        # the text built around one encoding of the results is byte for
        # byte the dump of the whole record.
        store = BlockCheckpointStore(tmp_path)
        key = store.block_key(SPEC, 4, 0)
        results = run_cell_direct(SPEC)[:4]
        digest = store.save(key, results)
        jsonable = [r.to_jsonable() for r in results]
        assert digest == hashlib.sha256(
            json.dumps(jsonable, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        expected = json.dumps(
            {
                "format": BLOCK_CHECKPOINT_FORMAT,
                "checksum": digest,
                "results": jsonable,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert (tmp_path / f"block-{key}.json").read_text() == expected
        assert [r.to_jsonable() for r in store.load(key)] == jsonable

    def test_tampered_payload_fails_checksum(self, tmp_path):
        store = BlockCheckpointStore(tmp_path)
        key = store.block_key(SPEC, 4, 0)
        results = run_cell_direct(SPEC)[:4]
        store.save(key, results)
        data = json.loads((tmp_path / f"block-{key}.json").read_text())
        data["results"][0]["slots"] += 1
        (tmp_path / f"block-{key}.json").write_text(json.dumps(data))
        assert store.load(key) is None

    def test_keys_differ_across_specs_blocks_and_partitions(self):
        store = BlockCheckpointStore(".")
        other = CellSpec(
            kind="lesk", n=32, eps=0.5, T=8, adversary="saturating",
            reps=16, root_seed=21, path=(3, 1),
        )
        keys = {
            store.block_key(SPEC, 4, 0),
            store.block_key(SPEC, 4, 1),
            store.block_key(SPEC, 8, 0),
            store.block_key(other, 4, 0),
        }
        assert len(keys) == 4


class TestTelemetryCounters:
    def test_chaos_counters_land_in_live_sink(self):
        plan = FaultPlan.from_spec(
            "block0:kill@1,block1:kill@1,block1:kill@2,block1:kill@3"
        )
        with telemetry.collecting() as sink:
            run_cells_sharded(
                [SPEC], jobs=2, block_size=4, retry=FAST_RETRY,
                fault_plan=plan, keep_going=True,
            )
        assert sink.metrics.counter_total("shard_retries_total") >= 1
        assert sink.metrics.counter_total("shard_redispatch_total") >= 2
        assert sink.metrics.counter_total("shard_quarantined_total") == 1

    def test_restore_counter(self, tmp_path):
        run_cells_sharded([SPEC], jobs=1, block_size=4, checkpoint_dir=tmp_path)
        with telemetry.collecting() as sink:
            run_cells_sharded(
                [SPEC], jobs=1, block_size=4, checkpoint_dir=tmp_path
            )
        assert sink.metrics.counter_total("shard_blocks_restored_total") == 4


class TestShardContext:
    def test_inert_by_default(self):
        assert get_shard_context() == ShardContext()
        assert get_shard_context().jobs is None

    def test_run_cells_unsharded_matches_direct(self):
        assert _key(run_cells([SPEC])[0]) == _key(run_cell_direct(SPEC))

    def test_ambient_context_routes_to_supervised_path(self):
        with shard_context(jobs=2, block_size=4):
            ambient = run_cells([SPEC])
        explicit = run_cells_sharded([SPEC], jobs=1, block_size=4)
        assert _key(ambient[0]) == _key(explicit[0])

    def test_context_restored_after_scope(self):
        with shard_context(jobs=3):
            assert get_shard_context().jobs == 3
        assert get_shard_context().jobs is None


class TestValidation:
    def test_bad_supervision_jobs(self):
        with pytest.raises(ConfigurationError):
            SupervisionConfig(jobs=0)

    def test_bad_block_timeout(self):
        with pytest.raises(ConfigurationError):
            SupervisionConfig(block_timeout=0.0)


class TestRunAllIntegration:
    def test_shard_jobs_flag_runs_supervised(self, tmp_path, capsys):
        import json

        from repro.experiments.run_all import main as run_all_main

        out = tmp_path / "run"
        code = run_all_main(
            ["--preset", "small", "--only", "T4", "--shard-jobs", "2",
             "--shard-block-size", "8", "--out", str(out)]
        )
        assert code == 0
        assert "[T4 done" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sharded"] == {
            "shard_jobs": 2, "shard_block_size": 8, "shard_timeout": None,
        }
        assert list((out / "shards").glob("block-*.json"))

    def test_shard_flags_require_shard_jobs(self, capsys):
        from repro.experiments.run_all import main as run_all_main

        with pytest.raises(SystemExit):
            run_all_main(["--preset", "small", "--shard-block-size", "8"])
        capsys.readouterr()


class TestBlockFaultGrammar:
    def test_block_atoms_parse(self):
        plan = FaultPlan.from_spec("block3:kill@2,block0:corrupt-result@1")
        assert plan.block_fault_for(3, 2) is not None
        assert plan.block_fault_for(3, 1) is None
        assert plan.should_corrupt_block(0, 1)
        assert not plan.should_corrupt_block(0, 2)

    def test_experiment_kinds_rejected_on_blocks(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec("block0:raise@1")

    def test_block_kinds_rejected_on_experiments(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec("T1:kill@1")

    def test_mixed_spec_keeps_both_namespaces(self):
        plan = FaultPlan.from_spec("T1:raise@1,block2:hang@1")
        assert plan.fault_for("T1", 1) is not None
        assert plan.block_fault_for(2, 1) is not None
