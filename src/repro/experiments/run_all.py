"""Regenerate every experiment table: ``python -m repro.experiments.run_all``.

Options::

    --preset small|smoke|full
                          (default: full; smoke = the small parameters,
                          named for CI and acceptance runs)
    --out DIR             checkpointed run directory: per-experiment .txt
                          and .csv, plus checkpoints/, journal.jsonl and
                          manifest.json (see docs/runner.md)
    --telemetry           collect metrics/events in every attempt, merge
                          them across workers, and persist the aggregate
                          under DIR/telemetry/ (see docs/telemetry.md);
                          render with `python -m repro telemetry report DIR`
    --telemetry-stride N  event-sampling stride in slots (default 64)
    --resume DIR          continue an interrupted --out run: restore valid
                          checkpoints, recompute only what is missing
    --only T1,T5,F1       run a subset by experiment id
    --jobs N              run experiments in N parallel workers
                          (results identical: seeds are pre-derived)
    --seed N              root seed forwarded to every experiment
                          (default: each module's published default)
    --timeout S           wall-clock budget per attempt; a hung worker is
                          killed and recorded, not waited on forever
    --retries N           max attempts per experiment (default 3);
                          transient crashes retry with backoff + jitter,
                          ReproError config failures and timeouts do not
    --backoff S           base backoff delay between retries (default 0.5)
    --keep-going          collect failures and keep running (default);
    --no-keep-going       abort dispatch at the first failure
    --inject-faults SPEC  chaos testing: deterministic faults, e.g.
                          "T1:raise@1,T7:hang@2" (see repro.experiments.faults);
                          block<N>:kill/hang/corrupt-result@E atoms target
                          the shard supervisor's work units
    --shard-jobs N        split each experiment's sharded cells across N
                          supervised shard workers (block-level retry,
                          quarantine, speculation, checkpoints under
                          DIR/shards/; see docs/runner.md)
    --shard-block-size N  repetitions per shard block (default 64)
    --shard-timeout S     wall-clock budget per shard block; a hung block's
                          worker is killed and the block retried/quarantined

Exit status: 0 every table produced, 2 partial success (some experiments
failed but the rest completed and were checkpointed), 1 total failure or
an aborted --no-keep-going run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.checkpoint import RunDir, build_manifest, cli_invocation
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import (
    ExperimentOutcome,
    RetryPolicy,
    Runner,
    RunnerConfig,
    exit_code,
    failure_table,
)

EXPERIMENT_MODULES: dict[str, str] = {
    "T1": "repro.experiments.e01_lesk_scaling",
    "T2": "repro.experiments.e02_lesk_eps",
    "T3": "repro.experiments.e03_lower_bound",
    "T4": "repro.experiments.e04_estimation",
    "T5": "repro.experiments.e05_lesu",
    "T6": "repro.experiments.e06_notification",
    "T7": "repro.experiments.e07_vs_ars",
    "T8": "repro.experiments.e08_adversary_ablation",
    "T9": "repro.experiments.e09_energy",
    "T10": "repro.experiments.e10_lemma_checks",
    "F1": "repro.experiments.e11_trajectory",
    "F2": "repro.experiments.e12_success_curve",
    "A1": "repro.experiments.e13_ablation_collision_weight",
    "A2": "repro.experiments.e14_ablation_lesu_c",
    "A3": "repro.experiments.e15_nocd_frontier",
    "A4": "repro.experiments.e16_ars_throughput",
    "A5": "repro.experiments.e17_applications",
    "A6": "repro.experiments.e18_energy_frontier",
    "A7": "repro.experiments.e19_price_of_universality",
    "A8": "repro.experiments.e20_worst_case_search",
    "A9": "repro.experiments.e21_interval_ablation",
    "A10": "repro.experiments.e22_fault_degradation",
}


def run_experiment(exp_id: str, preset: str):
    """Run one experiment by id, in-process, and return its Table.

    The direct, unsupervised path -- used by tests and notebooks.  The CLI
    goes through :class:`repro.experiments.runner.Runner` instead, which
    adds isolation, timeout, retry and checkpointing around this same
    unit of work.
    """
    import importlib

    module = importlib.import_module(EXPERIMENT_MODULES[exp_id])
    return module.run(preset=preset)


class _OrderedPrinter:
    """Emit per-experiment output in ``ids`` order as outcomes stream in.

    The runner finalizes experiments in completion order; buffering
    out-of-order results keeps stdout deterministic without delaying
    everything to the end.
    """

    def __init__(self, ids: list[str]):
        self._order = list(ids)
        self._buffer: dict[str, ExperimentOutcome] = {}
        self._next = 0

    def __call__(self, outcome: ExperimentOutcome) -> None:
        self._buffer[outcome.exp_id] = outcome
        while self._next < len(self._order):
            ready = self._buffer.pop(self._order[self._next], None)
            if ready is None:
                break
            self._next += 1
            self._print(ready)

    @staticmethod
    def _print(outcome: ExperimentOutcome) -> None:
        if outcome.status == "ok":
            print(outcome.table.render())
            suffix = f" in {outcome.attempts} attempts" if outcome.attempts > 1 else ""
            print(f"[{outcome.exp_id} done in {outcome.elapsed:.1f}s{suffix}]\n",
                  flush=True)
        elif outcome.status == "restored":
            print(outcome.table.render())
            print(f"[{outcome.exp_id} restored from checkpoint]\n", flush=True)
        elif outcome.status == "aborted":
            print(f"[{outcome.exp_id} aborted: --no-keep-going]\n", flush=True)
        else:
            print(
                f"[{outcome.exp_id} {outcome.status} after {outcome.attempts} "
                f"attempt(s): {outcome.error}]\n",
                flush=True,
            )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for options."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset", choices=("small", "smoke", "full"), default="full"
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--resume", type=Path, default=None, metavar="RUN_DIR")
    parser.add_argument("--only", type=str, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--backoff", type=float, default=0.5)
    parser.add_argument(
        "--keep-going",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="collect failures and keep running (default on)",
    )
    parser.add_argument("--inject-faults", type=str, default=None, metavar="SPEC")
    parser.add_argument("--shard-jobs", type=int, default=None, metavar="N")
    parser.add_argument("--shard-block-size", type=int, default=None, metavar="N")
    parser.add_argument("--shard-timeout", type=float, default=None, metavar="S")
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect and persist merged metrics/events (docs/telemetry.md)",
    )
    parser.add_argument("--telemetry-stride", type=int, default=64, metavar="N")
    args = parser.parse_args(argv)
    if args.telemetry_stride < 1:
        parser.error("--telemetry-stride must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 1:
        parser.error("--retries must be >= 1")
    if args.shard_jobs is not None and args.shard_jobs < 1:
        parser.error("--shard-jobs must be >= 1")
    if args.shard_block_size is not None and args.shard_block_size < 1:
        parser.error("--shard-block-size must be >= 1")
    if (args.shard_block_size or args.shard_timeout) and args.shard_jobs is None:
        parser.error("--shard-block-size/--shard-timeout require --shard-jobs")
    if args.out and args.resume:
        parser.error("--out and --resume are mutually exclusive "
                     "(--resume already names the run directory)")

    ids = list(EXPERIMENT_MODULES)
    if args.only:
        ids = [i.strip() for i in args.only.split(",") if i.strip()]
        unknown = [i for i in ids if i not in EXPERIMENT_MODULES]
        if unknown:
            parser.error(f"unknown experiment ids: {unknown}")

    fault_plan = None
    if args.inject_faults:
        try:
            fault_plan = FaultPlan.from_spec(args.inject_faults).validate_ids(
                EXPERIMENT_MODULES
            )
        except ConfigurationError as exc:
            parser.error(str(exc))

    run_dir = None
    resume = args.resume is not None
    sharded = None
    if args.shard_jobs is not None:
        sharded = {
            "shard_jobs": args.shard_jobs,
            "shard_block_size": args.shard_block_size,
            "shard_timeout": args.shard_timeout,
        }
    manifest = build_manifest(
        args.preset,
        ids,
        args.seed,
        sharded=sharded,
        invocation=cli_invocation("experiments", argv),
    )
    if resume:
        run_dir = RunDir(args.resume)
        try:
            warnings = run_dir.validate_manifest(manifest)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
    elif args.out:
        run_dir = RunDir(args.out)
        run_dir.init(manifest)

    config = RunnerConfig(
        preset=args.preset,
        seed=args.seed,
        jobs=args.jobs,
        timeout=args.timeout,
        retry=RetryPolicy(
            max_attempts=args.retries,
            backoff_base=args.backoff,
            seed=args.seed or 0,
        ),
        keep_going=args.keep_going,
        fault_plan=fault_plan,
        telemetry=args.telemetry,
        telemetry_stride=args.telemetry_stride,
        shard_jobs=args.shard_jobs,
        shard_block_size=args.shard_block_size,
        shard_block_timeout=args.shard_timeout,
    )
    runner = Runner(ids, EXPERIMENT_MODULES, config, run_dir=run_dir, resume=resume)
    outcomes = runner.run(on_outcome=_OrderedPrinter(ids))

    failures = [o for o in outcomes if not o.ok]
    if failures:
        print(failure_table(outcomes).render(), flush=True)
    return exit_code(outcomes)


if __name__ == "__main__":
    sys.exit(main())
