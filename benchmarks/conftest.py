"""Shared benchmark plumbing.

Every table/figure of the reproduction has one benchmark target in
``bench_experiments.py`` (parametrized over ``run_all.EXPERIMENT_MODULES``)
that (a) times the experiment at the ``small`` preset via pytest-benchmark
and (b) prints the regenerated table, so
``pytest benchmarks/ --benchmark-only -s`` doubles as a quick reproduction
report.  The ``full`` preset (the EXPERIMENTS.md numbers) is run via
``python -m repro.experiments.run_all``.
"""

from __future__ import annotations


def run_experiment_benchmark(benchmark, exp_id: str) -> None:
    """Time one experiment at the small preset and echo its table."""
    from repro.experiments.run_all import run_experiment

    table = benchmark.pedantic(
        lambda: run_experiment(exp_id, "small"), rounds=1, iterations=1
    )
    print()
    print(table.render())
