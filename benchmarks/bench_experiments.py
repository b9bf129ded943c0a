"""Benchmark targets regenerating every experiment (see DESIGN.md section 2).

One target per id in ``run_all.EXPERIMENT_MODULES``, so registering an
experiment is all it takes to give it a bench target.
"""

from __future__ import annotations

import pytest
from conftest import run_experiment_benchmark

from repro.experiments.run_all import EXPERIMENT_MODULES


@pytest.mark.parametrize("exp_id", list(EXPERIMENT_MODULES))
def test_experiment(benchmark, exp_id):
    run_experiment_benchmark(benchmark, exp_id)
