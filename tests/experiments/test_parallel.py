"""Tests for the process-pool helpers (repro.experiments.parallel)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import _check_picklable_fn, default_jobs


def _module_level(seed: int) -> int:
    return seed


class TestValidation:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_lambda_rejected_with_actionable_message(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            _check_picklable_fn(lambda s: s)

    def test_closure_rejected_with_actionable_message(self):
        def local_fn(seed):
            return seed

        with pytest.raises(ConfigurationError, match="module level"):
            _check_picklable_fn(local_fn)

    def test_module_level_function_accepted(self):
        _check_picklable_fn(_module_level)
