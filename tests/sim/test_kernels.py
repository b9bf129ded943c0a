"""The megakernel's LESK outcome fold (``_apply_lesk_outcomes``).

The fold is the one piece of LESK arithmetic the megakernel does not share
with :meth:`VectorLESKPolicy.observe_batch`; these tests pin its Null /
Single / Collision semantics and the equivalence of its buffered and
unmasked fast paths to the plain masked reference.
"""

from __future__ import annotations

import numpy as np

from repro.sim.megakernel import _apply_lesk_outcomes


def _cases(rng, width=257):
    """(u, k, inv_a, floor, nonneg) tuples spanning the fold's domain."""
    for floor in (True, False):
        u = rng.uniform(-3.0, 8.0, size=width)
        k = rng.integers(0, 5, size=width)
        yield u, k, rng.uniform(0.01, 0.5), floor, False
    # The megakernel's nonneg fast path: u >= 0 with the floor active.
    u = rng.uniform(0.0, 8.0, size=width)
    k = rng.integers(0, 5, size=width)
    yield u, k, 0.0625, True, True


class TestNumpyKernel:
    def test_null_collision_single_semantics(self):
        u = np.array([3.0, 0.5, 2.0, 1.0])
        k = np.array([0, 0, 1, 3], dtype=np.int64)
        _apply_lesk_outcomes(u, k, 0.25)
        # Null steps down (floored), Single untouched, Collision steps up.
        assert u.tolist() == [2.0, 0.0, 2.0, 1.25]

    def test_no_floor_goes_negative(self):
        u = np.array([0.5])
        _apply_lesk_outcomes(u, np.array([0], dtype=np.int64), 0.25,
                             floor_at_zero=False)
        assert u[0] == -0.5

    def test_scratch_and_nonneg_paths_match_reference(self):
        rng = np.random.default_rng(17)
        for u, k, inv_a, floor, nonneg in _cases(rng):
            ref = u.copy()
            _apply_lesk_outcomes(ref, k, inv_a, floor)
            got = u.copy()
            scratch = (np.empty_like(k, dtype=bool), np.empty_like(k, dtype=bool))
            _apply_lesk_outcomes(got, k, inv_a, floor,
                                 scratch=scratch, nonneg=nonneg)
            assert np.array_equal(ref, got)
