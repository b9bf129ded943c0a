"""Deterministic random-number management.

All randomness in the library flows from a single root seed through
:class:`numpy.random.Generator` objects.  Independent streams (one per
station, one for the adversary, one per experiment repetition) are derived
with ``Generator.spawn`` / :class:`numpy.random.SeedSequence` so that

* every run is exactly reproducible from ``(seed,)``;
* per-station streams are statistically independent;
* adding stations or re-ordering draws in one component does not perturb
  the streams of other components.

>>> make_rng(7).random() == make_rng(7).random()
True
>>> derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
True
>>> derive_seed(1, 2, 3) == derive_seed(1, 3, 2)
False
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "spawn_many",
    "derive_seed",
]

RngLike = int | np.random.Generator | np.random.SeedSequence | None


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (OS entropy), an integer seed, a ``SeedSequence``, or
    an existing ``Generator`` (returned unchanged so callers can thread a
    generator through layered APIs).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive one statistically independent child generator."""
    return rng.spawn(1)[0]


def spawn_many(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* independent child generators."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return rng.spawn(n) if n else []


def derive_seed(root_seed: int, *path: int) -> int:
    """Derive a stable 63-bit integer seed from a root seed and a path.

    Used by the experiment harness so that row ``(i, rep)`` of a sweep gets
    the same seed regardless of execution order or parallelism.
    """
    ss = np.random.SeedSequence([root_seed, *path])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
