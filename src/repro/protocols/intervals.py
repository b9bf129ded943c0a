"""The Section 3 interval partition ``C_1, C_2, C_3``.

For ``i >= 1`` and ``j in {1, 2, 3}``::

    C^i_1 = {3*2^i - 3, ..., 4*2^i - 4}
    C^i_2 = {4*2^i - 3, ..., 5*2^i - 4}
    C^i_3 = {5*2^i - 3, ..., 6*2^i - 4}

Each interval has exactly ``2**i`` slots; the nine-interval sequence
``C^1_1 C^1_2 C^1_3 C^2_1 ...`` tiles the timeline from slot 3 onward
(slots 0..2 belong to no interval).  ``C_j`` is the union over ``i`` of
``C^i_j``.  For ``i >= log2 T`` an interval is longer than ``T`` slots, so a
(T, 1-eps)-bounded adversary cannot jam it entirely -- the property the
Notification wrapper relies on.

>>> list(slots_of_interval(1, 1)), list(slots_of_interval(1, 3))
([3, 4], [7, 8])
>>> iv = interval_of_slot(10)
>>> (iv.i, iv.j, iv.offset, iv.size)
(2, 1, 1, 4)
>>> interval_of_slot(2) is None
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError

__all__ = [
    "IntervalId",
    "interval_of_slot",
    "interval_bounds",
    "slots_of_interval",
    "first_slot_of_interval",
    "fixed_partition",
]


@dataclass(frozen=True, slots=True)
class IntervalId:
    """Identifier of one interval ``C^i_j`` plus the position of a slot in it."""

    i: int
    j: int
    offset: int  # 0-based position of the slot within the interval
    #: Interval length in slots (2**i for the paper's partition).
    length: int = 0

    @property
    def size(self) -> int:
        """Interval length (falls back to the paper's ``2**i`` when the
        constructing partition did not record an explicit length)."""
        return self.length if self.length else 2**self.i


def interval_bounds(i: int, j: int) -> tuple[int, int]:
    """Half-open slot range ``[start, end)`` of ``C^i_j``."""
    if i < 1:
        raise ConfigurationError(f"interval index i must be >= 1, got {i}")
    if j not in (1, 2, 3):
        raise ConfigurationError(f"interval class j must be 1, 2 or 3, got {j}")
    size = 2**i
    start = (2 + j) * size - 3
    return start, start + size


def first_slot_of_interval(i: int, j: int) -> int:
    """First slot of ``C^i_j``."""
    return interval_bounds(i, j)[0]


def slots_of_interval(i: int, j: int) -> range:
    """All slots of ``C^i_j``."""
    start, end = interval_bounds(i, j)
    return range(start, end)


#: Recent slots to memoise per locator.  Every station of a slot asks for
#: the same slot, and slots advance in order, so a short window serves the
#: whole population; the returned :class:`IntervalId` is frozen and shared.
_LOCATOR_CACHE = 64


@lru_cache(maxsize=_LOCATOR_CACHE)
def interval_of_slot(slot: int) -> IntervalId | None:
    """Locate *slot* in the partition; ``None`` for slots 0..2.

    O(1): the block of index ``i`` spans ``[3*(2**i - 1), 3*(2**(i+1) - 1))``
    = ``[3*2^i - 3, 6*2^i - 3)`` and contains the three intervals of size
    ``2**i`` in order ``j = 1, 2, 3``.  Memoised over recent slots.
    """
    if slot < 0:
        raise ConfigurationError(f"slot must be >= 0, got {slot}")
    if slot < 3:
        return None
    # Find i with 3*2^i - 3 <= slot < 6*2^i - 3, i.e. 2^i <= (slot + 3)/3 < 2^(i+1).
    i = ((slot + 3) // 3).bit_length() - 1
    block_start = 3 * (2**i) - 3
    within = slot - block_start
    size = 2**i
    j = within // size + 1
    offset = within % size
    return IntervalId(i=i, j=int(j), offset=int(offset), length=size)


def fixed_partition(length: int):
    """A *non-growing* alternative partition: every interval ``C^i_j`` has
    the constant size *length*, tiling the timeline from slot 0.

    Exists for ablation A9: the paper's partition doubles so that some
    interval eventually exceeds any (unknown) ``T``; a fixed partition
    loses exactly that property -- an adversary that can afford ``length``
    consecutive jams denies every ``C^i_3`` forever.  Returns a callable
    with the same signature (and the same memoisation) as
    :func:`interval_of_slot`.
    """
    if length < 1:
        raise ConfigurationError(f"length must be >= 1, got {length}")

    @lru_cache(maxsize=_LOCATOR_CACHE)
    def locate(slot: int) -> IntervalId | None:
        if slot < 0:
            raise ConfigurationError(f"slot must be >= 0, got {slot}")
        interval_index = slot // length
        return IntervalId(
            i=interval_index // 3 + 1,
            j=interval_index % 3 + 1,
            offset=slot % length,
            length=length,
        )

    return locate
