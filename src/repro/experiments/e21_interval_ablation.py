"""A9 -- ablation: why Notification's intervals must double.

Function 4 runs over intervals ``C^i_j`` of size ``2^i`` so that, for any
*unknown* ``T``, some interval eventually exceeds ``T`` -- at which point
the adversary cannot jam all of it and the leader's ``C_3`` announcement
gets through.  This ablation swaps in a fixed-size partition (every
interval ``L`` slots) and races both against a "C3 killer": a strategy
that requests a jam in every ``C_3`` slot of the partition in use.  With
``L``-sized intervals at density 1/3, the budget *grants* all those jams
whenever ``1/3 <= 1 - eps`` and ``L <= (1-eps) T`` -- the fixed variant can
never notify its leader and fails 100% of runs.  The doubling variant is
clamped as soon as ``2^i > (1-eps) T`` and succeeds.

(The doubling also serves a second, quieter purpose: it grants ``A``
ever-longer *uninterrupted* executions, needed since ``t(n)`` is unknown
too.  ``L`` is chosen large enough here to isolate the jamming effect.)

Each cell runs its replications per station on the vectorized faithful
engine, with :class:`~repro.protocols.vector.VectorNotificationPolicy` on
the partition in use and the C3 killer as a vector strategy.  The scalar
:func:`_c3_killer` is the reference the conformance tests run on the
faithful engine.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import as_strategy
from repro.adversary.vector import (
    BatchedAdversary,
    VectorJammingStrategy,
    VectorNoJamming,
)
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    replicate_vectorized,
    summarize_times,
)
from repro.protocols.intervals import fixed_partition, interval_of_slot
from repro.protocols.vector import VectorLESKPolicy, VectorNotificationPolicy
from repro.types import CDMode

EXPERIMENT = "A9"


def _c3_killer(partition) -> object:
    """Strategy requesting a jam in every C_3 slot of *partition*."""

    def wants(view, rng):
        iv = partition(view.slot)
        return iv is not None and iv.j == 3

    return as_strategy(wants, "c3-killer")


class VectorC3Killer(VectorJammingStrategy):
    """:func:`_c3_killer` for a batch: every replication requests a jam
    exactly in the C_3 slots of *partition*.  The wants are a pure
    function of the slot, so the strategy has a ``want_schedule`` and the
    vectorized engine grants them a block at a time."""

    name = "c3-killer"
    uses_protocol_u = False

    def __init__(self, partition) -> None:
        self.partition = partition

    def _wants(self, slot: int) -> bool:
        iv = self.partition(slot)
        return iv is not None and iv.j == 3

    def wants_jam_batch(self, view, rng):
        return np.full(view.reps, self._wants(view.slot))

    def want_schedule(self, start, count, view=None):
        return np.fromiter(
            map(self._wants, range(start, start + count)), dtype=bool, count=count
        )


def _run(n, eps, T, partition, jam: bool, reps: int, seed: int, path, cap: int):
    strategy = VectorC3Killer(partition) if jam else VectorNoJamming()
    return replicate_vectorized(
        lambda width: VectorNotificationPolicy(
            lambda w: VectorLESKPolicy(eps, w), width, partition=partition
        ),
        n,
        lambda r: BatchedAdversary(strategy, T=T, eps=eps, reps=r),
        reps,
        seed,
        *path,
        max_slots=cap,
        cd_mode=CDMode.WEAK,
    )


def run(preset: str = "small", seed: int = 2035) -> Table:
    """Run experiment A9 at *preset* scale and return its table."""
    n = 10
    eps = 0.5
    T = 512
    L = 256  # fixed interval size: comfortably above t(n), below (1-eps)T
    reps = preset_value(preset, 8, 40)
    cap = preset_value(preset, 12_000, 40_000)

    table = Table(
        name=EXPERIMENT,
        title=f"Ablation: doubling vs fixed Notification intervals "
        f"(n={n}, eps={eps}, T={T}, fixed L={L})",
        claim="Sec 3: 'for i >= log2 T, the adversary cannot jam the entire "
        "interval' -- remove the doubling and a C3-targeting jammer denies "
        "election forever",
        columns=[
            Column("partition", "partition"),
            Column("environment", "environment"),
            Column("success_rate", "success", ".3f"),
            Column("median_slots", "median slots", ".0f"),
            Column("jams_granted", "jams granted", ".0f"),
        ],
    )
    partitions = {"doubling (paper)": interval_of_slot, f"fixed L={L}": fixed_partition(L)}
    for pi, (pname, partition) in enumerate(partitions.items()):
        for ji, jam in enumerate([False, True]):
            results = _run(n, eps, T, partition, jam, reps, seed, (21, pi, ji), cap)
            stats = summarize_times(results)
            table.add_row(
                partition=pname,
                environment="C3-killer jammer" if jam else "quiet",
                success_rate=stats["success_rate"],
                median_slots=stats["median_slots"],
                jams_granted=sum(r.jams for r in results) / len(results),
            )
    table.add_note(
        f"the C3 killer requests a jam in every C_3 slot of the partition in "
        f"use; with fixed L={L} <= (1-eps)T = {int((1 - eps) * T)} every request is "
        "granted (the leader can never announce), while the doubling partition "
        "outgrows the budget and recovers"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
