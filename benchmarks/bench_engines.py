"""Micro-benchmarks of the simulation engines themselves.

Quantifies the guide-recommended algorithmic optimization: the fast engine
samples the transmitter count ``k ~ Binomial(n, p)`` per slot (O(1) in n),
while the faithful engine flips one coin per station per slot (O(n)).
Both are benchmarked on identical LESK workloads, plus the budget
enforcement hot path.

Run as a script to emit a machine-readable throughput document::

    python benchmarks/bench_engines.py --emit-json BENCH_engines.json

The JSON carries the environment fingerprint (python/numpy/platform/git
sha) and per-engine slots/sec; ``benchmarks/bench_telemetry.py`` reads the
batched number back as the disabled-overhead baseline.

Script mode also enforces the resilience hooks-off gate: with fault
injection and auditing disabled (``faults=None`` / ``faults=NO_FAULTS``,
``auditor=None``), the fast engine's only residue is a handful of
``is not None`` guards per slot, and the median per-pair difference
between the two disabled call shapes must stay within 2% (5% in
``--smoke`` mode).  The shard-supervision gate is measured the same way
(:func:`_paired_overhead`): ``run_cells_sharded(..., jobs=1)`` on the
block supervisor against a plain loop over the same ``blocks_for``
rep-blocks.  Two throughput floors hold the vectorized faithful engine
to the scalar faithful engine on the same model, one per policy layout:
shared columns (strong-CD LESK) and per-station columns (weak-CD
Notification).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

from repro.adversary.budget import JammingBudget
from repro.adversary.suite import make_adversary
from repro.adversary.vector import make_batched_adversary
from repro.core.config import ElectionConfig, default_slot_budget
from repro.core.election import make_protocol_stations
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import (
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNotificationPolicy,
)
from repro.resilience.faults import NO_FAULTS
from repro.sim.batched import simulate_uniform_batched
from repro.sim.engine import simulate_stations
from repro.sim.fast import simulate_uniform_fast
from repro.sim.megakernel import simulate_uniform_megakernel
from repro.sim.vectorized import simulate_stations_vectorized
from repro.types import CDMode

N = 512
EPS = 0.5
T = 32

#: The megakernel gate pair runs the oblivious LESK R=256 workload in the
#: heavy-jamming regime (the adversary may jam a ``1 - MEGA_EPS`` = 3/4
#: share of every window).  At ``eps=0.5`` elections resolve in ~170
#: slots, jam runs are short, and both engines sit on the same per-sample
#: RNG floor, so the fused jam-run draws the megakernel exists for barely
#: register; at ``eps=0.25`` jamming stretches elections ~2.5x and the
#: megakernel's one-call-per-run draws pull ahead of the batched engine's
#: per-slot dispatch.
MEGA_EPS = 0.25

#: Heavy-tail adaptive cell of the ``batched-compaction`` row: LESU against
#: the single-suppressor jammer has a long retirement tail, so packing the
#: retired columns out is where compaction pays.
COMPACT_N = 64
COMPACT_T = 8
COMPACT_SEED = 2026

#: Maximum tolerated resilience hooks-off overhead (percent) at full size.
RESILIENCE_GATE_PCT = 2.0
#: The relaxed hooks-off gate for CI smoke runs on shared hardware.
SMOKE_RESILIENCE_GATE_PCT = 5.0
#: Minimum batched/scalar throughput ratio on the adaptive-adversary
#: workload (below the oblivious path's 5x: the per-slot observe_outcomes
#: feedback is batched-side-only work).
ADAPTIVE_SPEEDUP_FLOOR = 4.0
#: Minimum vectorized-faithful/scalar-faithful throughput ratio at n=512
#: on strong-CD LESK, where the stations of a replication share one policy
#: column (the fidelity-gap closure this engine exists for), and its
#: relaxed CI smoke floor.
VECTORIZED_SPEEDUP_FLOOR = 50.0
SMOKE_VECTORIZED_SPEEDUP_FLOOR = 25.0
#: The same ratio for the per-station layout (one policy column per
#: station: weak CD, churn and skew), on weak-CD Notification at n=512.
#: Three runs on a 2-vCPU Xeon VM read 84-110x at R=32 and 47-55x at the
#: smoke width R=8; the floor is under half the lowest full-width reading,
#: and the smoke floor half of that.
PER_STATION_SPEEDUP_FLOOR = 40.0
SMOKE_PER_STATION_SPEEDUP_FLOOR = 20.0
#: Minimum megakernel/batched throughput ratio on the heavy-jamming
#: oblivious LESK workload (the ``batched-heavy`` row), and its relaxed CI
#: smoke floor.  The batched engine always compacts and draws at the live
#: width, so what the megakernel still removes is per-slot dispatch: it
#: measures 2.6-2.8x here (3.4-4.2x against the uncompacted full-width loop
#: the batched engine ran before it had a single stream).  The floors
#: keep a margin below that for shared hardware; at smoke width R=64 the
#: per-call RNG overhead -- identical in both engines -- is a larger share
#: of both rows, compressing the ratio further.
MEGAKERNEL_SPEEDUP_FLOOR = 2.0
SMOKE_MEGAKERNEL_SPEEDUP_FLOOR = 1.5
#: Maximum tolerated shard-supervision overhead (percent): the supervised
#: block scheduler's accounting (task state, retry bookkeeping, checkpoint
#: key hashing off) versus a plain in-process loop over the same blocks.
SHARD_GATE_PCT = 2.0
SMOKE_SHARD_GATE_PCT = 5.0
#: Lines of cumulative-time profile kept per engine row by ``--profile``.
PROFILE_TOP = 20


def test_fast_engine_lesk(benchmark):
    def run():
        adv = make_adversary("saturating", T=T, eps=EPS)
        return simulate_uniform_fast(
            LESKPolicy(EPS), n=N, adversary=adv, max_slots=100_000, seed=11
        )

    result = benchmark(run)
    assert result.elected


def test_faithful_engine_lesk(benchmark):
    def run():
        config = ElectionConfig(n=N, protocol="lesk", eps=EPS, T=T)
        stations = make_protocol_stations(config)
        adv = make_adversary("saturating", T=T, eps=EPS)
        return simulate_stations(
            stations,
            adversary=adv,
            cd_mode=CDMode.STRONG,
            max_slots=100_000,
            seed=11,
            stop_on_first_single=True,
        )

    result = benchmark(run)
    assert result.elected


@pytest.mark.parametrize("want_rate", [0.0, 0.5, 1.0])
def test_budget_grant_throughput(benchmark, want_rate):
    """The O(1)/slot claim of the (T, 1-eps) budget enforcement."""
    slots = 50_000

    def run():
        budget = JammingBudget(T=64, eps=0.3)
        period = max(1, int(1 / want_rate)) if want_rate else 0
        granted = 0
        for t in range(slots):
            want = bool(period) and (t % period == 0)
            granted += budget.grant(want)
        return granted

    benchmark(run)


def test_fast_notification_engine(benchmark):
    from repro.protocols.lesk import LESKPolicy
    from repro.sim.fast_notification import simulate_notification_fast

    def run():
        adv = make_adversary("saturating", T=T, eps=EPS)
        return simulate_notification_fast(
            lambda: LESKPolicy(EPS), n=N, adversary=adv, max_slots=200_000, seed=11
        )

    result = benchmark(run)
    assert result.elected


def test_ars_fast_engine(benchmark):
    from repro.protocols.baselines.ars_fast import simulate_ars_fast
    from repro.protocols.baselines.ars_mac import ars_gamma

    def run():
        adv = make_adversary("saturating", T=T, eps=EPS)
        return simulate_ars_fast(
            N, ars_gamma(N, T), adv, max_slots=1_000_000, seed=11
        )

    result = benchmark(run)
    assert result.elected


def test_batched_engine_lesk(benchmark):
    """One call electing R=256 replications in lockstep."""

    def run():
        return simulate_uniform_batched(
            lambda reps: VectorLESKPolicy(EPS, reps),
            N,
            lambda reps: make_batched_adversary("saturating", T=T, eps=EPS, reps=reps),
            reps=256,
            max_slots=100_000,
            root_seed=11,
        )

    batch = benchmark(run)
    assert batch.elected.all()


def test_megakernel_engine_lesk(benchmark):
    """The slot-blocked engine on the heavy-jamming gate workload."""

    def run():
        return simulate_uniform_megakernel(
            lambda reps: VectorLESKPolicy(MEGA_EPS, reps),
            N,
            lambda reps: make_batched_adversary(
                "saturating", T=T, eps=MEGA_EPS, reps=reps
            ),
            reps=256,
            max_slots=100_000,
            root_seed=11,
        )

    batch = benchmark(run)
    assert batch.elected.all()


def test_megakernel_vs_batched_throughput():
    """The megakernel must deliver >= MEGAKERNEL_SPEEDUP_FLOOR replication
    throughput over the batched per-slot engine on the heavy-jamming
    oblivious LESK R=256 workload (the script-mode megakernel gate enforces
    the same floor on the emitted rows)."""
    reps = 256

    def batched_call():
        return simulate_uniform_batched(
            lambda r: VectorLESKPolicy(MEGA_EPS, r),
            N,
            lambda r: make_batched_adversary(
                "saturating", T=T, eps=MEGA_EPS, reps=r
            ),
            reps=reps,
            max_slots=100_000,
            root_seed=11,
        )

    def megakernel_call():
        return simulate_uniform_megakernel(
            lambda r: VectorLESKPolicy(MEGA_EPS, r),
            N,
            lambda r: make_batched_adversary(
                "saturating", T=T, eps=MEGA_EPS, reps=r
            ),
            reps=reps,
            max_slots=100_000,
            root_seed=11,
        )

    batched_call(), megakernel_call()  # warm-up: allocator pools
    batched_s = megakernel_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        batch = batched_call()
        batched_s = min(batched_s, time.perf_counter() - start)
        start = time.perf_counter()
        mega = megakernel_call()
        megakernel_s = min(megakernel_s, time.perf_counter() - start)

    assert mega.elected.all()
    assert batch.elected.all()
    speedup = batched_s / megakernel_s
    print(
        f"\nR={reps}, n={N}, eps={MEGA_EPS}, saturating: batched "
        f"{batched_s:.3f}s, megakernel {megakernel_s:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MEGAKERNEL_SPEEDUP_FLOOR, (
        f"megakernel only {speedup:.1f}x faster than batched "
        f"({batched_s:.3f}s vs {megakernel_s:.3f}s); acceptance floor "
        f"is {MEGAKERNEL_SPEEDUP_FLOOR:.1f}x"
    )


def test_vectorized_faithful_engine_lesk(benchmark):
    """R=16 strong-CD faithful replications, one policy column each."""

    def run():
        return simulate_stations_vectorized(
            lambda w: VectorLESKPolicy(EPS, w),
            N,
            lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
            reps=16,
            max_slots=100_000,
            root_seed=11,
        )

    batch = benchmark(run)
    assert batch.elected.all()


def test_batched_vs_scalar_throughput():
    """The batched engine must deliver >= 5x replication throughput over a
    scalar-fast loop on the same R=256 LESK workload (acceptance criterion;
    measured numbers are printed for the docs table)."""
    reps = 256

    start = time.perf_counter()
    for seed in range(reps):
        simulate_uniform_fast(
            LESKPolicy(EPS),
            n=N,
            adversary=make_adversary("saturating", T=T, eps=EPS),
            max_slots=100_000,
            seed=seed,
        )
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = simulate_uniform_batched(
        lambda r: VectorLESKPolicy(EPS, r),
        N,
        lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
        reps=reps,
        max_slots=100_000,
        root_seed=11,
    )
    batched_s = time.perf_counter() - start

    assert batch.elected.all()
    speedup = scalar_s / batched_s
    print(
        f"\nR={reps}, n={N}, saturating: scalar {scalar_s:.3f}s, "
        f"batched {batched_s:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"batched engine only {speedup:.1f}x faster than scalar "
        f"({scalar_s:.3f}s vs {batched_s:.3f}s); acceptance floor is 5x"
    )


def test_batched_adaptive_vs_scalar_throughput():
    """The adaptive-adversary batched path (history-conditioned vector
    strategies + observe_outcomes feedback) must deliver >= 4x replication
    throughput over the scalar-fast loop on the same R=256 workload.  The
    floor is below the oblivious path's 5x because the adversary feedback
    hook adds per-slot work on the batched side only."""
    reps = 256
    adversary = "single-suppressor"

    start = time.perf_counter()
    for seed in range(reps):
        simulate_uniform_fast(
            LESKPolicy(EPS),
            n=N,
            adversary=make_adversary(adversary, T=T, eps=EPS),
            max_slots=100_000,
            seed=seed,
        )
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = simulate_uniform_batched(
        lambda r: VectorLESKPolicy(EPS, r),
        N,
        lambda r: make_batched_adversary(adversary, T=T, eps=EPS, reps=r),
        reps=reps,
        max_slots=100_000,
        root_seed=11,
    )
    batched_s = time.perf_counter() - start

    assert batch.elected.all()
    speedup = scalar_s / batched_s
    print(
        f"\nR={reps}, n={N}, {adversary}: scalar {scalar_s:.3f}s, "
        f"batched {batched_s:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= 4.0, (
        f"batched adaptive-adversary path only {speedup:.1f}x faster than "
        f"scalar ({scalar_s:.3f}s vs {batched_s:.3f}s); acceptance floor is 4x"
    )


def test_geometric_fast_engine(benchmark):
    from repro.protocols.baselines.geometric_fast import simulate_geometric_fast

    def run():
        adv = make_adversary("none", T=T, eps=EPS)
        return simulate_geometric_fast(N, adv, max_slots=100_000, seed=11)

    result = benchmark(run)
    assert result.elected


# -- machine-readable emission (script mode) -------------------------------


def measure_throughput(reps: int = 64, repeats: int = 3) -> dict:
    """Per-engine slots/sec on the shared saturating-LESK workload."""
    from bench_common import best_of

    results: dict[str, dict] = {}

    def fast_loop():
        total = 0
        for seed in range(reps):
            total += simulate_uniform_fast(
                LESKPolicy(EPS),
                n=N,
                adversary=make_adversary("saturating", T=T, eps=EPS),
                max_slots=100_000,
                seed=seed,
            ).slots
        return total

    elapsed, slots = best_of(fast_loop, repeats)
    results["fast"] = {
        "reps": reps,
        "slots": int(slots),
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(slots / elapsed, 1),
    }

    def faithful_loop():
        faithful_reps = max(1, reps // 16)  # O(n)/slot: keep the loop short
        total = 0
        for seed in range(faithful_reps):
            config = ElectionConfig(n=N, protocol="lesk", eps=EPS, T=T)
            total += simulate_stations(
                make_protocol_stations(config),
                adversary=make_adversary("saturating", T=T, eps=EPS),
                cd_mode=CDMode.STRONG,
                max_slots=100_000,
                seed=seed,
                stop_on_first_single=True,
            ).slots
        return total

    elapsed, slots = best_of(faithful_loop, repeats)
    results["faithful"] = {
        "reps": max(1, reps // 16),
        "slots": int(slots),
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(slots / elapsed, 1),
    }

    # Vectorized faithful on the scalar faithful row's model: strong-CD
    # LESK without faults, where the n stations of a replication hear the
    # same feedback and share one policy column, with the saturating
    # jammer granted a draw block at a time.  The row pair the >= 50x
    # fidelity-gap gate compares.
    vec_reps = max(4, reps // 2)

    def vectorized_call():
        return simulate_stations_vectorized(
            lambda w: VectorLESKPolicy(EPS, w),
            N,
            lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
            reps=vec_reps,
            max_slots=100_000,
            root_seed=11,
        )

    elapsed, batch = best_of(vectorized_call, repeats)
    batch_slots = int(batch.slots.sum())
    results["vectorized-faithful"] = {
        "reps": vec_reps,
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }

    # The per-station pair: weak-CD Notification (T6, A9), where a
    # replication's stations hear different feedback, so the vectorized
    # engine steps one policy column per station (its saturating jams
    # granted a draw block at a time), against the scalar
    # faithful engine on the same model (one run: ~2.5 s at n=512).
    def faithful_weak_loop():
        config = ElectionConfig(n=N, protocol="lewk", eps=EPS, T=T)
        return simulate_stations(
            make_protocol_stations(config),
            adversary=make_adversary("saturating", T=T, eps=EPS),
            cd_mode=CDMode.WEAK,
            max_slots=200_000,
            seed=0,
        ).slots

    elapsed, slots = best_of(faithful_weak_loop, repeats)
    results["faithful-weak"] = {
        "reps": 1,
        "slots": int(slots),
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(slots / elapsed, 1),
    }

    def per_station_call():
        return simulate_stations_vectorized(
            lambda w: VectorNotificationPolicy(lambda x: VectorLESKPolicy(EPS, x), w),
            N,
            lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
            reps=vec_reps,
            max_slots=200_000,
            root_seed=11,
            cd_mode=CDMode.WEAK,
        )

    elapsed, batch = best_of(per_station_call, repeats)
    batch_slots = int(batch.slots.sum())
    results["vectorized-per-station"] = {
        "reps": vec_reps,
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }

    def batched_call():
        return simulate_uniform_batched(
            lambda r: VectorLESKPolicy(EPS, r),
            N,
            lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
            reps=4 * reps,
            max_slots=100_000,
            root_seed=11,
        )

    elapsed, batch = best_of(batched_call, repeats)
    batch_slots = int(batch.slots.sum())
    results["batched"] = {
        "reps": 4 * reps,
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }

    # Megakernel gate pair: the slot-blocked engine against the per-slot
    # batched engine, both on the same heavy-jamming oblivious workload
    # (MEGA_EPS) so the ratio is engine-only.
    def batched_heavy_call():
        return simulate_uniform_batched(
            lambda r: VectorLESKPolicy(MEGA_EPS, r),
            N,
            lambda r: make_batched_adversary(
                "saturating", T=T, eps=MEGA_EPS, reps=r
            ),
            reps=4 * reps,
            max_slots=100_000,
            root_seed=11,
        )

    elapsed, batch = best_of(batched_heavy_call, repeats)
    batch_slots = int(batch.slots.sum())
    results["batched-heavy"] = {
        "reps": 4 * reps,
        "eps": MEGA_EPS,
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }

    def megakernel_call():
        return simulate_uniform_megakernel(
            lambda r: VectorLESKPolicy(MEGA_EPS, r),
            N,
            lambda r: make_batched_adversary(
                "saturating", T=T, eps=MEGA_EPS, reps=r
            ),
            reps=4 * reps,
            max_slots=100_000,
            root_seed=11,
        )

    elapsed, batch = best_of(megakernel_call, repeats)
    batch_slots = int(batch.slots.sum())
    results["megakernel"] = {
        "reps": 4 * reps,
        "eps": MEGA_EPS,
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }

    # Adaptive-adversary pair: same LESK workload, but the jammer
    # conditions on history (single-suppressor), exercising the vectorized
    # strategy + observe_outcomes feedback on the batched side.
    adaptive = "single-suppressor"

    def fast_adaptive_loop():
        total = 0
        for seed in range(reps):
            total += simulate_uniform_fast(
                LESKPolicy(EPS),
                n=N,
                adversary=make_adversary(adaptive, T=T, eps=EPS),
                max_slots=100_000,
                seed=seed,
            ).slots
        return total

    elapsed, slots = best_of(fast_adaptive_loop, repeats)
    results["fast-adaptive"] = {
        "reps": reps,
        "adversary": adaptive,
        "slots": int(slots),
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(slots / elapsed, 1),
    }

    def batched_adaptive_call():
        return simulate_uniform_batched(
            lambda r: VectorLESKPolicy(EPS, r),
            N,
            lambda r: make_batched_adversary(adaptive, T=T, eps=EPS, reps=r),
            reps=4 * reps,
            max_slots=100_000,
            root_seed=11,
        )

    elapsed, batch = best_of(batched_adaptive_call, repeats)
    batch_slots = int(batch.slots.sum())
    results["batched-adaptive"] = {
        "reps": 4 * reps,
        "adversary": adaptive,
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }

    # Dead-rep compaction row: the heavy-tail adaptive cell where most
    # columns retire early but a long tail keeps the batch alive, so the
    # per-slot width reduction is the whole story.  Fixed at 256 columns
    # even in smoke mode: below ~100 columns the per-slot dispatch floor
    # hides the width reduction.
    compact_reps = 256
    elapsed, batch = best_of(lambda: _compaction_cell(compact_reps), repeats)
    batch_slots = int(batch.slots.sum())
    results["batched-compaction"] = {
        "reps": compact_reps,
        "n": COMPACT_N,
        "adversary": adaptive,
        "policy": "lesu",
        "slots": batch_slots,
        "seconds": round(elapsed, 6),
        "slots_per_sec": round(batch_slots / elapsed, 1),
    }
    return results


def _compaction_cell(reps: int):
    return simulate_uniform_batched(
        VectorLESUPolicy,
        COMPACT_N,
        lambda r: make_batched_adversary(
            "single-suppressor", T=COMPACT_T, eps=EPS, reps=r
        ),
        reps=reps,
        max_slots=default_slot_budget(COMPACT_N, EPS, COMPACT_T),
        root_seed=COMPACT_SEED,
    )


def _paired_overhead(
    base: Callable[[], float], other: Callable[[], float], pairs: int
) -> tuple[float, float, float]:
    """Time *pairs* interleaved samples of two sides of an overhead gate.

    Each pair times both sides back to back, and the side that runs first
    alternates from pair to pair, so neither cache warming nor drift
    favours one side.  Returns the median *base* time, the median *other*
    time and the median per-pair overhead of *other* over *base* in
    percent.  A slow phase of a shared machine inflates both halves of
    the pairs it covers, and the median ignores the pairs it splits, so
    the gate reads the hooks rather than the neighbours.
    """
    base_s, other_s, overhead = [], [], []
    for i in range(max(1, pairs)):
        if i % 2 == 0:
            b = base()
            o = other()
        else:
            o = other()
            b = base()
        base_s.append(b)
        other_s.append(o)
        overhead.append(100.0 * (o - b) / b)
    return (
        statistics.median(base_s),
        statistics.median(other_s),
        statistics.median(overhead),
    )


def measure_resilience_overhead(reps: int = 48, pairs: int = 101) -> dict:
    """Time the fast engine's hooks-off path against itself.

    Both sides run with fault injection and auditing disabled: the
    baseline passes ``faults=None`` (the legacy call shape) and the other
    side passes ``faults=NO_FAULTS, auditor=None`` (a constructed but
    disabled model).  A disabled model spawns no RNG streams and realizes
    nothing, so the measured difference bounds the per-call entry checks
    plus timing noise -- exactly what the <= 2% hooks-off contract
    constrains.  Each sample is the CPU time of one *reps*-run loop, and
    the gate reads the median per-pair overhead (:func:`_paired_overhead`).
    """

    def loop(faults) -> int:
        total = 0
        for seed in range(reps):
            total += simulate_uniform_fast(
                LESKPolicy(EPS),
                n=N,
                adversary=make_adversary("saturating", T=T, eps=EPS),
                max_slots=100_000,
                seed=seed,
                faults=faults,
                auditor=None,
            ).slots
        return total

    def timed(faults) -> float:
        start = time.process_time()
        loop(faults)
        return time.process_time() - start

    slots = loop(None)  # warm-up: allocator pools, code paths
    baseline_s, hooks_off_s, overhead = _paired_overhead(
        lambda: timed(None), lambda: timed(NO_FAULTS), pairs
    )

    return {
        "workload": {
            "engine": "fast",
            "n": N,
            "reps": reps,
            "slots": slots,
            "adversary": "saturating",
        },
        "pairs": pairs,
        "baseline_s": round(baseline_s, 6),
        "hooks_off_s": round(hooks_off_s, 6),
        "overhead_pct": round(overhead, 3),
    }


def measure_shard_supervision_overhead(reps: int = 64, pairs: int = 101) -> dict:
    """Time the supervised sharded path against a plain loop.

    Both sides run in-process on identical LESK cells: the baseline calls
    ``run_shard`` on every ``(spec, block_index, block_reps)`` item of the
    ``blocks_for`` partition in a plain loop and regroups the results; the
    supervised side runs the same specs through
    ``run_cells_sharded(..., jobs=1, block_size=16)`` on the block
    supervisor.  The measured difference is pure supervision accounting
    (task state machine, retry bookkeeping, per-execution telemetry
    scoping) with no process-spawn noise -- exactly what the <= 2%
    supervised-overhead contract constrains.  Each sample is the CPU time
    of one sweep, and the gate reads the median per-pair overhead
    (:func:`_paired_overhead`).
    """
    from repro.experiments.cells import (
        CellSpec,
        blocks_for,
        run_cells_sharded,
        run_shard,
    )

    specs = [
        CellSpec(
            kind="lesk", n=N, eps=EPS, T=T, adversary="saturating",
            reps=reps, root_seed=17, path=(90, i),
        )
        for i in range(2)
    ]

    def sweep(supervised: bool):
        if supervised:
            return run_cells_sharded(specs, jobs=1, block_size=16)
        return [
            [r for b, size in enumerate(blocks_for(spec.reps, 16))
             for r in run_shard((spec, b, size))[0]]
            for spec in specs
        ]

    def timed(supervised: bool) -> float:
        start = time.process_time()
        sweep(supervised)
        return time.process_time() - start

    def key(cells):
        return [[(r.slots, r.elected) for r in cell] for cell in cells]

    results = sweep(False)  # warm-up: allocator pools
    assert [len(c) for c in results] == [reps, reps]
    assert key(sweep(True)) == key(results)
    plain_s, supervised_s, overhead = _paired_overhead(
        lambda: timed(False), lambda: timed(True), pairs
    )

    return {
        "workload": {
            "cells": len(specs),
            "n": N,
            "reps": reps,
            "block_size": 16,
            "adversary": "saturating",
        },
        "pairs": pairs,
        "plain_s": round(plain_s, 6),
        "supervised_s": round(supervised_s, 6),
        "overhead_pct": round(overhead, 3),
    }


def profile_engines(out_dir: Path, reps: int = 8) -> list[Path]:
    """cProfile one workload per engine row; top-20 cumulative each.

    Writes ``profile_<engine>.txt`` per row into *out_dir* -- small
    single-shot workloads (profiling overhead distorts absolute numbers;
    the call ranking is what the files are for).
    """
    import cProfile
    import io
    import pstats

    def fast_workload():
        for seed in range(reps):
            simulate_uniform_fast(
                LESKPolicy(EPS),
                n=N,
                adversary=make_adversary("saturating", T=T, eps=EPS),
                max_slots=100_000,
                seed=seed,
            )

    def faithful_workload():
        config = ElectionConfig(n=N, protocol="lesk", eps=EPS, T=T)
        simulate_stations(
            make_protocol_stations(config),
            adversary=make_adversary("saturating", T=T, eps=EPS),
            cd_mode=CDMode.STRONG,
            max_slots=100_000,
            seed=11,
            stop_on_first_single=True,
        )

    def batched_workload():
        simulate_uniform_batched(
            lambda r: VectorLESKPolicy(EPS, r),
            N,
            lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
            reps=8 * reps,
            max_slots=100_000,
            root_seed=11,
        )

    def vectorized_workload():
        simulate_stations_vectorized(
            lambda w: VectorLESKPolicy(EPS, w),
            N,
            lambda r: make_batched_adversary("saturating", T=T, eps=EPS, reps=r),
            reps=reps,
            max_slots=100_000,
            root_seed=11,
        )

    def megakernel_workload():
        simulate_uniform_megakernel(
            lambda r: VectorLESKPolicy(MEGA_EPS, r),
            N,
            lambda r: make_batched_adversary(
                "saturating", T=T, eps=MEGA_EPS, reps=r
            ),
            reps=8 * reps,
            max_slots=100_000,
            root_seed=11,
        )

    def compaction_workload():
        _compaction_cell(32 * reps)

    workloads = {
        "fast": fast_workload,
        "faithful": faithful_workload,
        "batched": batched_workload,
        "megakernel": megakernel_workload,
        "vectorized-faithful": vectorized_workload,
        "batched-compaction": compaction_workload,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, workload in workloads.items():
        profiler = cProfile.Profile()
        profiler.runcall(workload)
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP)
        path = out_dir / f"profile_{name.replace('-', '_')}.txt"
        path.write_text(buf.getvalue())
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    """Script entry point: time the engines and emit BENCH_engines.json."""
    from bench_common import write_bench_json

    parser = argparse.ArgumentParser(description="engine throughput emission")
    parser.add_argument(
        "--emit-json", type=str, default="BENCH_engines.json", metavar="PATH"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="reduced sizes for CI smoke"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each engine row (top-20 cumulative) into results/",
    )
    args = parser.parse_args(argv)

    if args.profile:
        out_dir = Path(__file__).resolve().parent.parent / "results"
        for path in profile_engines(out_dir, reps=4 if args.smoke else 8):
            print(f"wrote {path}")

    reps = 16 if args.smoke else 64
    repeats = 2 if args.smoke else 3
    results = measure_throughput(reps=reps, repeats=repeats)
    for engine, row in results.items():
        print(f"{engine:>16}: {row['slots_per_sec']:>12,.0f} slots/sec")

    adaptive_speedup = (
        results["batched-adaptive"]["slots_per_sec"]
        / results["fast-adaptive"]["slots_per_sec"]
    )
    results["adaptive_gate"] = {
        "adversary": results["batched-adaptive"]["adversary"],
        "speedup": round(adaptive_speedup, 2),
        "floor": ADAPTIVE_SPEEDUP_FLOOR,
    }
    print(
        f"batched adaptive-adversary speedup: {adaptive_speedup:.1f}x "
        f"(floor {ADAPTIVE_SPEEDUP_FLOOR:.0f}x)"
    )

    vectorized_floor = (
        SMOKE_VECTORIZED_SPEEDUP_FLOOR if args.smoke else VECTORIZED_SPEEDUP_FLOOR
    )
    vectorized_speedup = (
        results["vectorized-faithful"]["slots_per_sec"]
        / results["faithful"]["slots_per_sec"]
    )
    results["vectorized_gate"] = {
        "speedup": round(vectorized_speedup, 2),
        "floor": vectorized_floor,
        "smoke": args.smoke,
    }
    print(
        f"vectorized-faithful speedup: {vectorized_speedup:.1f}x "
        f"(floor {vectorized_floor:.0f}x)"
    )

    per_station_floor = (
        SMOKE_PER_STATION_SPEEDUP_FLOOR if args.smoke else PER_STATION_SPEEDUP_FLOOR
    )
    per_station_speedup = (
        results["vectorized-per-station"]["slots_per_sec"]
        / results["faithful-weak"]["slots_per_sec"]
    )
    results["per_station_gate"] = {
        "speedup": round(per_station_speedup, 2),
        "floor": per_station_floor,
        "vs": "faithful-weak",
        "smoke": args.smoke,
    }
    print(
        f"vectorized per-station speedup: {per_station_speedup:.1f}x "
        f"(floor {per_station_floor:.0f}x, weak-CD Notification)"
    )

    megakernel_floor = (
        SMOKE_MEGAKERNEL_SPEEDUP_FLOOR
        if args.smoke
        else MEGAKERNEL_SPEEDUP_FLOOR
    )
    megakernel_speedup = (
        results["megakernel"]["slots_per_sec"]
        / results["batched-heavy"]["slots_per_sec"]
    )
    results["megakernel_gate"] = {
        "speedup": round(megakernel_speedup, 2),
        "floor": megakernel_floor,
        "vs": "batched-heavy",
        "eps": MEGA_EPS,
        "smoke": args.smoke,
    }
    print(
        f"megakernel speedup: {megakernel_speedup:.1f}x "
        f"(floor {megakernel_floor:.1f}x, vs batched on eps={MEGA_EPS})"
    )

    gate = SMOKE_RESILIENCE_GATE_PCT if args.smoke else RESILIENCE_GATE_PCT
    resilience = measure_resilience_overhead(
        reps=16 if args.smoke else 48, pairs=61 if args.smoke else 101
    )
    resilience["gate_pct"] = gate
    resilience["smoke"] = args.smoke
    results["resilience_hooks_off"] = resilience
    print(
        f"resilience hooks-off: baseline {resilience['baseline_s']:.3f}s, "
        f"hooks off {resilience['hooks_off_s']:.3f}s "
        f"(median of {resilience['pairs']} pairs "
        f"{resilience['overhead_pct']:+.2f}%)"
    )
    shard_gate = SMOKE_SHARD_GATE_PCT if args.smoke else SHARD_GATE_PCT
    shard = measure_shard_supervision_overhead(
        reps=24 if args.smoke else 48, pairs=61 if args.smoke else 101
    )
    shard["gate_pct"] = shard_gate
    shard["smoke"] = args.smoke
    results["shard_supervision"] = shard
    print(
        f"shard supervision (jobs=1): plain loop {shard['plain_s']:.3f}s, "
        f"supervised {shard['supervised_s']:.3f}s "
        f"(median of {shard['pairs']} pairs {shard['overhead_pct']:+.2f}%)"
    )
    write_bench_json(args.emit_json, "bench_engines", results)

    failed = False
    if adaptive_speedup < ADAPTIVE_SPEEDUP_FLOOR:
        print(
            f"GATE FAILED: batched adaptive-adversary path only "
            f"{adaptive_speedup:.1f}x faster than scalar; floor is "
            f"{ADAPTIVE_SPEEDUP_FLOOR:.0f}x",
            file=sys.stderr,
        )
        failed = True
    else:
        print("batched adaptive-adversary gate passed")
    if vectorized_speedup < vectorized_floor:
        print(
            f"GATE FAILED: vectorized-faithful engine only "
            f"{vectorized_speedup:.1f}x faster than the scalar faithful "
            f"engine; floor is {vectorized_floor:.0f}x",
            file=sys.stderr,
        )
        failed = True
    else:
        print("vectorized-faithful gate passed")
    if per_station_speedup < per_station_floor:
        print(
            f"GATE FAILED: vectorized per-station layout only "
            f"{per_station_speedup:.1f}x faster than the scalar faithful "
            f"engine on weak-CD Notification; floor is "
            f"{per_station_floor:.0f}x",
            file=sys.stderr,
        )
        failed = True
    else:
        print("vectorized per-station gate passed")
    if megakernel_speedup < megakernel_floor:
        print(
            f"GATE FAILED: megakernel only {megakernel_speedup:.1f}x "
            f"faster than the batched engine on the heavy-jamming "
            f"oblivious workload; floor is {megakernel_floor:.1f}x",
            file=sys.stderr,
        )
        failed = True
    else:
        print("megakernel gate passed")
    if resilience["overhead_pct"] > gate:
        print(
            f"GATE FAILED: resilience hooks-off overhead "
            f"{resilience['overhead_pct']:.2f}% > {gate:.0f}%",
            file=sys.stderr,
        )
        failed = True
    else:
        print("resilience hooks-off gate passed")
    if shard["overhead_pct"] > shard_gate:
        print(
            f"GATE FAILED: shard supervision overhead "
            f"{shard['overhead_pct']:.2f}% > {shard_gate:.0f}%",
            file=sys.stderr,
        )
        failed = True
    else:
        print("shard supervision gate passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
