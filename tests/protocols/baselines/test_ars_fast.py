"""Cross-validation of the vectorized ARS simulator against the
per-station ARSMACStation implementation: election times in election
mode, per-half throughput in the plain-MAC (no-halt) mode."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.adversary.adaptive import SingleSuppressor
from repro.adversary.base import Adversary
from repro.adversary.suite import make_adversary
from repro.errors import ConfigurationError
from repro.protocols.baselines.ars_fast import simulate_ars_fast
from repro.protocols.baselines.ars_mac import ARSMACStation, ars_gamma
from repro.sim.engine import simulate_stations
from repro.types import CDMode

N = 48
T = 8
EPS = 0.5
GAMMA = ars_gamma(N, T)


def fast_times(adversary, reps=80):
    out = []
    for seed in range(reps):
        result = simulate_ars_fast(
            N,
            GAMMA,
            make_adversary(adversary, T=T, eps=EPS),
            max_slots=500_000,
            seed=seed,
        )
        assert result.elected
        out.append(result.slots)
    return np.asarray(out, dtype=float)


def faithful_times(adversary, reps=80):
    out = []
    for seed in range(reps):
        stations = [ARSMACStation(GAMMA) for _ in range(N)]
        result = simulate_stations(
            stations,
            adversary=make_adversary(adversary, T=T, eps=EPS),
            cd_mode=CDMode.STRONG,
            max_slots=500_000,
            seed=20_000 + seed,
            stop_on_first_single=True,
        )
        assert result.elected
        out.append(result.slots)
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize("adversary", ["none", "saturating"])
def test_distributions_agree(adversary):
    fast = fast_times(adversary)
    faithful = faithful_times(adversary)
    ks = stats.ks_2samp(fast, faithful)
    assert ks.pvalue > 1e-4, (
        f"ARS fast vs faithful diverge under {adversary}: p={ks.pvalue:.2e}, "
        f"medians {np.median(fast):.0f} vs {np.median(faithful):.0f}"
    )


#: The plain MAC's law rows: each run's throughput (clear Singles per
#: clear slot) in its first and its second half, and its jam count.
MAC_N = 16
MAC_SLOTS = 600
MAC_REPS = 60
#: The MAC keeps P[Single] above the registry single-suppressor's 0.01
#: threshold, so that strategy wants every slot, like saturating.  At 0.35
#: it wants about half of them, and which half follows the probed ``p``.
MAC_ADVERSARIES = {
    "saturating": lambda: make_adversary("saturating", T=T, eps=EPS),
    "single-suppressor-0.35": lambda: Adversary(SingleSuppressor(0.35), T=T, eps=EPS),
}


def half_throughputs(trace) -> tuple[float, float]:
    clear = ~trace.jammed_array()
    singles = (trace.true_states_array() == 1) & clear
    half = len(clear) // 2
    return tuple(
        singles[part].sum() / max(1, clear[part].sum())
        for part in (slice(None, half), slice(half, None))
    )


def mac_runs(engine: str, adversary: str) -> np.ndarray:
    """``(MAC_REPS, 3)``: per-half throughputs and jams of no-halt MAC runs."""
    gamma = ars_gamma(MAC_N, T)
    out = []
    for seed in range(MAC_REPS):
        adv = MAC_ADVERSARIES[adversary]()
        if engine == "fast":
            result = simulate_ars_fast(
                MAC_N, gamma, adv, max_slots=MAC_SLOTS, seed=seed,
                record_trace=True, halt_on_single=False,
            )
        else:
            result = simulate_stations(
                [ARSMACStation(gamma, terminate_on_single=False) for _ in range(MAC_N)],
                adversary=adv,
                cd_mode=CDMode.STRONG,
                max_slots=MAC_SLOTS,
                seed=30_000 + seed,
                record_trace=True,
                stop_when_all_done=False,
            )
        assert result.slots == MAC_SLOTS and not result.elected
        out.append((*half_throughputs(result.trace), result.jams))
    return np.asarray(out)


@pytest.mark.parametrize("adversary", sorted(MAC_ADVERSARIES))
def test_no_halt_throughput_agrees(adversary):
    fast = mac_runs("fast", adversary)
    faithful = mac_runs("faithful", adversary)
    names = ("first-half throughput", "second-half throughput", "jam count")
    for column, name in enumerate(names):
        ks = stats.ks_2samp(fast[:, column], faithful[:, column])
        assert ks.pvalue > 1e-4, (
            f"no-halt ARS {name} diverges under {adversary}: "
            f"p={ks.pvalue:.2e}, means {fast[:, column].mean():.3f} vs "
            f"{faithful[:, column].mean():.3f}"
        )


def test_validation():
    adv = make_adversary("none", T=4, eps=0.5)
    with pytest.raises(ConfigurationError):
        simulate_ars_fast(0, 0.1, adv, 10)
    with pytest.raises(ConfigurationError):
        simulate_ars_fast(4, 0.0, adv, 10)
    with pytest.raises(ConfigurationError):
        simulate_ars_fast(4, 0.1, adv, 0)


def test_leader_and_reproducibility():
    adv = make_adversary("saturating", T=T, eps=EPS)
    a = simulate_ars_fast(N, GAMMA, adv, max_slots=500_000, seed=3)
    adv2 = make_adversary("saturating", T=T, eps=EPS)
    b = simulate_ars_fast(N, GAMMA, adv2, max_slots=500_000, seed=3)
    assert a.elected and 0 <= a.leader < N
    assert (a.slots, a.leader, a.jams) == (b.slots, b.leader, b.jams)
