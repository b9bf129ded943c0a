"""A6 -- the energy-vs-robustness frontier.

Section 1.3 leaves energy analysis open; reference [13] is the authors'
energy-efficient election line.  This experiment measures the frontier on
our substrate with three protocols and two environments:

* **LESK** -- jam-proof, but every station listens every slot: energy per
  station ~ slots ~ ``Theta(log n)``;
* **ARS [3]** -- also always-listening; energy ~ its (longer) runtime;
* **geometric-level tournament** (sleep-capable, [13]-style) -- energy per
  station ~ rounds ~ ``O(log log n)``, an order of magnitude below both,
  *on a quiet channel*;

and under the adaptive single-suppressor the tournament's public
confirmation schedule becomes a jamming target: success collapses while
LESK is unbothered.  Energy efficiency and jamming robustness pull in
opposite directions -- the measured version of why the paper's protocols
never sleep.

The quiet-channel LESK energy is per-station, so its cells run on the
vectorized faithful engine (:func:`replicate_vectorized` with
:class:`~repro.protocols.vector.VectorLESKPolicy`), which counts every
station's transmissions and listening slots; in strong CD without faults
the policy factory gets one column per replication, which the
replication's stations share.  The tournament columns run
:func:`simulate_geometric_fast` and the jammed LESK column the scalar
fast engine.  The confirmation jammer is a :class:`ConfirmationJammer`:
its want is a pure function of the slot, so the tournament grants the
sweep levels nobody drew as one block per round.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import Adversary, JammingStrategy
from repro.adversary.suite import make_adversary
from repro.adversary.vector import make_batched_adversary
from repro.core.config import default_slot_budget
from repro.core.election import elect_leader
from repro.experiments.harness import (
    Column,
    Table,
    preset_value,
    replicate,
    replicate_vectorized,
    summarize_times,
)
from repro.protocols.baselines.geometric_energy import confirmation_slots
from repro.protocols.baselines.geometric_fast import simulate_geometric_fast
from repro.protocols.vector import VectorLESKPolicy

EXPERIMENT = "A6"


class ConfirmationJammer(JammingStrategy):
    """Wants exactly the tournament's public confirmation slots below
    *horizon*; a pure function of the slot index, so it has a
    ``want_schedule`` and the tournament grants its idle sweep levels in
    blocks."""

    name = "confirmation-jammer"

    def __init__(self, horizon: int, initial_guess: int = 2) -> None:
        self._slots = np.array(
            sorted(confirmation_slots(initial_guess, horizon)), dtype=np.int64
        )

    def wants_jam(self, view, rng) -> bool:
        return bool(self.want_schedule(view.slot, 1)[0])

    def want_schedule(self, start: int, count: int) -> np.ndarray:
        lo, hi = np.searchsorted(self._slots, [start, start + count])
        wants = np.zeros(count, dtype=bool)
        wants[self._slots[lo:hi] - start] = True
        return wants


def _run_geometric(n: int, eps: float, T: int, adversary: str, seed: int, cap: int):
    if adversary == "confirmation-jammer":
        adv = Adversary(ConfirmationJammer(cap), T=T, eps=eps, seed=seed)
    else:
        adv = make_adversary(adversary, T=T, eps=eps)
    return simulate_geometric_fast(n, adv, max_slots=cap, seed=seed)


def run(preset: str = "small", seed: int = 2032) -> Table:
    """Run experiment A6 at *preset* scale and return its table."""
    ns = preset_value(preset, [64, 512], [64, 256, 1024, 4096])
    reps = preset_value(preset, 8, 40)
    eps, T = 0.4, 16
    cap = preset_value(preset, 30_000, 100_000)

    table = Table(
        name=EXPERIMENT,
        title="Energy-vs-robustness frontier (total energy/station incl. "
        f"listening; eps={eps}, T={T})",
        claim="Sleep-based energy efficiency ([13]-style) is antagonistic to "
        "jamming robustness; the paper's always-listening protocols pay "
        "energy for immunity",
        columns=[
            Column("n", "n"),
            Column("lesk_energy", "LESK e/stn", ".1f"),
            Column("geo_energy", "tournament e/stn", ".1f"),
            Column("saving", "saving x", ".1f"),
            Column("lesk_jam_success", "LESK success (jam)", ".3f"),
            Column("geo_jam_success", "tournament success (jam)", ".3f"),
            Column("geo_confirm_success", "tournament success (confirm-jam)", ".3f"),
        ],
    )
    for ni, n in enumerate(ns):
        lesk_quiet = replicate_vectorized(
            lambda width: VectorLESKPolicy(eps, width),
            n,
            lambda r: make_batched_adversary("none", T=T, eps=eps, reps=r),
            reps,
            seed,
            18,
            ni,
            0,
            max_slots=default_slot_budget(n, eps, T),
        )
        geo_quiet = replicate(
            lambda s: _run_geometric(n, eps, T, "none", s, cap), reps, seed, 18, ni, 1
        )
        lesk_jam = replicate(
            lambda s: elect_leader(
                n=n, protocol="lesk", eps=eps, T=T, adversary="single-suppressor",
                seed=s,
            ),
            reps,
            seed,
            18,
            ni,
            2,
        )
        geo_jam = replicate(
            lambda s: _run_geometric(n, eps, T, "single-suppressor", s, cap),
            reps,
            seed,
            18,
            ni,
            3,
        )
        geo_confirm = replicate(
            lambda s: _run_geometric(n, eps, T, "confirmation-jammer", s, cap),
            reps,
            seed,
            18,
            ni,
            4,
        )
        lesk_e = float(
            np.mean(
                [
                    r.energy.transmissions_per_station(n)
                    + r.energy.listening_per_station(n)
                    for r in lesk_quiet
                ]
            )
        )
        geo_e = float(
            np.mean(
                [
                    r.energy.transmissions_per_station(n)
                    + r.energy.listening_per_station(n)
                    for r in geo_quiet
                ]
            )
        )
        table.add_row(
            n=n,
            lesk_energy=lesk_e,
            geo_energy=geo_e,
            saving=lesk_e / max(geo_e, 1e-9),
            lesk_jam_success=summarize_times(lesk_jam)["success_rate"],
            geo_jam_success=summarize_times(geo_jam)["success_rate"],
            geo_confirm_success=summarize_times(geo_confirm)["success_rate"],
        )
    table.add_note(
        f"quiet-channel energy; jammed columns report success within {cap} "
        "slots.  'jam' = single-suppressor (generic adaptive); 'confirm-jam' "
        "= a strategy that precomputes the tournament's public confirmation "
        "slots and jams exactly those -- sparse enough that the budget grants "
        "every one, denying election outright"
    )
    return table


if __name__ == "__main__":
    print(run("small").render())
