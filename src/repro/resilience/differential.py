"""Differential mode: scalar vs fast vs batched semantics in lockstep.

The three engines cannot be compared run-for-run -- they consume their RNG
streams differently (per-station coin flips vs one binomial draw vs a
batched binomial), so their bitstreams legitimately diverge.  What *must*
agree is the **semantics**: given the same transmitter counts, jam
decisions and fault corruption, the per-station adapter + feedback path,
the shared-state scalar policy, and the vectorized column policy have to
produce the same probabilities, observations and halting decisions slot by
slot.  This module runs exactly that comparison.

Each *stack* is one semantic implementation driven by a shared world:

* ``scalar``  -- real :class:`~repro.protocols.base.UniformStationAdapter`
  instances (one per station) fed scripted per-station uniforms, with
  :func:`~repro.channel.feedback.feedback_for` delivery and a scalar
  :class:`~repro.adversary.budget.JammingBudget`;
* ``fast``    -- one shared :class:`~repro.protocols.lesk.LESKPolicy`
  (the fast engine's semantics), same scalar budget class;
* ``vector``  -- a :class:`~repro.protocols.vector.VectorLESKPolicy` with
  ``reps=1`` and a :class:`~repro.adversary.budget.JammingBudgetArray`,
  with the batched engine's vectorized observation/corruption expressions;
* ``vectorized`` -- the vectorized *faithful* engine's semantics
  (:mod:`repro.sim.vectorized`): a width-``n`` vector policy, one column
  per station cell, per-cell transmit decisions ``U < p`` from the shared
  uniforms, and the engine's strong-CD observation/halting expressions;
* ``megakernel`` -- the slot-blocked engine's update arithmetic
  (:mod:`repro.sim.megakernel`): the ``_LESKLadder`` exponent state with
  its in-place ``exp2`` probability fast path, the LESK outcome fold
  (``_apply_lesk_outcomes``), and the collision-only fold, stepped
  one slot at a time so any drift between the fused block arithmetic and
  the per-slot policies diverges here.

The shared world fixes, per slot: one uniform per station (transmit iff
``U < p``, the adapters' own coupling), the churn/skew participation mask,
the fault corruption flags, and a jam-intent sequence that is a
*deterministic function of public history* -- either one of the scripted
patterns in :data:`DETERMINISTIC_ADVERSARIES`, or one of the suite's
adaptive strategies (:data:`ADAPTIVE_DIFFERENTIAL_ADVERSARIES`): those
condition only on the trace / protocol state and never draw randomness,
so the scalar stacks can host the real scalar
:class:`~repro.adversary.base.JammingStrategy` and the vector stack the
real :class:`~repro.adversary.vector.VectorJammingStrategy`, exercising
the scalar-vs-vector adversary pair in the same lockstep harness.
(*Randomized* strategies would entangle RNG streams and stay excluded.)
Every stack computes its own ``p``, its own jam intent, its own budget
grant and its own observed state; per-slot fingerprints are compared with
a small float tolerance (``np.exp2(-u)`` and ``2.0**-u`` may differ in
the last ulp).

:func:`run_differential` scans and reports the first divergence;
:func:`first_diverging_slot` binary-searches it by re-running prefixes
(the bisection advertised by the auditor's differential mode).  A
``tamper=(stack, slot)`` option deliberately corrupts one stack's
observation in one slot -- the self-test proving the checker detects real
divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.adversary.base import AdversaryView
from repro.adversary.budget import JammingBudget, JammingBudgetArray
from repro.adversary.suite import STRATEGY_REGISTRY
from repro.adversary.vector import BATCHED_STRATEGY_REGISTRY, BatchAdversaryView
from repro.channel.channel import resolve_slot
from repro.channel.faulty import corrupt_observed
from repro.channel.feedback import feedback_for
from repro.errors import ConfigurationError
from repro.protocols.base import UniformStationAdapter
from repro.protocols.lesk import LESKPolicy
from repro.protocols.vector import VectorLESKPolicy
from repro.resilience.faults import NO_FAULTS, FaultModel
from repro.rng import make_rng
from repro.types import Action, CDMode, ChannelState, PerceivedState, SlotFeedback

__all__ = [
    "DifferentialConfig",
    "SlotFingerprint",
    "Divergence",
    "DifferentialReport",
    "run_differential",
    "first_diverging_slot",
    "STACKS",
    "DETERMINISTIC_ADVERSARIES",
    "ADAPTIVE_DIFFERENTIAL_ADVERSARIES",
]

STACKS = ("scalar", "fast", "vector", "vectorized", "megakernel")

#: Scripted jam-intent patterns (slot -> want-jam); cover
#: never/always/periodic/bursty without any adversary state.  (The
#: "periodic-front" here is the local 4T-period script, not the suite's
#: Lemma 2.7 jammer -- the scripts are private to differential mode.)
DETERMINISTIC_ADVERSARIES = ("none", "saturating", "periodic-front", "burst")

#: Suite strategies usable in differential mode: the adaptive family is
#: deterministic given public history (no RNG draws), so each stack hosts
#: its own instance -- scalar strategies for the scalar/fast stacks, their
#: vector counterparts for the vector stack -- and the harness checks the
#: *pair* agrees slot by slot.  Randomized strategies ("random") stay out.
ADAPTIVE_DIFFERENTIAL_ADVERSARIES = (
    "reactive",
    "single-suppressor",
    "estimator-attacker",
    "silence-masker",
    "collision-forcer",
)

#: ``2.0**-u`` (scalar) vs ``np.exp2(-u)`` (vector) may differ by one ulp.
FLOAT_TOL = 1e-12

_ERASED = -1  # observed-state code for a fault-erased slot


def _want_jam(adversary: str, slot: int, T: int) -> bool:
    if adversary == "none":
        return False
    if adversary == "saturating":
        return True
    if adversary == "periodic-front":
        # Jam the front half of each 4T-slot period.
        return (slot % (4 * T)) < 2 * T
    if adversary == "burst":
        # T-slot bursts, one period in three.
        return (slot // T) % 3 == 0
    raise ConfigurationError(
        f"unknown deterministic adversary {adversary!r}; "
        f"known: {DETERMINISTIC_ADVERSARIES}"
    )


class _TraceShim:
    """Minimal stand-in for :class:`~repro.channel.trace.ChannelTrace`.

    Records the *pre-fault-corruption* observed state per slot -- exactly
    what the real engines' traces feed the adversary (the jammer knows what
    it jammed and is not fooled by corrupted feedback).  Only the query the
    adaptive suite actually performs (``observed_state``) is implemented.
    """

    __slots__ = ("_observed",)

    def __init__(self) -> None:
        self._observed: list[int] = []

    def record(self, slot: int, observed: ChannelState) -> None:
        assert slot == len(self._observed), "slots must be recorded in order"
        self._observed.append(int(observed))

    def observed_state(self, slot: int) -> ChannelState:
        return ChannelState(self._observed[slot])


class _ScalarIntent:
    """Jam intent for a scalar-semantics stack: a scripted pattern, or a
    real (stateful) scalar strategy instance fed a minimal trace shim."""

    def __init__(self, config: "DifferentialConfig") -> None:
        self.config = config
        self.trace = _TraceShim()
        self.strategy = (
            STRATEGY_REGISTRY[config.adversary](config.T, config.eps)
            if config.adversary in ADAPTIVE_DIFFERENTIAL_ADVERSARIES
            else None
        )

    def want(self, slot: int, budget: JammingBudget, p: float, u: float) -> bool:
        if self.strategy is None:
            return _want_jam(self.config.adversary, slot, self.config.T)
        view = AdversaryView(
            slot=slot,
            n=self.config.n,
            trace=self.trace,  # type: ignore[arg-type]  # duck-typed shim
            budget=budget,
            transmit_probability=p,
            protocol_u=u,
        )
        # rng=None asserts the strategy is deterministic: any draw raises.
        return bool(self.strategy.wants_jam(view, None))

    def observe(self, slot: int, observed: ChannelState) -> None:
        if self.strategy is not None:
            self.trace.record(slot, observed)


class _VectorIntent:
    """Jam intent for the vector stack: the scripted pattern lifted to a
    1-column mask, or the real vectorized strategy counterpart."""

    def __init__(self, config: "DifferentialConfig") -> None:
        self.config = config
        self.strategy = (
            BATCHED_STRATEGY_REGISTRY[config.adversary](config.T, config.eps)
            if config.adversary in ADAPTIVE_DIFFERENTIAL_ADVERSARIES
            else None
        )
        if self.strategy is not None:
            self.strategy.reset()

    def want(
        self,
        slot: int,
        budget: JammingBudgetArray,
        p: np.ndarray,
        u: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        if self.strategy is None:
            return np.array([_want_jam(self.config.adversary, slot, self.config.T)])
        view = BatchAdversaryView(
            slot=slot,
            n=self.config.n,
            reps=1,
            budget=budget,
            transmit_probabilities=p,
            protocol_u=u,
            active=active,
        )
        return np.asarray(self.strategy.wants_jam_batch(view, None), dtype=bool)

    def observe(self, slot: int, observed: np.ndarray, active: np.ndarray) -> None:
        if self.strategy is not None:
            self.strategy.observe_outcomes(slot, observed, active)


@dataclass(frozen=True)
class DifferentialConfig:
    """One differential-mode comparison run (LESK, strong-CD)."""

    n: int
    eps: float = 0.5
    T: int = 8
    adversary: str = "none"
    max_slots: int = 512
    seed: int = 0
    faults: FaultModel = NO_FAULTS
    #: Deliberately corrupt one stack's observation: ``(stack, slot)``.
    tamper: "tuple[str, int] | None" = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.faults.has_churn or self.faults.skew_rate:
            # Churn/skew make the faithful engine genuinely non-uniform (a
            # station that misses a slot misses that observation, so its
            # policy state drifts from the shared one); the uniform engines
            # approximate this by probability thinning.  Only corruption
            # faults -- which rewrite the *shared* observation identically
            # for everyone -- keep the three semantics comparable slot by
            # slot.  See docs/resilience.md.
            raise ConfigurationError(
                "differential mode supports corruption faults only "
                "(flip/erase/downgrade); churn and clock skew legitimately "
                "desynchronize the faithful engine from the uniform ones"
            )
        if self.max_slots < 1:
            raise ConfigurationError(f"max_slots must be >= 1, got {self.max_slots}")
        known = DETERMINISTIC_ADVERSARIES + ADAPTIVE_DIFFERENTIAL_ADVERSARIES
        if self.adversary not in known:
            raise ConfigurationError(
                f"differential mode needs a deterministic (scripted or "
                f"history-conditioned) adversary, got {self.adversary!r}; "
                f"known: {known}"
            )
        if self.tamper is not None and self.tamper[0] not in STACKS:
            raise ConfigurationError(
                f"tamper stack must be one of {STACKS}, got {self.tamper[0]!r}"
            )


@dataclass(frozen=True)
class SlotFingerprint:
    """Observable behaviour of one stack in one slot."""

    slot: int
    p: float
    k: int
    jammed: bool
    observed: int  # ChannelState code; _ERASED for a withheld observation
    halted: bool
    u: float

    def matches(self, other: "SlotFingerprint") -> bool:
        """True iff the fingerprints agree: exact on the discrete fields,
        within ``FLOAT_TOL`` on ``p`` and ``u`` (NaN == NaN for ``u``)."""
        if (self.k, self.jammed, self.observed, self.halted) != (
            other.k,
            other.jammed,
            other.observed,
            other.halted,
        ):
            return False
        if not math.isclose(self.p, other.p, rel_tol=0.0, abs_tol=FLOAT_TOL):
            return False
        if math.isnan(self.u) and math.isnan(other.u):
            return True
        return math.isclose(self.u, other.u, rel_tol=0.0, abs_tol=FLOAT_TOL)


@dataclass(frozen=True)
class Divergence:
    """First slot where two stacks disagreed."""

    slot: int
    stack_a: str
    stack_b: str
    fingerprint_a: SlotFingerprint
    fingerprint_b: SlotFingerprint

    def describe(self) -> str:
        """One-line human-readable account of the divergence."""
        return (
            f"stacks {self.stack_a!r} and {self.stack_b!r} diverge at slot "
            f"{self.slot}: {self.fingerprint_a} vs {self.fingerprint_b}"
        )


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential comparison."""

    config: DifferentialConfig
    slots_compared: int
    divergence: "Divergence | None"

    @property
    def agreed(self) -> bool:
        return self.divergence is None


class _SharedWorld:
    """Precomputed shared randomness: uniforms, churn masks, fault flags.

    Everything is realized eagerly so prefix re-runs (the bisection) replay
    the identical world.
    """

    def __init__(self, config: DifferentialConfig) -> None:
        rng = make_rng(config.seed)
        S, n = config.max_slots, config.n
        self.uniforms = rng.random((S, n))
        if config.faults.enabled:
            realized = config.faults.realize(n, S, rng.spawn(1)[0])
            self.participating = np.empty((S, n), dtype=bool)
            self.flags = []
            for slot in range(S):
                mask = realized.station_awake(slot)
                self.participating[slot] = mask
                self.flags.append(realized.begin_slot(slot, int(mask.sum())))
        else:
            self.participating = np.ones((S, n), dtype=bool)
            self.flags = [None] * S


class _ScriptedRng:
    """Stands in for a station's RNG: returns the pre-set shared uniform."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def random(self) -> float:
        return self.value


def _tampered(observed: "ChannelState | None") -> "ChannelState | None":
    """Deliberate single-slot corruption used by the ``tamper`` option."""
    if observed is ChannelState.NULL:
        return ChannelState.COLLISION
    return ChannelState.NULL


class _ScalarStack:
    """Real per-station adapters + feedback_for + scalar budget."""

    name = "scalar"

    def __init__(self, config: DifferentialConfig) -> None:
        self.config = config
        self.budget = JammingBudget(config.T, config.eps)
        self.intent = _ScalarIntent(config)
        self.stations = []
        self.rngs = []
        for sid in range(config.n):
            adapter = UniformStationAdapter(
                LESKPolicy(config.eps), cd_mode=CDMode.STRONG
            )
            rng = _ScriptedRng()
            adapter.reset(sid, rng)
            self.stations.append(adapter)
            self.rngs.append(rng)
        self.halted = False

    def step(self, slot: int, world: _SharedWorld) -> SlotFingerprint:
        cfg = self.config
        part = world.participating[slot]
        flags = world.flags[slot]
        hints = [
            s.transmit_probability_hint()
            for s, alive in zip(self.stations, part)
            if alive and not s.done
        ]
        p = hints[0] if hints else 0.0
        if hints and (max(hints) - min(hints)) > FLOAT_TOL:
            # Per-station probabilities drifted apart: uniformity broke
            # inside this stack.  Surface it as an impossible fingerprint.
            p = math.nan
        u = next(
            (
                s.u_hint()
                for s, alive in zip(self.stations, part)
                if alive and not s.done
            ),
            math.nan,
        )
        actions = [Action.LISTEN] * cfg.n
        k = 0
        for sid, station in enumerate(self.stations):
            if not part[sid] or station.done:
                continue
            self.rngs[sid].value = world.uniforms[slot, sid]
            action = station.begin_slot(slot)
            actions[sid] = action
            if action is Action.TRANSMIT:
                k += 1
        jammed = self.budget.grant(self.intent.want(slot, self.budget, p, u))
        outcome = resolve_slot(slot, k, jammed)
        self.intent.observe(slot, outcome.observed_state)
        observed = (
            corrupt_observed(outcome.observed_state, flags)
            if flags is not None
            else outcome.observed_state
        )
        if cfg.tamper == (self.name, slot):
            observed = _tampered(observed)
        for sid, station in enumerate(self.stations):
            # Deliver end_slot exactly to the stations that got begin_slot.
            if not part[sid] or station.done:
                continue
            if observed is None:
                fb = SlotFeedback(
                    transmitted=actions[sid] is Action.TRANSMIT,
                    perceived=PerceivedState.UNKNOWN,
                )
            else:
                fb = feedback_for(
                    transmitted=actions[sid] is Action.TRANSMIT,
                    observed=observed,
                    mode=CDMode.STRONG,
                )
            station.end_slot(slot, fb)
        self.halted = outcome.successful_single and observed is ChannelState.SINGLE
        return SlotFingerprint(
            slot=slot,
            p=p,
            k=k,
            jammed=jammed,
            observed=_ERASED if observed is None else int(observed),
            halted=self.halted,
            u=u,
        )


class _FastStack:
    """Shared scalar LESKPolicy (the fast engine's semantics)."""

    name = "fast"

    def __init__(self, config: DifferentialConfig) -> None:
        self.config = config
        self.budget = JammingBudget(config.T, config.eps)
        self.intent = _ScalarIntent(config)
        self.policy = LESKPolicy(config.eps)
        self.halted = False

    def step(self, slot: int, world: _SharedWorld) -> SlotFingerprint:
        cfg = self.config
        part = world.participating[slot]
        flags = world.flags[slot]
        p = self.policy.transmit_probability(slot)
        u = self.policy.u
        if p <= 0.0:
            k = 0
        else:
            k = int(np.count_nonzero(part & (world.uniforms[slot] < p)))
        jammed = self.budget.grant(self.intent.want(slot, self.budget, p, u))
        outcome = resolve_slot(slot, k, jammed)
        self.intent.observe(slot, outcome.observed_state)
        observed = (
            corrupt_observed(outcome.observed_state, flags)
            if flags is not None
            else outcome.observed_state
        )
        if cfg.tamper == (self.name, slot):
            observed = _tampered(observed)
        self.halted = outcome.successful_single and observed is ChannelState.SINGLE
        if not self.halted and observed is not None:
            self.policy.observe(slot, observed)
        return SlotFingerprint(
            slot=slot,
            p=p,
            k=k,
            jammed=jammed,
            observed=_ERASED if observed is None else int(observed),
            halted=self.halted,
            u=u,
        )


class _VectorStack:
    """VectorLESKPolicy (reps=1) + JammingBudgetArray + vectorized channel."""

    name = "vector"

    def __init__(self, config: DifferentialConfig) -> None:
        self.config = config
        self.budget = JammingBudgetArray(config.T, config.eps, reps=1)
        self.intent = _VectorIntent(config)
        self.policy = VectorLESKPolicy(config.eps, reps=1)
        self.active = np.ones(1, dtype=bool)
        self.halted = False

    def step(self, slot: int, world: _SharedWorld) -> SlotFingerprint:
        cfg = self.config
        part = world.participating[slot]
        flags = world.flags[slot]
        p_arr = self.policy.transmit_probabilities(slot)
        p = float(p_arr[0])
        u = float(self.policy.u[0])
        if p <= 0.0:
            k = 0
        else:
            k = int(np.count_nonzero(part & (world.uniforms[slot] < p)))
        want = self.intent.want(slot, self.budget, p_arr, self.policy.u, self.active)
        jammed = bool(self.budget.grant(want)[0])
        k_arr = np.array([k], dtype=np.int64)
        # The batched engine's observation expressions, verbatim.
        observed_arr = np.where(
            np.array([jammed]),
            np.int8(ChannelState.COLLISION),
            np.minimum(k_arr, 2).astype(np.int8),
        )
        # Pre-fault-corruption feedback, mirroring the batched engine's
        # observe_outcomes hook placement.
        self.intent.observe(slot, observed_arr, self.active)
        erased = False
        if flags is not None:
            if flags.downgrade:
                observed_arr = np.where(
                    observed_arr == np.int8(ChannelState.SINGLE),
                    np.int8(ChannelState.COLLISION),
                    observed_arr,
                )
            if flags.flip:
                observed_arr = np.where(
                    observed_arr == np.int8(ChannelState.NULL),
                    np.int8(ChannelState.COLLISION),
                    np.where(
                        observed_arr == np.int8(ChannelState.COLLISION),
                        np.int8(ChannelState.NULL),
                        observed_arr,
                    ),
                )
            erased = flags.erase
        if cfg.tamper == (self.name, slot):
            tampered = _tampered(None if erased else ChannelState(int(observed_arr[0])))
            erased = tampered is None
            if not erased:
                observed_arr = np.array([np.int8(tampered)])
        heard_single = (
            k == 1 and not jammed and not erased
            and int(observed_arr[0]) == int(ChannelState.SINGLE)
        )
        self.halted = heard_single
        if not self.halted:
            self.policy.observe_batch(
                slot, observed_arr, self.active & ~np.array([erased])
            )
        return SlotFingerprint(
            slot=slot,
            p=p,
            k=k,
            jammed=jammed,
            observed=_ERASED if erased else int(observed_arr[0]),
            halted=self.halted,
            u=u,
        )


class _VectorizedFaithfulStack:
    """The vectorized faithful engine's per-cell semantics, one rep.

    Width-``n`` :class:`VectorLESKPolicy` (one column per station cell),
    per-cell transmit decisions from the shared uniforms, and the
    strong-CD observation/halting expressions of
    :func:`repro.sim.vectorized.simulate_stations_vectorized` -- verbatim,
    so a semantic drift in that engine's update path diverges here.
    """

    name = "vectorized"

    def __init__(self, config: DifferentialConfig) -> None:
        self.config = config
        self.budget = JammingBudgetArray(config.T, config.eps, reps=1)
        self.intent = _VectorIntent(config)
        self.policy = VectorLESKPolicy(config.eps, reps=config.n)
        self.cell_done = np.zeros(config.n, dtype=bool)
        self.rep_active = np.ones(1, dtype=bool)
        self.halted = False

    def step(self, slot: int, world: _SharedWorld) -> SlotFingerprint:
        cfg = self.config
        part = world.participating[slot]
        flags = world.flags[slot]
        p_vec = self.policy.transmit_probabilities(slot)
        u_vec = self.policy.u
        alive = part & ~self.cell_done
        live_p = p_vec[alive]
        p = float(live_p[0]) if live_p.size else 0.0
        if live_p.size and float(live_p.max() - live_p.min()) > FLOAT_TOL:
            p = math.nan
        u = float(u_vec[alive][0]) if alive.any() else math.nan
        # The engine's station-0 probe hints (0.0 once that cell is done).
        p_hint = 0.0 if self.cell_done[0] else float(p_vec[0])
        transmit = alive & (world.uniforms[slot] < p_vec)
        k = int(np.count_nonzero(transmit))
        want = self.intent.want(
            slot,
            self.budget,
            np.array([p_hint]),
            u_vec[:1],
            self.rep_active,
        )
        jammed = bool(self.budget.grant(want)[0])
        # The engine's channel/corruption expressions, one rep wide.
        observed_arr = np.where(
            np.array([jammed]),
            np.int8(ChannelState.COLLISION),
            np.minimum(np.array([k], dtype=np.int64), 2).astype(np.int8),
        )
        self.intent.observe(slot, observed_arr, self.rep_active)
        erased = False
        if flags is not None:
            if flags.downgrade:
                observed_arr = np.where(
                    observed_arr == np.int8(ChannelState.SINGLE),
                    np.int8(ChannelState.COLLISION),
                    observed_arr,
                )
            if flags.flip:
                observed_arr = np.where(
                    observed_arr == np.int8(ChannelState.NULL),
                    np.int8(ChannelState.COLLISION),
                    np.where(
                        observed_arr == np.int8(ChannelState.COLLISION),
                        np.int8(ChannelState.NULL),
                        observed_arr,
                    ),
                )
            erased = flags.erase
        if cfg.tamper == (self.name, slot):
            tampered = _tampered(None if erased else ChannelState(int(observed_arr[0])))
            erased = tampered is None
            if not erased:
                observed_arr = np.array([np.int8(tampered)])
        heard = (
            k == 1 and not jammed and not erased
            and int(observed_arr[0]) == int(ChannelState.SINGLE)
        )
        self.halted = heard
        if not self.halted:
            observers = alive if not erased else np.zeros(cfg.n, dtype=bool)
            states = np.broadcast_to(observed_arr, (cfg.n,))
            self.policy.observe_batch(slot, states, observers)
            self.cell_done |= self.policy.completed
        return SlotFingerprint(
            slot=slot,
            p=p,
            k=k,
            jammed=jammed,
            observed=_ERASED if erased else int(observed_arr[0]),
            halted=self.halted,
            u=u,
        )


class _MegakernelStack:
    """The megakernel's ladder + outcome-kernel arithmetic, one rep.

    Drives the slot-blocked engine's update state
    (:class:`repro.sim.megakernel._LESKLadder`) a slot at a time: the
    probability comes from the ladder's ``prepare_group`` fast path (the
    in-place ``exp2(-u)`` the engine feeds its fused binomial draws),
    Collision outcomes fold through ``apply_collision_only`` (the engine's
    jam-run / all-collision path) and Null/Single outcomes through the
    engine's LESK outcome fold -- so a drift in any of those reductions
    diverges against the per-slot stacks.  Faults are folded from the
    *observed* state exactly as :meth:`VectorLESKPolicy.observe_batch`
    would (the engine itself delegates faulty cells to the batched
    engine, but the arithmetic contract is observed-state based either
    way).
    """

    name = "megakernel"

    def __init__(self, config: DifferentialConfig) -> None:
        from repro.sim.megakernel import _LESKLadder

        self.config = config
        self.budget = JammingBudgetArray(config.T, config.eps, reps=1)
        self.intent = _VectorIntent(config)
        self.ladder = _LESKLadder(VectorLESKPolicy(config.eps, reps=1))
        self.active = np.ones(1, dtype=bool)
        self.halted = False

    def step(self, slot: int, world: _SharedWorld) -> SlotFingerprint:
        cfg = self.config
        part = world.participating[slot]
        flags = world.flags[slot]
        ladder = self.ladder
        u = float(ladder.u[0])
        # The engine's probability path: prepare a zero-length jam run
        # plus the free row (no exponent advance).
        p_arr = ladder.prepare_group(0, True, 1)[0].copy()
        p = float(p_arr[0])
        if p <= 0.0:
            k = 0
        else:
            k = int(np.count_nonzero(part & (world.uniforms[slot] < p)))
        want = self.intent.want(slot, self.budget, p_arr, ladder.u, self.active)
        jammed = bool(self.budget.grant(want)[0])
        k_arr = np.array([k], dtype=np.int64)
        observed_arr = np.where(
            np.array([jammed]),
            np.int8(ChannelState.COLLISION),
            np.minimum(k_arr, 2).astype(np.int8),
        )
        self.intent.observe(slot, observed_arr, self.active)
        erased = False
        if flags is not None:
            if flags.downgrade:
                observed_arr = np.where(
                    observed_arr == np.int8(ChannelState.SINGLE),
                    np.int8(ChannelState.COLLISION),
                    observed_arr,
                )
            if flags.flip:
                observed_arr = np.where(
                    observed_arr == np.int8(ChannelState.NULL),
                    np.int8(ChannelState.COLLISION),
                    np.where(
                        observed_arr == np.int8(ChannelState.COLLISION),
                        np.int8(ChannelState.NULL),
                        observed_arr,
                    ),
                )
            erased = flags.erase
        if cfg.tamper == (self.name, slot):
            tampered = _tampered(None if erased else ChannelState(int(observed_arr[0])))
            erased = tampered is None
            if not erased:
                observed_arr = np.array([np.int8(tampered)])
        heard_single = (
            k == 1 and not jammed and not erased
            and int(observed_arr[0]) == int(ChannelState.SINGLE)
        )
        self.halted = heard_single
        ladder.commit_jams()
        if not self.halted and not erased:
            observed = int(observed_arr[0])
            if observed == int(ChannelState.COLLISION):
                ladder.apply_collision_only()
            else:
                # Null steps down, Single is a no-op -- both via the
                # engine's outcome fold on the observed-state count.
                k_eff = 0 if observed == int(ChannelState.NULL) else 1
                ladder.apply_free_outcome(np.array([k_eff], dtype=np.int64))
        return SlotFingerprint(
            slot=slot,
            p=p,
            k=k,
            jammed=jammed,
            observed=_ERASED if erased else int(observed_arr[0]),
            halted=self.halted,
            u=u,
        )


_STACK_TYPES = {
    "scalar": _ScalarStack,
    "fast": _FastStack,
    "vector": _VectorStack,
    "vectorized": _VectorizedFaithfulStack,
    "megakernel": _MegakernelStack,
}


def _run_stack(
    name: str, config: DifferentialConfig, world: _SharedWorld, upto: "int | None" = None
) -> list[SlotFingerprint]:
    """Run one stack over the shared world; stop at halt or *upto* slots."""
    stack = _STACK_TYPES[name](config)
    limit = config.max_slots if upto is None else min(upto, config.max_slots)
    fingerprints = []
    for slot in range(limit):
        fingerprints.append(stack.step(slot, world))
        if stack.halted:
            break
    return fingerprints


def _first_mismatch(
    sequences: dict[str, list[SlotFingerprint]]
) -> "Divergence | None":
    names = list(sequences)
    length = min(len(s) for s in sequences.values())
    for slot in range(length):
        ref_name = names[0]
        ref = sequences[ref_name][slot]
        for other in names[1:]:
            fp = sequences[other][slot]
            if not ref.matches(fp):
                return Divergence(
                    slot=slot,
                    stack_a=ref_name,
                    stack_b=other,
                    fingerprint_a=ref,
                    fingerprint_b=fp,
                )
    # Equal prefixes but different lengths: one stack halted, another kept
    # going -- the first extra slot is the divergence.
    lengths = {name: len(s) for name, s in sequences.items()}
    if len(set(lengths.values())) > 1:
        short = min(lengths, key=lengths.get)
        long = max(lengths, key=lengths.get)
        return Divergence(
            slot=length,
            stack_a=short,
            stack_b=long,
            fingerprint_a=sequences[short][length - 1],
            fingerprint_b=sequences[long][length],
        )
    return None


def run_differential(config: DifferentialConfig) -> DifferentialReport:
    """Run all three stacks over one shared world and compare every slot."""
    world = _SharedWorld(config)
    sequences = {name: _run_stack(name, config, world) for name in STACKS}
    divergence = _first_mismatch(sequences)
    return DifferentialReport(
        config=config,
        slots_compared=min(len(s) for s in sequences.values()),
        divergence=divergence,
    )


def first_diverging_slot(config: DifferentialConfig) -> "int | None":
    """Binary-search the first diverging slot by re-running prefixes.

    The predicate "all stacks produce identical fingerprints for the first
    ``m`` slots" is monotone in ``m`` (stacks are deterministic functions
    of the shared world), so bisection applies: each probe re-runs every
    stack for ``m`` slots and compares the full prefix.  Returns ``None``
    when the stacks agree over the whole horizon.
    """
    world = _SharedWorld(config)

    def prefix_agrees(m: int) -> bool:
        seqs = {name: _run_stack(name, config, world, upto=m) for name in STACKS}
        div = _first_mismatch(seqs)
        # A halt-length mismatch only counts once the longer run is within
        # the probe prefix; _first_mismatch already handles it.
        return div is None or div.slot >= m

    full = {name: _run_stack(name, config, world) for name in STACKS}
    div = _first_mismatch(full)
    if div is None:
        return None
    lo, hi = 0, div.slot + 1  # prefix of lo agrees; prefix of hi diverges
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prefix_agrees(mid):
            lo = mid
        else:
            hi = mid
    return lo  # first diverging slot index (prefix of length lo agrees)
