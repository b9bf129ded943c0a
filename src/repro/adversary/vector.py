"""Vectorized (batched) adversaries: one jam decision per replication per slot.

The batched simulation engine (:mod:`repro.sim.batched`) advances ``R``
independent replications in lockstep, so the adversary must produce a
``(R,)`` boolean want-mask per global slot.  This module mirrors the scalar
strategy/budget split of :mod:`repro.adversary.base`:

* :class:`VectorJammingStrategy` -- intent, as a ``(R,)`` mask;
* :class:`~repro.adversary.budget.JammingBudgetArray` -- per-replication
  (T, 1-eps) enforcement;
* :class:`BatchedAdversary` -- the combination the engine consumes.

The whole scalar suite is vectorized.  Oblivious strategies depend on the
slot index and private randomness alone, so their per-replication masks are
trivially independent.  The *adaptive* family
(:mod:`repro.adversary.adaptive`) conditions on public protocol state --
the current transmission probability and estimator ``u``, both ``(R,)``
arrays in :class:`BatchAdversaryView` -- or, for the reactive jammer, on
the previous slot's observed channel state, which the batched engine feeds
back through :meth:`VectorJammingStrategy.observe_outcomes` each slot.
Each strategy's conditioning state is an ``(R,)`` array advanced in
lockstep, so per-column decisions are exactly the scalar strategy's
decisions applied elementwise (checked want by want and grant by grant
against the scalar strategies by the lockstep contract, and in law per
strategy, in ``tests/sim/test_conformance.py``).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.adversary.budget import JammingBudgetArray
from repro.errors import ConfigurationError
from repro.rng import make_rng
from repro.types import ChannelState

__all__ = [
    "BatchAdversaryView",
    "VectorJammingStrategy",
    "VectorNoJamming",
    "VectorSaturatingJammer",
    "VectorPeriodicFrontJammer",
    "VectorRandomJammer",
    "VectorBurstJammer",
    "VectorReactiveJammer",
    "VectorSingleSuppressor",
    "VectorEstimatorAttacker",
    "VectorSilenceMasker",
    "VectorCollisionForcer",
    "BatchedAdversary",
    "schedule_refusal",
    "BATCHED_STRATEGY_REGISTRY",
    "is_batchable",
    "make_batched_adversary",
]


@dataclass(slots=True)
class BatchAdversaryView:
    """Per-slot information a batched adversary may condition on.

    The batched engine exposes the same public quantities as the scalar
    :class:`~repro.adversary.base.AdversaryView`, lifted to ``(reps,)``
    arrays, minus the per-slot trace (oblivious strategies never read it).
    """

    #: Index of the (global) slot about to be decided.
    slot: int
    #: Number of honest stations.
    n: int
    #: Number of replications in the batch.
    reps: int
    #: Per-replication budget state.
    budget: JammingBudgetArray
    #: Per-replication transmission probabilities for the current slot.
    transmit_probabilities: np.ndarray | None = None
    #: Per-replication estimator values ``u``.
    protocol_u: np.ndarray | None = None
    #: Mask of replications still running (retired columns are ignored).
    active: np.ndarray | None = None
    #: Extra engine-specific information.
    extra: dict[str, object] = field(default_factory=dict)


class VectorJammingStrategy(abc.ABC):
    """Batched jam intent: a ``(reps,)`` boolean mask per slot."""

    name: str = "vector-strategy"

    #: Whether :meth:`wants_jam_batch` reads ``view.protocol_u``.  Engines
    #: may skip materializing the policy's estimator array when this is
    #: ``False``; unknown subclasses inherit the conservative ``True``.
    uses_protocol_u: bool = True

    @abc.abstractmethod
    def wants_jam_batch(
        self, view: BatchAdversaryView, rng: np.random.Generator
    ) -> np.ndarray:
        """Want-mask for the current slot, shape ``(view.reps,)``."""

    def observe_outcomes(
        self, slot: int, observed: np.ndarray, active: np.ndarray
    ) -> None:
        """Per-slot history feedback from the engine (default: ignored).

        ``observed`` carries the per-column observed channel-state codes of
        slot *slot* with the jam applied but **before** any fault
        corruption -- the same states the scalar engines append to the
        trace that :class:`~repro.adversary.base.AdversaryView` exposes
        (the adversary knows what it jammed; it is not fooled by the fault
        model's corrupted feedback).  History-conditioned strategies
        (:class:`VectorReactiveJammer`) keep their ``(R,)`` state here.
        """

    def reset(self) -> None:
        """Clear any internal state before a new batch (default: stateless)."""

    def compact(self, keep: np.ndarray) -> None:
        """Drop every column not selected by ``keep`` (sorted index array).

        Called by the batched engine's dead-rep compaction.  Strategies
        whose decisions are elementwise functions of the per-slot view
        carry no per-column state and inherit this no-op; the
        history-conditioned and randomized members override it so the
        surviving columns' want-streams are unchanged.
        """

    def want_schedule(
        self, start: int, count: int, view: BatchAdversaryView | None = None
    ) -> np.ndarray | None:
        """Per-slot want flags for slots ``start .. start+count-1``, or
        ``None`` when the want sequence cannot be precomputed.

        *view*, when given, holds the protocol state those slots will show
        every live replication, laid out along the slot axis: entry ``i``
        of its ``transmit_probabilities`` and ``protocol_u`` belongs to
        slot ``start + i`` (and ``view.reps == count``).  An engine can
        offer one when all live replications share one state sequence
        that is a pure function of the slot index (the slot-blocked
        megakernel's sweep, no-CD sweep and Estimation ladders).

        Oblivious strategies whose want is a pure function of the slot
        index (identical across replications, independent of protocol
        state, history and the adversary RNG) ignore *view* and return a
        ``(count,)`` boolean array; adaptive strategies whose want is an
        elementwise function of that state apply their
        :meth:`wants_jam_batch` rule to *view*, and return ``None``
        without one.  The megakernel uses the flags to precompute a whole
        block's jam grants in one pass.  The conservative default ``None``
        keeps unknown, randomized and history-conditioned strategies on
        the per-slot path.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _StateWantMixin:
    """Want schedule of a strategy whose want is an elementwise function of
    the protocol state in its view (no RNG, no history): its
    :meth:`~VectorJammingStrategy.wants_jam_batch` rule, applied along the
    slot axis of a shared-state view."""

    def want_schedule(self, start, count, view=None):
        if view is None:
            return None
        return self.wants_jam_batch(view, None)


class _ConstantWantMixin:
    """Reused constant want-mask buffers for width-uniform strategies.

    The profiled batched hot path allocated a fresh ``np.ones`` /
    ``np.full`` per slot just to say "everyone (or no one) wants to jam";
    these buffers are allocated once per width and handed out read-shared.
    Safe because every consumer (``JammingBudgetArray.grant`` and the
    engines) treats the want mask as read-only.
    """

    _true_buf: np.ndarray | None = None
    _false_buf: np.ndarray | None = None

    def _want_mask(self, reps: int, flag: bool) -> np.ndarray:
        buf = self._true_buf if flag else self._false_buf
        if buf is None or buf.size != reps:
            buf = np.full(reps, bool(flag))
            if flag:
                self._true_buf = buf
            else:
                self._false_buf = buf
        return buf


class VectorNoJamming(_ConstantWantMixin, VectorJammingStrategy):
    """Never jams any replication."""

    name = "none"
    uses_protocol_u = False

    def wants_jam_batch(self, view, rng):
        return self._want_mask(view.reps, False)

    def want_schedule(self, start, count, view=None):
        return np.zeros(count, dtype=bool)


class VectorSaturatingJammer(_ConstantWantMixin, VectorJammingStrategy):
    """Requests a jam in every slot of every replication (budget-clamped)."""

    name = "saturating"
    uses_protocol_u = False

    def wants_jam_batch(self, view, rng):
        return self._want_mask(view.reps, True)

    def want_schedule(self, start, count, view=None):
        return np.ones(count, dtype=bool)


class VectorPeriodicFrontJammer(_ConstantWantMixin, VectorJammingStrategy):
    """Lemma 2.7 front jammer: the pattern is a function of the slot index
    only, hence identical across replications."""

    name = "periodic-front"
    uses_protocol_u = False

    def __init__(self, T: int, eps: float) -> None:
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if not (0.0 < eps <= 1.0):
            raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
        self.T = int(T)
        self.jam_prefix = int((1.0 - eps) * self.T)

    def wants_jam_batch(self, view, rng):
        want = (view.slot % self.T) < self.jam_prefix
        return self._want_mask(view.reps, want)

    def want_schedule(self, start, count, view=None):
        return (np.arange(start, start + count) % self.T) < self.jam_prefix


class VectorRandomJammer(VectorJammingStrategy):
    """Independent Bernoulli(rate) jam requests per replication per slot."""

    name = "random"
    uses_protocol_u = False

    def __init__(self, rate: float) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        # Dead-rep compaction support: the strategy keeps drawing at the
        # original batch width and selects the surviving columns, so each
        # column's Bernoulli stream is pinned to its original rep index
        # regardless of the compaction schedule.
        self._full_reps: int | None = None
        self._orig_idx: np.ndarray | None = None

    def reset(self) -> None:
        self._full_reps = None
        self._orig_idx = None

    def compact(self, keep):
        if self._orig_idx is None:
            self._orig_idx = np.asarray(keep, dtype=np.int64).copy()
        else:
            self._orig_idx = self._orig_idx[keep]

    def wants_jam_batch(self, view, rng):
        if self._full_reps is None:
            # First slot always runs pre-compaction, at the full width.
            self._full_reps = view.reps
        draw = rng.random(self._full_reps) < self.rate
        if self._orig_idx is not None:
            return draw[self._orig_idx]
        return draw


class VectorBurstJammer(_ConstantWantMixin, VectorJammingStrategy):
    """Deterministic burst/gap duty cycle, identical across replications."""

    name = "burst"
    uses_protocol_u = False

    def __init__(self, burst: int, gap: int, offset: int = 0) -> None:
        if burst < 0 or gap < 0 or burst + gap == 0:
            raise ConfigurationError(
                f"need burst >= 0, gap >= 0, burst+gap > 0; got {burst}, {gap}"
            )
        self.burst = int(burst)
        self.gap = int(gap)
        self.offset = int(offset)

    def wants_jam_batch(self, view, rng):
        phase = (view.slot + self.offset) % (self.burst + self.gap)
        return self._want_mask(view.reps, phase < self.burst)

    def want_schedule(self, start, count, view=None):
        phase = (np.arange(start, start + count) + self.offset) % (
            self.burst + self.gap
        )
        return phase < self.burst


# -- adaptive (history-conditioned) strategies ------------------------------
#
# Vector counterparts of repro.adversary.adaptive: the same decision rules
# applied elementwise over the (R,) protocol-state arrays the batched
# engine already exposes.  Edge-case handling mirrors the scalar formulas
# exactly (p <= 0 / p >= 1 clamps; NaN protocol state saturates to a jam
# request, which the budget then clamps to a saturating pattern).  The
# four that read only p or u apply the same rule along the slot axis of a
# shared-state view for the megakernel (_StateWantMixin).


def _p_single_batch(n: int, p: np.ndarray) -> np.ndarray:
    """Vectorized ``adaptive._p_single``: P[Single] per column (NaN -> NaN,
    saturated to a jam request by the caller)."""
    if n <= 0:
        return np.zeros(p.shape)
    # n*p*(1-p)**(n-1) evaluated in log space, unmasked: p=0 gives 0 via the
    # leading factor, p=1 gives exp(-inf)=0 (n>=2), so the values match the
    # masked formula exactly while costing a constant number of ufunc calls.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * p * np.exp((n - 1) * np.log1p(-p))
    if n == 1:
        # (1-1)*log1p(-1) is 0*-inf = NaN: patch the p>=1 columns to 1.
        out[p >= 1.0] = 1.0
    return out


def _p_null_batch(n: int, p: np.ndarray) -> np.ndarray:
    """Vectorized P[Null] per column (NaN -> NaN, saturated by the caller).

    ``(1-p)**n`` in log space, unmasked: ``p <= 0`` gives ``exp(n*log1p(|p|))
    >= 1``... so the sub-zero clamp is kept explicit; ``p = 0`` gives exactly
    ``exp(0) = 1`` and ``p = 1`` gives ``exp(-inf) = 0``, matching the masked
    formula exactly with a constant number of ufunc calls.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(n * np.log1p(-p))
    out[p < 0.0] = 1.0
    return out


def _saturate_nan(want: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Jam wherever the conditioning value is NaN (unknown protocol state)."""
    nan = np.isnan(values)
    if nan.any():
        want = want | nan
    return want


class VectorReactiveJammer(VectorJammingStrategy):
    """Batched :class:`~repro.adversary.adaptive.ReactiveJammer`: jam iff
    the column's *previous* observed state is in ``triggers``.

    The conditioning state is the ``(R,)`` observed-state array of the last
    slot, fed back by the engine via :meth:`observe_outcomes`; slot 0 never
    jams (no history), matching the scalar strategy.
    """

    name = "reactive"
    uses_protocol_u = False

    def __init__(self, triggers=(ChannelState.NULL,)) -> None:
        self.triggers = frozenset(ChannelState(t) for t in triggers)
        if not self.triggers:
            raise ConfigurationError(
                "VectorReactiveJammer needs at least one trigger state"
            )
        # Indexed by a state code: whether that previous state triggers.
        self._triggered = np.zeros(len(ChannelState), dtype=bool)
        self._triggered[[int(t) for t in self.triggers]] = True
        self._prev: np.ndarray | None = None

    def reset(self) -> None:
        self._prev = None

    def compact(self, keep):
        if self._prev is not None:
            self._prev = self._prev[keep]

    def observe_outcomes(self, slot, observed, active):
        self._prev = observed

    def wants_jam_batch(self, view, rng):
        if view.slot == 0 or self._prev is None:
            return np.zeros(view.reps, dtype=bool)
        return self._triggered[self._prev]

    def __repr__(self) -> str:
        names = ",".join(sorted(t.name for t in self.triggers))
        return f"VectorReactiveJammer(triggers={names})"


class VectorSingleSuppressor(_StateWantMixin, VectorJammingStrategy):
    """Batched :class:`~repro.adversary.adaptive.SingleSuppressor`: jam
    the columns whose ``P[Single]`` meets the threshold."""

    name = "single-suppressor"
    uses_protocol_u = False

    def __init__(self, threshold: float = 0.01) -> None:
        if not (0.0 <= threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in [0,1], got {threshold}")
        self.threshold = float(threshold)

    def wants_jam_batch(self, view, rng):
        p = view.transmit_probabilities
        if p is None:
            return np.ones(view.reps, dtype=bool)
        want = _p_single_batch(view.n, p) >= self.threshold
        return _saturate_nan(want, p)


class VectorEstimatorAttacker(_StateWantMixin, VectorJammingStrategy):
    """Batched :class:`~repro.adversary.adaptive.EstimatorAttacker`: jam
    the columns whose estimator ``u`` sits within ``margin`` of ``log2 n``."""

    name = "estimator-attacker"

    def __init__(self, margin: float = 3.0) -> None:
        if margin <= 0:
            raise ConfigurationError(f"margin must be > 0, got {margin}")
        self.margin = float(margin)

    def wants_jam_batch(self, view, rng):
        u = view.protocol_u
        if u is None:
            return np.ones(view.reps, dtype=bool)
        # math.log2, as in the scalar strategy: np.log2 differs from it in
        # the last ulp for some n (n = 1621), which moves the band's edges.
        u0 = math.log2(view.n) if view.n > 0 else 0.0
        with np.errstate(invalid="ignore"):
            want = np.abs(u - u0) <= self.margin
        return _saturate_nan(want, u)

    def __repr__(self) -> str:
        return f"VectorEstimatorAttacker(margin={self.margin})"


class VectorSilenceMasker(_StateWantMixin, VectorJammingStrategy):
    """Batched :class:`~repro.adversary.adaptive.SilenceMasker`: jam the
    columns whose ``P[Null]`` meets the threshold."""

    name = "silence-masker"
    uses_protocol_u = False

    def __init__(self, threshold: float = 0.5) -> None:
        if not (0.0 <= threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in [0,1], got {threshold}")
        self.threshold = float(threshold)

    def wants_jam_batch(self, view, rng):
        p = view.transmit_probabilities
        if p is None:
            return np.ones(view.reps, dtype=bool)
        want = _p_null_batch(view.n, p) >= self.threshold
        return _saturate_nan(want, p)

    def __repr__(self) -> str:
        return f"VectorSilenceMasker(threshold={self.threshold})"


class VectorCollisionForcer(_StateWantMixin, VectorJammingStrategy):
    """Batched :class:`~repro.adversary.adaptive.CollisionForcer`: jam the
    columns where a collision is not already the likely outcome."""

    name = "collision-forcer"
    uses_protocol_u = False

    def __init__(self, threshold: float = 0.9) -> None:
        if not (0.0 <= threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in [0,1], got {threshold}")
        self.threshold = float(threshold)

    def wants_jam_batch(self, view, rng):
        p = view.transmit_probabilities
        if p is None:
            return np.ones(view.reps, dtype=bool)
        p_coll = np.maximum(
            0.0, 1.0 - _p_null_batch(view.n, p) - _p_single_batch(view.n, p)
        )
        # Scalar edge cases: p <= 0 -> 0; p >= 1 -> 1 iff n >= 2.
        p_coll[p >= 1.0] = 1.0 if view.n >= 2 else 0.0
        want = p_coll < self.threshold
        return _saturate_nan(want, p)

    def __repr__(self) -> str:
        return f"VectorCollisionForcer(threshold={self.threshold})"


class BatchedAdversary:
    """A vector strategy bound to a per-replication budget and one RNG.

    The batched counterpart of :class:`~repro.adversary.base.Adversary`:
    one :meth:`decide` call per global slot, returning the budget-clamped
    ``(reps,)`` grant mask.
    """

    def __init__(
        self,
        strategy: VectorJammingStrategy,
        T: int,
        eps: float,
        reps: int,
        seed: int | np.random.Generator | None = None,
        strict: bool = False,
    ) -> None:
        self.strategy = strategy
        self.T = int(T)
        self.eps = float(eps)
        self.reps = int(reps)
        self._strict = strict
        self._rng = make_rng(seed)
        self.budget = JammingBudgetArray(self.T, self.eps, self.reps, strict=strict)

    def reset(self, seed: int | np.random.Generator | None = None) -> None:
        """Prepare for a fresh batch (new budget, reset strategy state)."""
        if seed is not None:
            self._rng = make_rng(seed)
        self.budget = JammingBudgetArray(
            self.T, self.eps, self.reps, strict=self._strict
        )
        self.strategy.reset()

    @property
    def strategy_name(self) -> str:
        """Registry name of the bound strategy (telemetry label)."""
        return getattr(self.strategy, "name", type(self.strategy).__name__)

    @property
    def rng(self) -> np.random.Generator:
        """The strategy's conditioning stream (engines may drive it)."""
        return self._rng

    def decide(self, view: BatchAdversaryView) -> np.ndarray:
        """Budget-checked jam mask for the current slot, shape ``(reps,)``."""
        want = self.strategy.wants_jam_batch(view, self._rng)
        return self.budget.grant(want)

    def compact(self, keep: np.ndarray) -> None:
        """Forward dead-rep compaction to the strategy and the budget."""
        self.strategy.compact(keep)
        self.budget.compact(keep)

    def observe_outcomes(
        self, slot: int, observed: np.ndarray, active: np.ndarray
    ) -> None:
        """Forward per-slot channel feedback to the bound strategy."""
        self.strategy.observe_outcomes(slot, observed, active)

    def __repr__(self) -> str:
        return (
            f"BatchedAdversary({self.strategy!r}, T={self.T}, eps={self.eps}, "
            f"reps={self.reps})"
        )


def schedule_refusal(
    adversary: BatchedAdversary, view: BatchAdversaryView | None = None
) -> str | None:
    """``None`` when an engine may grant *adversary*'s jams a block at a
    time from its strategy's
    :meth:`~VectorJammingStrategy.want_schedule`, else the reason it must
    decide slot by slot.

    That takes a plain, non-strict :class:`BatchedAdversary` (its
    :meth:`~BatchedAdversary.decide` is the strategy's want granted by the
    budget) over a strategy with no feedback hook that gives slot 0 a
    schedule -- offered *view*, slot 0's shared protocol state, when the
    engine has one.  Every replication's budget then sees the same wants
    from slot 0, so one scalar budget decides for all of them.
    """
    if type(adversary) is not BatchedAdversary:
        return f"adversary:{type(adversary).__name__}"
    if adversary.budget.strict:
        return "strict-budget"
    strategy = adversary.strategy
    name = adversary.strategy_name
    if type(strategy).observe_outcomes is not VectorJammingStrategy.observe_outcomes:
        return f"strategy-feedback:{name}"
    if strategy.want_schedule(0, 1, view) is None:
        return f"strategy:{name}"
    return None


# Factories take (T, eps), mirroring the scalar suite registry -- including
# its parameter choices (random rate, burst/gap split), so a batched run is
# distributionally interchangeable with the scalar run of the same name.
BATCHED_STRATEGY_REGISTRY = {
    "none": lambda T, eps: VectorNoJamming(),
    "saturating": lambda T, eps: VectorSaturatingJammer(),
    "periodic-front": lambda T, eps: VectorPeriodicFrontJammer(T, eps),
    "random": lambda T, eps: VectorRandomJammer(rate=min(1.0, 1.0 - eps + 0.05)),
    "burst": lambda T, eps: VectorBurstJammer(
        burst=max(1, int((1.0 - eps) * T)), gap=max(1, T - int((1.0 - eps) * T))
    ),
    "reactive": lambda T, eps: VectorReactiveJammer(),
    "single-suppressor": lambda T, eps: VectorSingleSuppressor(),
    "estimator-attacker": lambda T, eps: VectorEstimatorAttacker(),
    "silence-masker": lambda T, eps: VectorSilenceMasker(),
    "collision-forcer": lambda T, eps: VectorCollisionForcer(),
}


def is_batchable(name: str) -> bool:
    """Whether the named strategy has a vectorized implementation."""
    return name in BATCHED_STRATEGY_REGISTRY


def make_batched_adversary(
    name: str,
    T: int,
    eps: float,
    reps: int,
    seed: int | None = None,
    strict: bool = False,
) -> BatchedAdversary:
    """Build a batched budget-enforced adversary from a registry name."""
    try:
        factory = BATCHED_STRATEGY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(BATCHED_STRATEGY_REGISTRY))
        raise ConfigurationError(
            f"strategy {name!r} has no batched implementation; known: {known}"
        ) from None
    return BatchedAdversary(
        factory(T, eps), T=T, eps=eps, reps=reps, seed=seed, strict=strict
    )
