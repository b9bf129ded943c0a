"""Adversary strategy interface and the budget-enforcing harness.

The model (Section 1.1): the adversary is *adaptive* -- it knows the entire
history of the channel, the protocol run by the honest stations, and the
true network size ``n`` -- but it must commit to jamming a slot **before**
seeing the stations' actions in that slot.  We expose exactly this
information through :class:`AdversaryView`:

* the full recorded trace of past slots (observed states, jam flags, ...);
* ``n`` and the adversary parameters;
* ``transmit_probability``: because the paper's protocols are *uniform*
  (every station transmits with the same, history-determined probability),
  an adversary that knows the protocol can recompute the probability the
  stations will use in the **current** slot from public history alone.
  The engines provide it as a convenience; it reveals nothing beyond what
  the paper's adversary already knows, and crucially it does not reveal
  the stations' random transmit/listen coin flips for the current slot.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.adversary.budget import JammingBudget
from repro.channel.trace import ChannelTrace
from repro.rng import make_rng

__all__ = ["AdversaryView", "JammingStrategy", "Adversary"]


@dataclass(slots=True)
class AdversaryView:
    """Everything an adaptive adversary may condition on for the current slot."""

    #: Index of the slot about to be decided.
    slot: int
    #: Number of honest stations (known to the adversary, Section 1.1).
    n: int
    #: Full history of past slots.
    trace: ChannelTrace
    #: Budget state (strategies may plan around their own headroom).
    budget: JammingBudget
    #: Per-station transmission probability the uniform protocol will use in
    #: the current slot, or NaN when unavailable (non-uniform protocols).
    transmit_probability: float = math.nan
    #: Current estimator value ``u`` of the uniform protocol, or NaN.
    protocol_u: float = math.nan
    #: Extra engine-specific information (kept out of the hot path).
    extra: dict[str, object] = field(default_factory=dict)


class JammingStrategy(abc.ABC):
    """Decides whether the adversary *wants* to jam the current slot.

    Strategies express intent; the :class:`Adversary` harness clamps intent
    to the (T, 1-eps) budget.  A strategy may itself consult
    ``view.budget.can_jam()`` to avoid wasting requests.
    """

    name: str = "strategy"

    @abc.abstractmethod
    def wants_jam(self, view: AdversaryView, rng: np.random.Generator) -> bool:
        """Return True to request jamming the current slot."""

    def reset(self) -> None:
        """Clear any internal state before a new run (default: stateless)."""

    def want_schedule(self, start: int, count: int) -> np.ndarray | None:
        """Want flags for slots ``start .. start+count-1``, or ``None``.

        The scalar twin of
        :meth:`repro.adversary.vector.VectorJammingStrategy.want_schedule`:
        a strategy whose want is a pure function of the slot index (no
        history, no protocol state, no RNG) returns a ``(count,)`` boolean
        array, which lets an engine grant slots nobody transmits in
        without building a view for each.  The default ``None`` keeps
        every other strategy on the per-slot path.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Adversary:
    """A strategy bound to a (T, 1-eps) budget and a private RNG stream.

    This is the object the simulation engines consume: one call to
    :meth:`decide` per slot, in slot order.  The returned decision is
    guaranteed (T, 1-eps)-bounded regardless of the strategy's behaviour.

    Parameters
    ----------
    strategy:
        The jamming strategy (intent).
    T, eps:
        Adversary parameters; the adversary may jam at most ``(1-eps)*w``
        out of any ``w >= T`` contiguous slots.
    seed:
        Seed or generator for the strategy's private randomness.
    strict:
        Propagated to :class:`JammingBudget`; if true, over-budget requests
        raise instead of being clamped.
    """

    def __init__(
        self,
        strategy: JammingStrategy,
        T: int,
        eps: float,
        seed: int | np.random.Generator | None = None,
        strict: bool = False,
    ) -> None:
        self.strategy = strategy
        self.T = int(T)
        self.eps = float(eps)
        self._strict = strict
        self._rng = make_rng(seed)
        self.budget = JammingBudget(self.T, self.eps, strict=strict)

    def reset(self, seed: int | np.random.Generator | None = None) -> None:
        """Prepare for a fresh run (new budget, reset strategy state)."""
        if seed is not None:
            self._rng = make_rng(seed)
        self.budget = JammingBudget(self.T, self.eps, strict=self._strict)
        self.strategy.reset()

    @property
    def strategy_name(self) -> str:
        """Registry name of the bound strategy (telemetry label)."""
        return getattr(self.strategy, "name", type(self.strategy).__name__)

    def decide(self, view: AdversaryView) -> bool:
        """Budget-checked jamming decision for the current slot."""
        want = self.strategy.wants_jam(view, self._rng)
        return self.budget.grant(want)

    def __repr__(self) -> str:
        return (
            f"Adversary({self.strategy!r}, T={self.T}, eps={self.eps})"
        )


def as_strategy(fn: Callable[[AdversaryView, np.random.Generator], bool], name: str) -> JammingStrategy:
    """Wrap a plain function as a :class:`JammingStrategy` (testing helper)."""

    class _FnStrategy(JammingStrategy):
        def wants_jam(self, view: AdversaryView, rng: np.random.Generator) -> bool:
            return fn(view, rng)

    _FnStrategy.name = name
    _FnStrategy.__name__ = f"FnStrategy_{name}"
    return _FnStrategy()
