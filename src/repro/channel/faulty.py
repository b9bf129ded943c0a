"""Feedback corruption on top of the pristine channel substrate.

:func:`corrupt_observed` is the single point where the fault model's
observation-layer corruption (:class:`repro.resilience.faults.SlotFaults`)
rewrites what listeners hear.  The engines call
:func:`~repro.channel.channel.resolve_slot` + :func:`corrupt_observed`
directly on their hot paths:

* **erase** -- nobody hears the slot; feedback is withheld entirely
  (returned as ``None``), so even a successful Single goes unnoticed and
  does not end a run.
* **downgrade** -- collision detection degrades: a ``SINGLE`` is reported
  as ``COLLISION`` to everyone (a would-be winner does not learn it won).
* **flip** -- ``NULL <-> COLLISION`` swap.  Unlike the budgeted adversary,
  a fault *can* fabricate a silent slot out of a collision; that extra
  power is deliberate (the fault model stresses beyond §1.1's adversary).

Order matters and is fixed: erase wins outright; otherwise downgrade is
applied before flip (degraded hardware first, then the symbol-level lie).
Corruption acts on the **observed** state -- after jamming -- and applies
to all stations alike, keeping the three engines' count-level semantics
identical.
"""

from __future__ import annotations

from repro.types import ChannelState

__all__ = ["corrupt_observed"]

_FLIP = {
    ChannelState.NULL: ChannelState.COLLISION,
    ChannelState.COLLISION: ChannelState.NULL,
    ChannelState.SINGLE: ChannelState.SINGLE,
}


def corrupt_observed(observed: ChannelState, flags) -> "ChannelState | None":
    """Apply one slot's corruption flags to the observed channel state.

    *flags* is any object with boolean ``erase`` / ``downgrade`` / ``flip``
    attributes (:class:`repro.resilience.faults.SlotFaults` in practice).
    Returns ``None`` when the slot is erased (no feedback delivered).
    """
    if flags.erase:
        return None
    if flags.downgrade and observed is ChannelState.SINGLE:
        observed = ChannelState.COLLISION
    if flags.flip:
        observed = _FLIP[observed]
    return observed

