"""Slotted single-hop radio channel substrate.

Implements the physical model of Section 1.1: three-state channel
(Null / Single / Collision), adversarial jamming that is indistinguishable
from a collision, and per-CD-mode feedback delivery.
"""

from repro.channel.channel import Channel, SlotOutcome, resolve_slot
from repro.channel.faulty import corrupt_observed
from repro.channel.feedback import feedback_for, perceived_by_listener
from repro.channel.trace import ChannelTrace, SlotRecord

__all__ = [
    "Channel",
    "SlotOutcome",
    "resolve_slot",
    "corrupt_observed",
    "feedback_for",
    "perceived_by_listener",
    "ChannelTrace",
    "SlotRecord",
]
