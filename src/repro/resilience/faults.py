"""Model-level fault injection: station churn, feedback corruption, skew.

PR 2 made the *harness* fault-tolerant (worker crashes, hangs, corrupt
checkpoints); this module stresses the simulated **model** itself.  A
:class:`FaultModel` declares, deterministically and seeded through
:mod:`repro.rng`, three composable fault families:

**Station churn** (cf. Augustine et al., *Robust Leader Election in a
Fast-Changing World*):

* ``crash_slots`` / ``crash_rate`` -- stations fail permanently, at listed
  slots or as independent per-slot Bernoulli trials;
* ``sleep_spans`` -- a station powers down for ``[start, end)`` and resumes
  with its state frozen;
* ``join_slots`` -- stations are dormant until their join slot, then start
  with fresh state.

**Feedback corruption** (the channel lies to everyone alike):

* ``flip_slots`` / ``flip_rate`` -- the observed state is flipped
  ``Null <-> Collision`` (note a fault *can* fabricate a Null, which the
  model's adversary cannot -- that is the point of injecting it);
* ``erase_slots`` / ``erase_rate`` -- feedback is erased: no station
  observes the slot (a successful Single goes unheard);
* ``downgrade_slots`` -- collision detection degrades for the slot
  (strong-CD behaves like weak/no-CD): a Single is reported as Collision,
  so a would-be winner does not learn it won.

**Clock skew**:

* ``skew_rate`` -- each awake station independently misses each slot
  (neither transmits nor hears it).

All realizations flow from ``(model, run seed)`` through
:class:`numpy.random.Generator` spawning, so a faulted run reproduces
bit-for-bit and the three engines can pin fixed-seed regressions.  The
engines consume two views of one realization:

* :class:`RealizedFaults` -- per-station schedule for the faithful engine
  and aggregate (count-level) per-slot state for the fast engine;
* :class:`BatchFaultState` -- the batched engine's vectorized fault masks
  (churn shared across columns, rate-based corruption drawn per column).

Uniform engines apply clock skew as transmit thinning
(``p_eff = p * (1 - skew_rate)``; exact for the transmitter-count law) --
per-station missed *observations* are only representable in the faithful
engine, which is the ground truth for skew.  See ``docs/resilience.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "FaultModel",
    "SlotFaults",
    "RealizedFaults",
    "BatchFaultState",
    "NO_FAULTS",
]


def _check_rate(name: str, rate: float) -> float:
    if isinstance(rate, bool):
        raise ConfigurationError(f"{name} must be a number, got {rate!r}")
    if not (0.0 <= rate <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {rate!r}")
    return float(rate)


def _check_slots(name: str, slots: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(s) for s in slots)
    for s in out:
        if s < 0:
            raise ConfigurationError(f"{name} entries must be >= 0, got {s}")
    return out


@dataclass(frozen=True)
class FaultModel:
    """Declarative, composable model-level fault specification.

    All fields default to "no fault"; :attr:`enabled` is False for the
    default instance, and every engine skips its fault path entirely in
    that case (the no-fault hot path is bit-identical to a build without
    this subsystem).  Rates are stored as floats, so ``0`` and ``0.0``
    give equal models with equal JSON.
    """

    # -- station churn -----------------------------------------------------
    #: One (seeded-random) station crashes permanently at each listed slot.
    crash_slots: tuple[int, ...] = ()
    #: Per-slot probability that each awake station crashes permanently.
    crash_rate: float = 0.0
    #: One station sleeps during each listed ``[start, end)`` span.
    sleep_spans: tuple[tuple[int, int], ...] = ()
    #: One station stays dormant until each listed slot, then joins fresh.
    join_slots: tuple[int, ...] = ()
    # -- feedback corruption ----------------------------------------------
    #: Observed state flipped ``Null <-> Collision`` at these slots.
    flip_slots: tuple[int, ...] = ()
    #: Per-slot probability of a ``Null <-> Collision`` flip.
    flip_rate: float = 0.0
    #: Feedback erased (slot unobserved by everyone) at these slots.
    erase_slots: tuple[int, ...] = ()
    #: Per-slot probability of an erasure.
    erase_rate: float = 0.0
    #: Collision detection downgraded (Single reported as Collision) here.
    downgrade_slots: tuple[int, ...] = ()
    # -- clock skew --------------------------------------------------------
    #: Per-slot probability that each awake station misses the slot.
    skew_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "crash_slots", _check_slots("crash_slots", self.crash_slots)
        )
        object.__setattr__(
            self, "join_slots", _check_slots("join_slots", self.join_slots)
        )
        for name in ("flip_slots", "erase_slots", "downgrade_slots"):
            object.__setattr__(self, name, _check_slots(name, getattr(self, name)))
        spans = tuple(
            (int(a), int(b)) for a, b in self.sleep_spans
        )
        for a, b in spans:
            if a < 0 or b <= a:
                raise ConfigurationError(
                    f"sleep_spans entries must satisfy 0 <= start < end, "
                    f"got ({a}, {b})"
                )
        object.__setattr__(self, "sleep_spans", spans)
        for name in ("crash_rate", "flip_rate", "erase_rate", "skew_rate"):
            object.__setattr__(self, name, _check_rate(name, getattr(self, name)))
        # Whether any fault is configured at all.  Computed once; not a
        # field, so equality, JSON and digests ignore it.
        object.__setattr__(
            self,
            "enabled",
            any(getattr(self, f.name) != f.default for f in fields(self)),
        )

    @property
    def has_churn(self) -> bool:
        return bool(
            self.crash_slots
            or self.crash_rate
            or self.sleep_spans
            or self.join_slots
        )

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        """Plain-data form for repro bundles and manifests."""
        return {
            "crash_slots": list(self.crash_slots),
            "crash_rate": self.crash_rate,
            "sleep_spans": [list(s) for s in self.sleep_spans],
            "join_slots": list(self.join_slots),
            "flip_slots": list(self.flip_slots),
            "flip_rate": self.flip_rate,
            "erase_slots": list(self.erase_slots),
            "erase_rate": self.erase_rate,
            "downgrade_slots": list(self.downgrade_slots),
            "skew_rate": self.skew_rate,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "FaultModel":
        """Inverse of :meth:`to_jsonable`; validates like the constructor."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fault model fields: {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        if "sleep_spans" in kwargs:
            kwargs["sleep_spans"] = tuple(
                tuple(span) for span in kwargs["sleep_spans"]
            )
        return cls(**kwargs)

    def realize(self, n: int, max_slots: int, rng: np.random.Generator) -> "RealizedFaults":
        """Realize this model for one run of *n* stations (scalar engines)."""
        return RealizedFaults(self, n, max_slots, rng)

    def realize_batch(
        self, n: int, reps: int, max_slots: int, rng: np.random.Generator
    ) -> "BatchFaultState":
        """Realize vectorized fault masks for the batched engine."""
        return BatchFaultState(self, n, reps, max_slots, rng)


#: Shared immutable "no faults" instance.
NO_FAULTS = FaultModel()


@dataclass(slots=True)
class SlotFaults:
    """Faults applying to one slot (scalar-engine view)."""

    #: Number of stations participating this slot (awake, joined, on-clock).
    awake: int
    #: Transmit-probability multiplier (clock-skew thinning; uniform engines).
    p_scale: float
    #: Flip the observed state ``Null <-> Collision``.
    flip: bool
    #: Erase the slot's feedback entirely.
    erase: bool
    #: Collision detection downgraded (Single reported as Collision).
    downgrade: bool

    @property
    def corrupted(self) -> bool:
        """Whether observation-layer corruption applies to this slot."""
        return self.flip or self.erase or self.downgrade


class RealizedFaults:
    """One run's deterministic fault realization (scalar engines).

    Station-level churn is realized eagerly: ``crash_slot[sid]`` /
    ``join_slot[sid]`` arrays plus sleep spans assigned to seeded-random
    distinct stations.  Corruption and skew are drawn lazily, one slot at a
    time, from a dedicated stream -- calls must therefore proceed in slot
    order (both engines already guarantee that).  The vectorized engine
    draws corruption a block of slots at a time instead
    (:meth:`corruption_block`), consuming the same stream in the same order.
    """

    def __init__(
        self, model: FaultModel, n: int, max_slots: int, rng: np.random.Generator
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.model = model
        self.n = int(n)
        self.max_slots = int(max_slots)
        churn_rng, self._corruption_rng, self._skew_rng = rng.spawn(3)

        # Assign scheduled churn events to distinct stations via one seeded
        # permutation: crashes from the front, joins from the back, sleeps
        # from the middle.  Over-subscription (more events than stations)
        # wraps around -- later assignments override earlier ones.
        perm = churn_rng.permutation(self.n)
        self.crash_slot = np.full(self.n, -1, dtype=np.int64)
        self.join_slot = np.zeros(self.n, dtype=np.int64)
        self.sleep_span = np.full((self.n, 2), -1, dtype=np.int64)
        for i, slot in enumerate(sorted(model.crash_slots)):
            self.crash_slot[perm[i % self.n]] = slot
        for i, slot in enumerate(sorted(model.join_slots)):
            self.join_slot[perm[self.n - 1 - (i % self.n)]] = slot
        offset = len(model.crash_slots)
        for i, (a, b) in enumerate(model.sleep_spans):
            self.sleep_span[perm[(offset + i) % self.n]] = (a, b)
        # Rate-based crashes: i.i.d. per-slot Bernoulli trials per station
        # are equivalent to one geometric lifetime draw per station.
        if model.crash_rate > 0.0:
            lifetimes = churn_rng.geometric(model.crash_rate, size=self.n) - 1
            rate_crash = self.join_slot + lifetimes
            mask = (self.crash_slot < 0) | (rate_crash < self.crash_slot)
            mask &= rate_crash < self.max_slots
            self.crash_slot[mask] = rate_crash[mask]

        self._flip_slots = frozenset(model.flip_slots)
        self._erase_slots = frozenset(model.erase_slots)
        self._downgrade_slots = frozenset(model.downgrade_slots)
        self._p_scale = 1.0 - model.skew_rate
        # Injection counters (telemetry + engine summaries).
        self.counters = {
            "crash": 0,
            "sleep_slots": 0,
            "join": 0,
            "flip": 0,
            "erase": 0,
            "downgrade": 0,
            "skew_slots": 0,
        }
        self._awake_mask = np.ones(self.n, dtype=bool)
        self._crash_seen = np.zeros(self.n, dtype=bool)
        # Stations present from slot 0 never "join"; only join_slot > 0
        # transitions are counted as injections.
        self._join_seen = self.join_slot <= 0

    # -- per-slot API ------------------------------------------------------

    def station_awake(self, slot: int) -> np.ndarray:
        """Mask of stations participating in *slot* (faithful engine).

        Excludes crashed, sleeping and not-yet-joined stations; clock skew
        is drawn on top per station (a skewed station misses the slot
        entirely: no transmission, no feedback).
        """
        mask = self._awake_mask
        np.greater(self.crash_slot, slot, out=mask, where=self.crash_slot >= 0)
        mask[self.crash_slot < 0] = True
        mask &= self.join_slot <= slot
        asleep = (self.sleep_span[:, 0] <= slot) & (slot < self.sleep_span[:, 1])
        mask &= ~asleep
        self._count_churn(slot, asleep)
        c = self.counters
        if self.model.skew_rate > 0.0:
            skewed = mask & (self._skew_rng.random(self.n) < self.model.skew_rate)
            c["skew_slots"] += int(skewed.sum())
            mask = mask & ~skewed
        return mask

    def awake_count(self, slot: int) -> int:
        """Number of participating stations in *slot* (uniform engines).

        Count-level view of the same realization: crashed / sleeping /
        unjoined stations are excluded; clock skew is *not* subtracted here
        -- uniform engines apply it as transmit thinning via
        :attr:`SlotFaults.p_scale` instead.
        """
        alive = (self.crash_slot < 0) | (self.crash_slot > slot)
        alive &= self.join_slot <= slot
        asleep = (self.sleep_span[:, 0] <= slot) & (slot < self.sleep_span[:, 1])
        alive &= ~asleep
        self._count_churn(slot, asleep)
        return int(alive.sum())

    def _count_churn(self, slot: int, asleep: np.ndarray) -> None:
        """Update churn injection counters for *slot* (idempotent per
        station for crash/join; called once per slot by every engine)."""
        c = self.counters
        c["sleep_slots"] += int(asleep.sum())
        fresh_crash = (self.crash_slot >= 0) & (self.crash_slot <= slot)
        new = fresh_crash & ~self._crash_seen
        if new.any():
            c["crash"] += int(new.sum())
            self._crash_seen |= new
        joined = (self.join_slot <= slot) & ~self._join_seen
        if joined.any():
            c["join"] += int(joined.sum())
            self._join_seen |= joined

    def begin_slot(self, slot: int, awake: int) -> SlotFaults:
        """Corruption/skew flags for *slot* (must be called in slot order)."""
        m = self.model
        flip = slot in self._flip_slots
        erase = slot in self._erase_slots
        if m.flip_rate > 0.0:
            flip = flip or bool(self._corruption_rng.random() < m.flip_rate)
        if m.erase_rate > 0.0:
            erase = erase or bool(self._corruption_rng.random() < m.erase_rate)
        downgrade = slot in self._downgrade_slots
        c = self.counters
        if flip:
            c["flip"] += 1
        if erase:
            c["erase"] += 1
        if downgrade:
            c["downgrade"] += 1
        return SlotFaults(
            awake=awake,
            p_scale=self._p_scale,
            flip=flip,
            erase=erase,
            downgrade=downgrade,
        )

    def corruption_block(self, start: int, count: int) -> np.ndarray:
        """Flip/erase/downgrade flags for slots ``start .. start+count-1``.

        Returns a ``(3, count)`` boolean array (rows: flip, erase,
        downgrade) equal to what *count* successive :meth:`begin_slot`
        calls return, and consumes the corruption stream exactly as they
        do: per slot, a flip draw then an erase draw, each skipped when
        its rate is zero or the slot is scheduled for that fault.  Counts
        nothing: pass the rows of the slots the run actually used to
        :meth:`count_corruption`.
        """
        m = self.model
        flags = np.zeros((3, count), dtype=bool)
        for row, scheduled in enumerate(
            (self._flip_slots, self._erase_slots, self._downgrade_slots)
        ):
            if scheduled:
                hits = [s - start for s in scheduled if start <= s < start + count]
                flags[row, hits] = True
        rates = np.array([m.flip_rate, m.erase_rate])
        if rates.any():
            # One draw per (slot, fault) pair that begin_slot draws for, in
            # its order: slot-major, flip before erase.
            need = ~flags[:2].T & (rates > 0.0)
            drawn = np.ones((count, 2))
            drawn[need] = self._corruption_rng.random(int(need.sum()))
            flags[:2] |= (drawn < rates).T
        return flags

    def count_corruption(self, flags: np.ndarray) -> None:
        """Count the injections in *flags*, a ``(3, k)`` prefix of a
        :meth:`corruption_block` result (the slots a run used)."""
        flip, erase, downgrade = flags.sum(axis=1).tolist()
        c = self.counters
        c["flip"] += flip
        c["erase"] += erase
        c["downgrade"] += downgrade

    # -- leader bookkeeping ------------------------------------------------

    def pick_awake_station(self, slot: int, rng: np.random.Generator) -> int:
        """A uniformly random participating station id (fast engine's
        symmetric leader draw, restricted to stations awake in *slot*)."""
        alive = (self.crash_slot < 0) | (self.crash_slot > slot)
        alive &= self.join_slot <= slot
        alive &= ~(
            (self.sleep_span[:, 0] <= slot) & (slot < self.sleep_span[:, 1])
        )
        ids = np.flatnonzero(alive)
        if ids.size == 0:
            raise ConfigurationError(
                f"no awake station to elect at slot {slot} (all churned out)"
            )
        return int(ids[rng.integers(ids.size)])

    def leader_survives(self, station: int) -> bool:
        """Whether *station* is never scheduled to crash within the horizon."""
        return bool(self.crash_slot[station] < 0)

    def station_participating(self, station: int, slot: int) -> bool:
        """Whether *station* was churned into *slot* (ignores clock skew;
        side-effect-free, usable out of slot order for post-hoc audits)."""
        crash = self.crash_slot[station]
        if 0 <= crash <= slot:
            return False
        if self.join_slot[station] > slot:
            return False
        a, b = self.sleep_span[station]
        return not (a <= slot < b)

    # -- telemetry ---------------------------------------------------------

    def publish(self, tel) -> None:
        """Publish injection counters to a live telemetry sink."""
        c = self.counters
        for kind in ("crash", "sleep_slots", "join", "skew_slots"):
            if c[kind]:
                tel.counter("faults_injected_total", kind=kind).inc(c[kind])
        for kind in ("flip", "erase", "downgrade"):
            if c[kind]:
                tel.counter("faults_injected_total", kind=kind).inc(c[kind])
                tel.counter("feedback_corrupted_total", kind=kind).inc(c[kind])
        if c["crash"]:
            tel.counter("stations_crashed_total").inc(c["crash"])


class BatchFaultState:
    """Vectorized fault masks for the batched engine.

    Churn (and its awake count) is realized **once** and shared by every
    column, mirroring how the deterministic vector adversaries apply one
    pattern across the batch; rate-based corruption is drawn per column per
    slot, keeping replications statistically independent where the model is
    probabilistic.  Scheduled corruption slots broadcast to all columns.
    """

    def __init__(
        self,
        model: FaultModel,
        n: int,
        reps: int,
        max_slots: int,
        rng: np.random.Generator,
    ) -> None:
        self.model = model
        self.reps = int(reps)
        # Shared churn realization: reuse the scalar realization's count
        # view (one station-level draw for the whole batch).
        self.realized = RealizedFaults(model, n, max_slots, rng.spawn(1)[0])
        self._corruption_rng = rng.spawn(1)[0]
        self.p_scale = 1.0 - model.skew_rate
        self.counters = self.realized.counters

    def awake_count(self, slot: int) -> int:
        """Participating stations in *slot* (identical across columns)."""
        return self.realized.awake_count(slot)

    def begin_slot(
        self, slot: int, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Per-column ``(flip, erase)`` masks plus the downgrade flag.

        Only *active* columns draw corruption; retired columns' masks are
        forced False so counters track injections into live replications.
        """
        m = self.model
        reps = self.reps
        if slot in self.realized._flip_slots:
            flip = active.copy()
        elif m.flip_rate > 0.0:
            flip = active & (self._corruption_rng.random(reps) < m.flip_rate)
        else:
            flip = np.zeros(reps, dtype=bool)
        if slot in self.realized._erase_slots:
            erase = active.copy()
        elif m.erase_rate > 0.0:
            erase = active & (self._corruption_rng.random(reps) < m.erase_rate)
        else:
            erase = np.zeros(reps, dtype=bool)
        downgrade = slot in self.realized._downgrade_slots
        c = self.counters
        c["flip"] += int(flip.sum())
        c["erase"] += int(erase.sum())
        if downgrade:
            c["downgrade"] += int(active.sum())
        return flip, erase, downgrade

    def pick_awake_stations(
        self, slot: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Leader ids for *count* winning columns, uniform over awake ids."""
        r = self.realized
        alive = (r.crash_slot < 0) | (r.crash_slot > slot)
        alive &= r.join_slot <= slot
        alive &= ~((r.sleep_span[:, 0] <= slot) & (slot < r.sleep_span[:, 1]))
        ids = np.flatnonzero(alive)
        if ids.size == 0:
            raise ConfigurationError(
                f"no awake station to elect at slot {slot} (all churned out)"
            )
        return ids[rng.integers(ids.size, size=count)]

    def leaders_survive(self, stations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`RealizedFaults.leader_survives`."""
        return self.realized.crash_slot[stations] < 0

    def publish(self, tel) -> None:
        """Publish injection counters to a live telemetry sink."""
        self.realized.publish(tel)
