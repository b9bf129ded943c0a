"""Service-level chaos: deterministic faults against the job service.

The experiment layer (PR 2) and the shard layer (PR 7) each got a chaos
harness; this is the third ring, attacking the *service substrate*
itself -- the worker processes, the stored artifacts, and the disk --
exactly the churn model the robust-leader-election literature assumes.

``serve --inject-faults`` takes the shared :class:`FaultPlan` spec syntax
restricted to service pseudo-ids (``worker:kill@SEQ``, ``worker:hang@SEQ``,
``store:tamper@SEQ``, ``disk:full@SEQ``), where ``@SEQ`` counts dispatches
across the whole worker pool, starting at 1, so a chaos schedule replays
bit-for-bit regardless of which worker draws which job.  ``worker`` atoms
fire in the pool worker like every kill/hang atom
(:meth:`FaultPlan.fire`); :class:`ServiceFaultPlan` validates the spec and
fires the other two inside the run executor.

What each atom proves:

* ``worker:kill`` -- the pool notices the sentinel, requeues the run,
  respawns the worker; the retry must complete and the recovered table
  must be byte-identical (shard checkpoints make this resumable).
* ``worker:hang`` -- heartbeats keep flowing (the beat thread survives a
  hung main thread), so this specifically exercises the per-run
  wall-clock deadline's terminate-then-kill path.
* ``store:tamper`` -- the run completes, then its stored table is
  silently perturbed without touching the checksum; verify-on-read must
  quarantine the run and never serve the bad bytes.
* ``disk:full`` -- every atomic write during the dispatch raises
  ``ENOSPC``; the run fails transiently and succeeds on retry.
"""

from __future__ import annotations

import contextlib
import errno
import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.checkpoint import failing_writes
from repro.experiments.faults import SERVICE_FAULT_KINDS, FaultPlan

__all__ = ["ServiceFaultPlan", "tamper_stored_table"]


class ServiceFaultPlan:
    """A :class:`FaultPlan` holding only service atoms."""

    def __init__(self, plan: FaultPlan):
        for fault in plan.faults:
            if fault.service_target() is None:
                raise ConfigurationError(
                    f"serve --inject-faults only accepts service fault ids "
                    f"{sorted(SERVICE_FAULT_KINDS)} (got {fault.exp_id!r}); "
                    "experiment/block faults belong to run_all/sweep"
                )
        self.plan = plan

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "ServiceFaultPlan":
        """Parse ``"worker:kill@1,disk:full@3"`` into a validated plan."""
        return cls(FaultPlan.from_spec(spec, seed=seed))

    def disk_pressure(self, seq: int):
        """Context manager: ENOSPC on every atomic write for this dispatch."""
        if self.plan.fault_for("disk", seq) is None:
            return contextlib.nullcontext()
        return failing_writes(
            lambda: OSError(errno.ENOSPC, "No space left on device (injected)")
        )

    def should_tamper(self, seq: int) -> bool:
        """Whether to tamper with this dispatch's stored table afterwards."""
        return self.plan.fault_for("store", seq) is not None


def tamper_stored_table(run_root: str | Path) -> bool:
    """Silently perturb a completed run's stored table (chaos drills only).

    Bumps the first numeric cell of the first row in every stored table
    *without* updating the embedded checksum -- the classic bit-rot /
    malicious-edit case verify-on-read exists for.  Returns True when at
    least one table was modified.
    """
    tables_dir = Path(run_root) / "tables"
    tampered = False
    for path in sorted(tables_dir.glob("*.json")):
        try:
            data = json.loads(path.read_text())
            rows = data["table"]["rows"]
            row = rows[0]
        except (OSError, json.JSONDecodeError, KeyError, IndexError):
            continue
        for key, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = value + 1
                break
        else:
            continue
        path.write_text(
            json.dumps(data, sort_keys=True, separators=(",", ":"))
        )
        tampered = True
    return tampered
