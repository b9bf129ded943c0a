"""Checkpointed run directories: manifest, journal, atomic table snapshots.

A *run directory* makes a long ``run_all`` invocation survivable: every
finished :class:`~repro.experiments.harness.Table` is checkpointed the
moment it completes, a JSONL journal records each attempt, and a manifest
makes the directory self-describing so a later ``--resume`` can refuse to
mix incompatible runs.  Layout::

    RUN_DIR/
      manifest.json         preset, ids, seed, git SHA, versions
      journal.jsonl         one JSON record per attempt / outcome event
      checkpoints/T1.json   {"checksum": sha256, "table": <Table JSON>}
      T1.txt  T1.csv        rendered outputs (same as the old --out files)
      failures.txt          failure-summary table (only when something failed)

Every file is written atomically (same-directory tmp file + ``os.replace``)
so a SIGKILL mid-write can never leave a torn checkpoint or manifest; the
journal is append-only and its reader skips a truncated final line.
Checkpoints embed a SHA-256 over their canonical payload -- corruption is
detected on load (:class:`~repro.errors.ChecksumMismatchError`) and the
runner recomputes rather than trusting a damaged file.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

from repro.errors import ChecksumMismatchError, ConfigurationError
from repro.experiments.harness import Table

__all__ = [
    "RunDir",
    "atomic_write_text",
    "failing_writes",
    "table_payload",
    "payload_checksum",
    "save_checked_table",
    "load_checked_table",
    "write_table_outputs",
    "read_journal",
    "corrupt_checkpoint",
    "build_manifest",
    "cli_invocation",
]

#: Active write-fault injectors (chaos testing only).  A stack of
#: zero-arg exception factories; when non-empty, every
#: :func:`atomic_write_text` call raises a fresh exception from the top
#: entry instead of writing.  The hook lives *inside* the writer (rather
#: than monkeypatching it) so ``from ... import atomic_write_text``
#: bindings taken by other modules are affected too.
_write_faults: list[Callable[[], BaseException]] = []


@contextlib.contextmanager
def failing_writes(make_exc: Callable[[], BaseException]):
    """Make every atomic write fail for the duration (disk-full drills)."""
    _write_faults.append(make_exc)
    try:
        yield
    finally:
        _write_faults.remove(make_exc)

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_SUBDIR = "checkpoints"
#: Block-level checkpoints written by the shard supervisor during sharded
#: sweeps (content-addressed; see experiments.shard_supervisor).
SHARD_SUBDIR = "shards"
MANIFEST_FORMAT = 1

#: Manifest keys that change results: a resume with a different value is
#: refused.  The environment keys below are advisory (warn only) -- a
#: rebuilt checkout or a NumPy upgrade *may* shift numbers, but refusing
#: would make every local resume after an unrelated commit impossible.
_MANIFEST_STRICT_KEYS = ("format", "preset", "ids", "seed")
_MANIFEST_ADVISORY_KEYS = ("git_sha", "python", "numpy", "sharded")


def atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* via a same-directory tmp file + rename."""
    if _write_faults:
        raise _write_faults[-1]()
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def table_payload(table: Table) -> str:
    """Canonical JSON payload of a table (stable key order, tight separators)."""
    return json.dumps(table.to_jsonable(), sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: str) -> str:
    """SHA-256 hex digest of a canonical payload string."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_checked_table(path: Path, table: Table) -> str:
    """Atomically write ``{"checksum", "table"}`` JSON for *table* to
    *path*; returns the checksum."""
    payload = table_payload(table)
    digest = payload_checksum(payload)
    atomic_write_text(
        path,
        json.dumps(
            {"checksum": digest, "table": json.loads(payload)},
            sort_keys=True,
            separators=(",", ":"),
        ),
    )
    return digest


def load_checked_table(path: Path, missing: str) -> Table:
    """Read a :func:`save_checked_table` file back, verifying its checksum.

    Raises :class:`ConfigurationError` with the message *missing* when the
    file does not exist, and :class:`ChecksumMismatchError` when it is not
    JSON or its table no longer matches the stored checksum.
    """
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(missing) from exc
    except json.JSONDecodeError as exc:
        raise ChecksumMismatchError(
            f"table {path} is not valid JSON ({exc})"
        ) from exc
    table = Table.from_jsonable(data["table"])
    digest = payload_checksum(table_payload(table))
    if digest != data.get("checksum"):
        raise ChecksumMismatchError(
            f"table {path} failed integrity verification "
            f"(stored {data.get('checksum')!r}, recomputed {digest!r})"
        )
    return table


def write_table_outputs(root: Path, table: Table) -> None:
    """Write the rendered ``NAME.txt`` / ``NAME.csv`` files atomically."""
    atomic_write_text(Path(root) / f"{table.name}.txt", table.render() + "\n")
    atomic_write_text(Path(root) / f"{table.name}.csv", table.to_csv() + "\n")


def read_journal(path: Path) -> list[dict]:
    """All parseable records of a JSONL journal (a torn final line is
    skipped: a kill mid-append leaves one)."""
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError:
        return []
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records


@functools.cache
def _git_sha() -> str | None:
    """HEAD commit of the checkout this code was imported from, or None
    outside a git checkout.  Asked once per process: a later checkout
    does not change the code the process already runs."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build_manifest(
    preset: str,
    ids: list[str],
    seed: int | None,
    sharded: dict | None = None,
    invocation: dict | None = None,
    scenario_digest: str | None = None,
) -> dict:
    """The self-describing header of a run directory.

    *sharded* records the intra-experiment sharding configuration
    (``shard_jobs`` et al.) when enabled.  It is advisory, not strict:
    block checkpoints are content-addressed over the full cell spec and
    partition, so resuming with different shard settings is safe (blocks
    that match restore, the rest recompute) -- but worth a warning.

    *invocation* records exactly how the run was produced: the CLI
    subcommand and argv (see :func:`cli_invocation`).  *scenario_digest*
    is the content address of the scenario document behind a service run
    (:mod:`repro.service`), so any stored run names its inputs precisely.
    Both are informational -- never compared on ``--resume``.
    """
    import numpy

    manifest = {
        "format": MANIFEST_FORMAT,
        "preset": preset,
        "ids": list(ids),
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if sharded is not None:
        manifest["sharded"] = sharded
    if invocation is not None:
        manifest["invocation"] = invocation
    if scenario_digest is not None:
        manifest["scenario_digest"] = scenario_digest
    return manifest


def cli_invocation(subcommand: str, argv: list[str] | None) -> dict:
    """The ``invocation`` manifest entry for a CLI entry point.

    *argv* is the argument list the entry point's ``main`` received;
    ``None`` means it read :data:`sys.argv` (recorded as such).
    """
    import sys

    return {
        "subcommand": subcommand,
        "argv": list(sys.argv[1:] if argv is None else argv),
    }


def corrupt_checkpoint(path: Path, seed: int = 0) -> None:
    """Deterministically damage a checkpoint file (chaos testing only).

    Overwrites the embedded checksum with a seeded fake digest, leaving the
    file valid JSON -- exactly the "silent bit-rot" case the integrity
    check exists for.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    fake = hashlib.sha256(f"corrupted:{seed}:{path.name}".encode()).hexdigest()
    data["checksum"] = fake
    atomic_write_text(path, json.dumps(data, sort_keys=True, separators=(",", ":")))


class RunDir:
    """One checkpointed run directory (see the module docstring for layout).

    Thread-safe for the runner's use: journal appends are serialized by a
    lock; checkpoint files are per-experiment so concurrent saves never
    collide.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self._journal_lock = threading.Lock()

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def read_manifest(self) -> dict | None:
        """The stored manifest, or None for a fresh/legacy directory."""
        try:
            return json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"unreadable manifest {self.manifest_path}: {exc}; "
                "this is not a valid run directory"
            ) from exc

    def init(self, manifest: dict) -> None:
        """Start a fresh run: reset stale state, write the manifest atomically.

        A fresh ``--out`` into a reused directory clears the old journal and
        checkpoints first -- otherwise a later ``--resume`` could restore
        tables computed under different parameters.
        """
        checkpoints = self.root / CHECKPOINT_SUBDIR
        checkpoints.mkdir(parents=True, exist_ok=True)
        self.journal_path.unlink(missing_ok=True)
        for stale in checkpoints.glob("*.json"):
            stale.unlink(missing_ok=True)
        shards = self.root / SHARD_SUBDIR
        if shards.is_dir():
            for stale in shards.glob("block-*.json"):
                stale.unlink(missing_ok=True)
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2, sort_keys=True)
        )

    def validate_manifest(self, expected: dict) -> list[str]:
        """Check a resume against the stored manifest.

        Raises :class:`ConfigurationError` with an actionable message when a
        result-affecting key (preset, ids, seed, format) differs; returns a
        list of human-readable warnings for advisory mismatches (git SHA,
        Python/NumPy versions).
        """
        stored = self.read_manifest()
        if stored is None:
            raise ConfigurationError(
                f"{self.root} has no {MANIFEST_NAME}; it was not created by "
                "the checkpointing runner, so --resume cannot verify it "
                "matches this invocation. Start a fresh --out directory."
            )
        mismatches = [
            f"  {key}: run dir has {stored.get(key)!r}, this invocation has "
            f"{expected.get(key)!r}"
            for key in _MANIFEST_STRICT_KEYS
            if stored.get(key) != expected.get(key)
        ]
        if mismatches:
            raise ConfigurationError(
                "refusing to resume: the run directory was created with "
                "different parameters --\n" + "\n".join(mismatches) + "\n"
                "Re-run with the original --preset/--only/--seed flags, or "
                "start a fresh --out directory."
            )
        return [
            f"manifest {key} changed since the checkpointed run: "
            f"{stored.get(key)!r} -> {expected.get(key)!r} (results may shift)"
            for key in _MANIFEST_ADVISORY_KEYS
            if stored.get(key) != expected.get(key)
        ]

    # -- journal -----------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    def append_journal(self, record: dict) -> None:
        """Append one event record (adds a wall-clock ``ts`` field)."""
        line = json.dumps({"ts": round(time.time(), 3), **record}, sort_keys=True)
        with self._journal_lock:
            with open(self.journal_path, "a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def read_journal(self) -> list[dict]:
        """All parseable journal records (a torn final line is skipped)."""
        return read_journal(self.journal_path)

    # -- checkpoints -------------------------------------------------------

    def checkpoint_path(self, exp_id: str) -> Path:
        """Where one experiment's checkpoint file lives."""
        return self.root / CHECKPOINT_SUBDIR / f"{exp_id}.json"

    def has_checkpoint(self, exp_id: str) -> bool:
        """Whether a checkpoint file exists (integrity checked on load)."""
        return self.checkpoint_path(exp_id).exists()

    def save_table(self, table: Table) -> str:
        """Atomically checkpoint a finished table; returns its checksum."""
        path = self.checkpoint_path(table.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return save_checked_table(path, table)

    def load_table(self, exp_id: str) -> Table:
        """Load and integrity-check one checkpointed table.

        Raises :class:`ChecksumMismatchError` when the stored digest does
        not match the payload or the file is not JSON, and
        :class:`ConfigurationError` when the file is missing.
        """
        return load_checked_table(
            self.checkpoint_path(exp_id), f"no checkpoint for {exp_id} in {self.root}"
        )

    def write_outputs(self, table: Table) -> None:
        """Write the rendered ``ID.txt`` / ``ID.csv`` files atomically."""
        write_table_outputs(self.root, table)
