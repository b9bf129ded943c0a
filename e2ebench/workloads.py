"""The benchmark's four workloads: what each runs and how it is checked.

A *unit* is one thing a user waits for: a ``run_all`` invocation, a
``repro sweep`` invocation, or one scenario submitted to ``repro serve``
and read back.  Unit ``i`` of a run with seed ``S`` uses program seed
``S * 1000 + i``, so the same ``--seed`` always gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable

# Cells of every sweep unit and its repetitions per cell.
SWEEP_KINDS = ("lesk", "lesu", "estimation")
SWEEP_ADVERSARIES = ("single-suppressor", "estimator-attacker", "reactive", "random")
SWEEP_NS = (256, 1024, 4096)
SWEEP_REPS = 512


def program_env(traced: bool = False) -> dict:
    """The environment a program process runs in: ``src`` importable, and
    for a traced one also ``launch`` and ``tracer``."""
    paths = [str(ROOT / "src")] + ([str(BENCH)] if traced else [])
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def launch_argv(trace_dir: Path, command: str, args: list[str]) -> list[str]:
    """The traced form of a CLI invocation (see ``launch.py``)."""
    return [PYTHON, "-m", "launch", str(trace_dir), command, *args]


def unit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def spawn(argv: list[str], stdout=subprocess.DEVNULL, traced: bool = False) -> subprocess.Popen:
    """Start a program process as the leader of its own process group."""
    return subprocess.Popen(
        argv,
        stdout=stdout,
        stderr=subprocess.DEVNULL,
        env=program_env(traced),
        cwd=ROOT,
        start_new_session=True,
    )


def reap_orphans() -> None:
    """Wait for forked workers whose parent died first (we are their reaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGKILL a process group and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reap_orphans()
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)


def file_digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


@dataclass
class UnitResult:
    """One CLI unit: its timing, output digests and check failures."""

    wall: float = 0.0
    digests: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    elapsed: dict = field(default_factory=dict)  # run_all: table id -> seconds
    out: Path | None = None
    trace_dir: Path | None = None


# -- CLI workloads (run_all and sweep) -----------------------------------------


class CliWorkload:
    """A workload whose unit is one invocation of a batch CLI."""

    command: tuple[str, ...]  # arguments to ``python3`` that start the CLI
    launch_name: str  # the same CLI's name for launch.py

    def args(self, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def argv(self, seed: int, out: Path, trace_dir: Path | None = None) -> list[str]:
        if trace_dir is None:
            return [PYTHON, *self.command, *self.args(seed, out)]
        return launch_argv(trace_dir, self.launch_name, self.args(seed, out))

    def first_work(self, out: Path) -> float | None:
        """Wall-clock time of the first sign of work in *out*, if any yet."""
        raise NotImplementedError

    def check(self, out: Path, returncode: int, stdout: str) -> UnitResult:
        raise NotImplementedError


class TablesWorkload(CliWorkload):
    """``run_all`` over a fixed list of tables at one preset."""

    command = ("-m", "repro.experiments.run_all")
    launch_name = "run_all"

    def __init__(self, preset: str, ids: tuple[str, ...], jobs: int):
        self.preset = preset
        self.ids = ids
        self.jobs = jobs

    def args(self, seed, out):
        return [
            "--preset", self.preset, "--only", ",".join(self.ids),
            "--jobs", str(self.jobs), "--seed", str(seed), "--out", str(out),
        ]

    def first_work(self, out):
        try:
            with open(out / "journal.jsonl") as fh:
                line = fh.readline()
        except FileNotFoundError:
            return None
        if not line.endswith("\n"):
            return None
        return json.loads(line)["ts"]

    @staticmethod
    def journal(out: Path) -> list[dict]:
        return [json.loads(line) for line in (out / "journal.jsonl").read_text().splitlines()]

    def check(self, out, returncode, stdout):
        result = UnitResult()
        if returncode != 0:
            result.errors.append(f"run_all exited {returncode}")
            return result
        done = {r["id"]: r for r in self.journal(out) if r["event"] == "done"}
        outputs = []
        for exp_id in self.ids:
            if done.get(exp_id, {}).get("status") != "ok":
                result.errors.append(f"{exp_id}: no ok 'done' record in the journal")
                continue
            csv_path, txt_path = out / f"{exp_id}.csv", out / f"{exp_id}.txt"
            if not csv_path.is_file() or not txt_path.is_file():
                result.errors.append(f"{exp_id}: table files missing")
                continue
            if len(csv_path.read_text().splitlines()) < 2:
                result.errors.append(f"{exp_id}: table has no rows")
            outputs += [csv_path, txt_path]
        result.digests = file_digests(outputs)
        result.elapsed = {k: r["elapsed"] for k, r in done.items()}
        return result


class SweepWorkload(CliWorkload):
    """``repro sweep`` over the 36-cell grid on two supervised workers."""

    command = ("-m", "repro", "sweep")
    launch_name = "sweep"

    def args(self, seed, out):
        return [
            "--kind", ",".join(SWEEP_KINDS),
            "--adversary", ",".join(SWEEP_ADVERSARIES),
            "--n", ",".join(map(str, SWEEP_NS)),
            "--eps", "0.3", "--T", "16", "--reps", str(SWEEP_REPS),
            "--block-size", "64", "--jobs", "2", "--seed", str(seed),
            "--out", str(out),
        ]

    def first_work(self, out):
        try:
            return (out / "sweep-manifest.json").stat().st_mtime
        except FileNotFoundError:
            return None

    def check(self, out, returncode, stdout):
        result = UnitResult()
        if returncode != 0:
            result.errors.append(f"sweep exited {returncode}")
            return result
        if "quarantined=0]" not in stdout:
            result.errors.append("sweep summary reports quarantined blocks")
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = len(SWEEP_KINDS) * len(SWEEP_ADVERSARIES) * len(SWEEP_NS)
        if len(rows) != cells:
            result.errors.append(f"sweep.csv has {len(rows)} rows, expected {cells}")
        for row in rows:
            if int(row["reps"]) != SWEEP_REPS or not 0.0 <= float(row["success"]) <= 1.0:
                result.errors.append(f"bad sweep row {row}")
        result.digests = file_digests([out / "sweep.csv", out / "sweep.txt"])
        return result


# -- serve workload -------------------------------------------------------------


def scenario_doc(seed: int) -> bytes:
    """An 8-cell scenario: lesk,lesu x n 64,256 x two jammers; 64 reps."""
    return json.dumps(
        {
            "scenario": f"bench-{seed}",
            "schema": 1,
            "seed": seed,
            "grid": {
                "kind": ["lesk", "lesu"],
                "n": [64, 256],
                "eps": [0.3],
                "T": [16],
                "adversary": ["saturating", "single-suppressor"],
            },
            "reps": 64,
            "sharding": {"block_size": 32},
        },
        sort_keys=True,
    ).encode()


class Server:
    """One ``repro serve`` process and a client that sends one request at a time."""

    def __init__(self, store: Path, trace_dir: Path | None = None):
        args = ["--store", str(store), "--port", "0"]
        if trace_dir is None:
            argv = [PYTHON, "-m", "repro", "serve", *args]
        else:
            argv = launch_argv(trace_dir, "serve", args)
        self.spawned = time.perf_counter()
        self.proc = spawn(argv, stdout=subprocess.PIPE, traced=trace_dir is not None)
        self.host, self.port = "", 0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers 200; returns seconds since spawn."""
        deadline = self.spawned + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)
        while time.perf_counter() < deadline:
            try:
                status, _ = self.request("GET", "/healthz")
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200:
                return time.perf_counter() - self.spawned
        raise RuntimeError("server never became healthy")

    def request(self, method: str, path: str, body: bytes | None = None):
        """One request on a fresh connection, as the repo's own client does.

        A kept-alive connection would add a delayed-ACK stall of about
        40 ms to every response, because the server writes the headers
        and the body in two sends.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers={"Connection": "close"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (the server drains and exits), then make sure of it."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
        self.proc.stdout.close()
        kill_group(self.proc)


@dataclass
class Iteration:
    """Client-side timestamps (wall clock) of one closed-loop iteration."""

    index: int
    run_id: str = ""
    start: float = 0.0
    posted: float = 0.0
    seen_done: float = 0.0
    end: float = 0.0
    results_s: float = 0.0
    cached_submit_s: float | None = None
    list_s: float | None = None
    extras_end: float = 0.0
    table: bytes = b""


def serve_iteration(server: Server, seed: int, index: int, history: list[Iteration]) -> Iteration:
    """Submit a fresh scenario, poll until done, read results; every 5th
    iteration also resubmit an earlier document and list recent runs."""
    it = Iteration(index=index, start=time.time())
    status, body = server.request("POST", "/v1/scenarios", scenario_doc(unit_seed(seed, index)))
    it.posted = time.time()
    if status != 200:
        raise RuntimeError(f"submit returned {status}: {body[:200]!r}")
    it.run_id = json.loads(body)["run_id"]
    while True:
        status, body = server.request("GET", f"/v1/runs/{it.run_id}")
        state = json.loads(body).get("state")
        if state == "done":
            it.seen_done = time.time()
            break
        if state in ("failed", "cancelled", "quarantined"):
            raise RuntimeError(f"run {it.run_id} ended {state}")
        time.sleep(0.005)
    t0 = time.time()
    status, body = server.request("GET", f"/v1/runs/{it.run_id}/results?format=json")
    it.end = time.time()
    it.results_s = it.end - t0
    if status != 200:
        raise RuntimeError(f"results returned {status}")
    table = json.loads(body)["table"]
    if len(table["rows"]) != 8:
        raise RuntimeError(f"run {it.run_id}: {len(table['rows'])} result rows, expected 8")
    it.table = body
    it.extras_end = it.end
    if index % 5 == 4:
        earlier = history[index - 4]
        t0 = time.time()
        status, body = server.request(
            "POST", "/v1/scenarios", scenario_doc(unit_seed(seed, earlier.index))
        )
        it.cached_submit_s = time.time() - t0
        reply = json.loads(body)
        if status != 200 or reply["run_id"] != earlier.run_id or reply["state"] != "done":
            raise RuntimeError(f"cached resubmit returned {status} {reply}")
        t0 = time.time()
        status, body = server.request("GET", "/v1/runs?limit=20")
        it.list_s = time.time() - t0
        if status != 200 or not json.loads(body)["runs"]:
            raise RuntimeError(f"list returned {status}")
        it.extras_end = time.time()
    return it


def replay_identical(server: Server, run_id: str) -> bool:
    status, body = server.request("POST", f"/v1/runs/{run_id}/replay")
    return status == 200 and json.loads(body).get("identical") is True


# -- the registry -----------------------------------------------------------------

# All 22 tables, longest first, so that the two workers of ``--jobs 2``
# finish close together (A10 alone takes about 14 s at the small preset).
SMALL_TABLES = (
    "A10", "A9", "A4", "T6", "A6", "T8", "A5", "A1", "T5", "T1", "T3",
    "A8", "F1", "A7", "A3", "T7", "A2", "T9", "T4", "T10", "F2", "T2",
)
FULL_ENGINE_TABLES = ("T1", "T2", "F2", "T4", "A3")

CLI_WORKLOADS: dict[str, CliWorkload] = {
    "tables-small": TablesWorkload("small", SMALL_TABLES, jobs=2),
    "tables-full-engines": TablesWorkload("full", FULL_ENGINE_TABLES, jobs=1),
    "sweep-sharded": SweepWorkload(),
}
SERVE_WORKLOAD = "serve-closed-loop"
