"""The benchmark's workloads: closed-loop campaign ops, one client, one
grade in flight.

A *runtime* is the system under test as a user starts it: the library
in this process (``b14-table2-seu``) or a ``repro serve`` subprocess
driven over HTTP (``service-mixed``). Each op uses a
fresh seed, so campaign ids, golden traces and stores are new on every
op and no memo can hide work.

Ops are recorded in a :class:`Window`; :func:`verify` regrades a
deterministic subset of them afterwards with the ``numpy`` engine, in
this process, with every cache cleared.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from tracing import clock

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
RUN = os.path.join(HERE, "run.py")

TECHNIQUES = ("mask_scan", "state_scan", "time_multiplexed")
#: service-mixed writes alternate between these sampled SEU campaigns
SERVICE_WRITES = (("b04", 4000), ("b14", 4000))
#: one round of the reads service-mixed issues back to back while a
#: write runs; rounds repeat until the closing status poll reads done
SERVICE_READS = ("flop_failures", "classes", "results", "status")
#: besides the first op of each rotation slot, every VERIFY_EVERY-th op
#: of a window is regraded afterwards
VERIFY_EVERY = 50
#: longest a single op or subprocess start may take
OP_TIMEOUT_S = 120.0

WORKLOADS = ("b14-table2-seu", "service-mixed")


class OpError(Exception):
    """An op failed: non-2xx reply, failed campaign or bad read-back."""


class SetupError(Exception):
    """The workload could not be set up as the benchmark requires."""


@dataclass
class Op:
    kind: str  # "campaign" or "read"
    op_id: str
    start: float
    end: float
    ok: bool
    error: str = ""
    faults: int = 0
    specs: List[Dict] = field(default_factory=list)
    returned: Dict = field(default_factory=dict)
    info: Dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Window:
    """The ops of one timed window, in issue order. ``paused_s`` is the
    time spent in ``b14-table2-seu`` store read-backs, which the window
    excludes."""

    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0
    paused_s: float = 0.0

    def campaigns(self, ok: bool = True) -> List[Op]:
        return [op for op in self.ops if op.kind == "campaign" and op.ok == ok]

    def reads(self) -> List[Op]:
        return [op for op in self.ops if op.kind == "read" and op.ok]

    def failed(self) -> List[Op]:
        return [op for op in self.ops if not op.ok]


def op_seeds(workload: str, seed: int) -> Iterator[int]:
    """Distinct per-op seeds derived from the workload seed argument."""
    rng = random.Random(f"{workload}/{seed}")
    seen = set()
    while True:
        value = rng.randrange(1, 2**31 - 1)
        if value not in seen:
            seen.add(value)
            yield value


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# subprocesses
# ----------------------------------------------------------------------
class Subprocess:
    """A ``repro`` CLI daemon started through the benchmark's launcher,
    ready once it prints its ``listening on host:port`` line."""

    def __init__(self, argv: List[str], log_path: str,
                 trace_path: Optional[str] = None):
        command = [sys.executable, LAUNCHER]
        if trace_path:
            command += ["--trace-out", trace_path]
        self._log = open(log_path, "w", encoding="utf-8")
        self._drain = None
        self.proc = subprocess.Popen(
            command + ["--", *argv], stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    break
            else:
                self.close()
                raise SetupError(
                    f"{argv[0]} exited before listening; see {log_path}")
        finally:
            timer.cancel()
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """SIGINT (the daemons' clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# runtimes
# ----------------------------------------------------------------------
class Library:
    """``b14-table2-seu``: campaigns through ``CampaignRunner`` in this
    process (serial transport, JSONL store). Each finished campaign is read back once
    from its store, the read a user makes to inspect it; the window's
    clock stops during that read, so it stays out of ``faults_per_s``."""

    def __init__(self, workdir: str, tracer=None):
        from repro.run.runner import CampaignRunner

        self.tracer = tracer
        self.store_root = os.path.join(workdir, "store")
        self.runner = CampaignRunner(workers=1, store_root=self.store_root)
        #: ops per turn of the workload's rotation (verify covers each)
        self.rotation = 1

    def warm(self) -> None:
        """One small b14 grade: loads the kernel, compiles b14, builds
        the fused program. Fails if the native kernel did not run."""
        from repro.run.spec import CampaignSpec
        from repro.sim.backends import get_engine

        self.runner.grade(CampaignSpec("b14", "time_multiplexed", sample=64))
        if not get_engine("fused").last_stats.get("native"):
            raise SetupError(
                "the fused engine graded without its native kernel; the "
                "benchmark would measure the numpy plan (is a C compiler "
                "installed?)")

    def op(self, index: int, seed: int, window: Window) -> None:
        from repro.run.spec import CampaignSpec

        specs = [CampaignSpec("b14", technique, seed=seed)
                 for technique in TECHNIQUES]
        op_id = f"op{index}"
        self._tag(op_id)
        start = clock()
        try:
            # CampaignRunner.sweep's steps through public calls: grade the
            # shared oracle once, account it once per technique.
            oracle = self.runner.grade(specs[0])
            results = [self.runner.run(spec, oracle=oracle) for spec in specs]
            returned = {
                "digest": oracle.outcome_digest(),
                "classes": {key.value: count for key, count
                            in results[0].dictionary.counts().items()},
                "total_cycles": {spec.technique: result.total_cycles
                                 for spec, result in zip(specs, results)},
            }
            end = clock()
        except Exception as error:  # an op failure is counted, not fatal
            window.ops.append(Op("campaign", op_id, start, clock(), False,
                                 f"{type(error).__name__}: {error}"))
            return
        window.ops.append(Op(
            "campaign", op_id, start, end, True, faults=oracle.num_faults,
            specs=[spec.to_dict() for spec in specs], returned=returned,
        ))
        self._read_back(window, specs[0].campaign_id, oracle.num_faults,
                        returned["classes"]["failure"])

    def _read_back(self, window: Window, campaign_id: str, num_faults: int,
                   failures: int) -> None:
        """Read a finished campaign back from its store
        (``ResultsStore.completed()``), checked against the graded fault
        and failure counts; the window is paused meanwhile."""
        from repro.run.store import ResultsStore

        self._tag("read")
        start = clock()
        try:
            records = ResultsStore(
                os.path.join(self.store_root, campaign_id)).completed()
            end = clock()
            read_faults = sum(record.num_faults for record in records.values())
            read_failures = sum(
                1 for record in records.values()
                for cycle in record.fail_cycles if cycle >= 0)
            if (read_faults, read_failures) != (num_faults, failures):
                raise OpError(
                    f"store read-back of {campaign_id}: {read_faults} faults, "
                    f"{read_failures} failures; graded {num_faults}, {failures}")
            window.ops.append(Op("read", campaign_id, start, end, True))
        except Exception as error:
            window.ops.append(Op("read", campaign_id, start, clock(), False,
                                 f"{type(error).__name__}: {error}"))
        window.paused_s += clock() - start

    def _tag(self, op_id: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(os.getpid())

    def close(self) -> None:
        self.runner.close()


class Service:
    """``service-mixed``: a ``repro serve`` subprocess and one HTTP
    client. The client POSTs a campaign and, until it is done, issues
    rounds of reads back to back, each round ending with the status
    poll."""

    WARM_WRITES = (("b14", 64), ("b04", 64))

    def __init__(self, workdir: str, trace_path: Optional[str] = None):
        store = os.path.join(workdir, "store")
        self.db_path = os.path.join(store, "service.db")
        self.server = Subprocess(
            ["serve", "--listen", "127.0.0.1:0", "--store", store, "--quiet"],
            os.path.join(workdir, "serve.log"), trace_path)
        self.conn = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=OP_TIMEOUT_S)
        self.rotation = len(SERVICE_WRITES)
        self.done: List[Tuple[str, str]] = []
        self.results_read = 0

    def request(self, method: str, path: str, body: Optional[Dict] = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    @staticmethod
    def _spec(circuit: str, sample: int, seed: int) -> Dict:
        return {"circuit": circuit, "technique": "time_multiplexed",
                "seed": seed, "sample": sample}

    def _write(self, spec: Dict, window: Optional[Window] = None):
        """POST a campaign and read until it is done; returns its final
        row and its results. Without a window only the status is polled
        (the untimed warm-up)."""
        status, row = self.request("POST", "/campaigns", spec)
        if status != 201:
            raise OpError(f"POST /campaigns returned {status}: {row}")
        campaign_id = row["campaign_id"]
        deadline = clock() + OP_TIMEOUT_S
        while row.get("status") != "done":
            if row.get("status") in ("failed", "cancelled") or clock() > deadline:
                raise OpError(f"campaign {campaign_id} ended {row.get('status')}: "
                              f"{row.get('error')}")
            # every round is whole, so each read kind is issued equally often
            for kind in (SERVICE_READS if window else ("status",)):
                data = self._read(window, kind, campaign_id)
            row = data
        status, results = self.request("GET", f"/campaigns/{campaign_id}/results")
        if status != 200:
            raise OpError(f"GET results of {campaign_id} returned {status}")
        return row, results

    def _read(self, window: Optional[Window], kind: str, campaign_id: str) -> Dict:
        """One GET. The status poll of the campaign being written raises
        on failure (the write cannot go on); other reads are counted."""
        digest = None
        if kind == "status":
            path = f"/campaigns/{campaign_id}"
        elif kind == "results":
            campaign_id, digest = self.done[self.results_read % len(self.done)]
            self.results_read += 1
            path = f"/campaigns/{campaign_id}/results"
        else:
            path = f"/query?kind={kind}"
        start = clock()
        try:
            status, data = self.request("GET", path)
            end = clock()
            if status != 200:
                raise OpError(f"GET {path} returned {status}")
            if digest is not None and data.get("oracle_digest") != digest:
                raise OpError(f"GET {path}: digest changed since it completed")
        except Exception as error:  # counted; a failed poll also fails the write
            if window is not None:
                window.ops.append(Op("read", path, start, clock(), False,
                                     f"{type(error).__name__}: {error}"))
            if kind == "status":
                raise
            return {}
        if window is not None:
            window.ops.append(Op("read", path, start, end, True))
        return data

    def warm(self) -> None:
        """Grade a tiny b14 and b04 campaign: the server compiles both
        circuits and loads its kernel before the first timed op."""
        for circuit, sample in self.WARM_WRITES:
            try:
                row, results = self._write(self._spec(circuit, sample, 0))
            except OpError as error:
                raise SetupError(f"warm-up campaign failed: {error}") from None
            self.done.append((row["campaign_id"], results["oracle_digest"]))

    def _db_bytes(self) -> int:
        return sum(os.path.getsize(path) for path in
                   (self.db_path, self.db_path + "-wal") if os.path.exists(path))

    def op(self, index: int, seed: int, window: Window) -> None:
        circuit, sample = SERVICE_WRITES[index % len(SERVICE_WRITES)]
        spec = self._spec(circuit, sample, seed)
        op_id = f"op{index}"
        db_before = self._db_bytes()
        start = clock()
        try:
            row, results = self._write(spec, window)
            end = clock()
        except Exception as error:  # an op failure is counted, not fatal
            window.ops.append(Op("campaign", op_id, start, clock(), False,
                                 f"{type(error).__name__}: {error}"))
            return
        window.ops.append(Op(
            "campaign", op_id, start, end, True, faults=results["num_faults"],
            specs=[spec],
            returned={
                "digest": results["oracle_digest"],
                "classes": results["classes"],
                "total_cycles": {spec["technique"]: results["total_cycles"]},
            },
            info={
                "queue_wait_s": row["started_at"] - row["submitted_at"],
                "run_s": row["finished_at"] - row["started_at"],
                "rows": results["num_faults"] + len(results["shards"]),
                "db_bytes": self._db_bytes() - db_before,
            },
        ))
        self.done.append((row["campaign_id"], results["oracle_digest"]))

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        self.conn.close()
        self.server.close()


def start(workload: str, workdir: str, tracer=None,
          trace_path: Optional[str] = None):
    """Start a workload's runtime as a user would; returns it and the
    seconds that took (import time excluded for the library client)."""
    os.makedirs(workdir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    began = clock()
    if workload == "service-mixed":
        runtime = Service(workdir, trace_path)
    else:
        # the library keeps session caches per process; a fresh start
        # must not inherit the previous start's compiled b14
        from repro.run.worker import clear_scenarios
        from repro.sim.cache import clear_caches

        clear_caches()
        clear_scenarios()
        runtime = Library(workdir, tracer)
    try:
        runtime.warm()
    except Exception:
        runtime.close()
        raise
    return runtime, clock() - began


def probe_setup(workload: str, workdir: str) -> float:
    """Seconds from launch until the first op could be issued.

    ``b14-table2-seu`` launches a fresh interpreter that imports,
    creates the runner and warms up, so imports count; the service
    workload starts (and stops) a fresh daemon.
    """
    if workload == "service-mixed":
        runtime, seconds = start(workload, workdir)
        runtime.close()
        return seconds
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, REPRO_CACHE_DIR=os.path.join(workdir, "cache"))
    began = clock()
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--setup-probe",
         "--workdir", workdir],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        seconds = clock() - began
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=OP_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return seconds


def run_window(runtime, seconds: float, seeds: Iterator[int],
               first: int = 0) -> Window:
    """Issue ops back to back until ``seconds`` have passed, not counting
    paused time; the op in flight at the deadline completes and counts."""
    window = Window()
    began = clock()
    index = first
    while clock() - began - window.paused_s < seconds:
        runtime.op(index, next(seeds), window)
        index += 1
    window.wall_s = clock() - began - window.paused_s
    return window


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def regrade(specs: List[Dict]) -> Dict:
    """Grade a spec serially with the ``numpy`` engine, every cache
    cleared and the disk cache off, and account each technique."""
    from repro.emu.campaign import run_campaign
    from repro.run.spec import CampaignSpec
    from repro.sim.cache import clear_caches
    from repro.sim.parallel import grade_faults

    clear_caches()
    first = CampaignSpec.from_dict(specs[0])
    scenario = first.scenario()
    oracle = grade_faults(scenario.netlist, scenario.testbench, scenario.faults,
                          backend="numpy")
    total_cycles = {}
    for data in specs:
        spec = CampaignSpec.from_dict(data)
        result = run_campaign(
            scenario.netlist, scenario.testbench, spec.technique,
            board=spec.board_model(), faults=scenario.faults, oracle=oracle,
            scan_chains=spec.scan_chains, engine="numpy")
        total_cycles[spec.technique] = result.total_cycles
    classes = {key.value: count
               for key, count in result.dictionary.counts().items()}
    return {"digest": oracle.outcome_digest(), "classes": classes,
            "total_cycles": total_cycles}


def to_verify(window: Window, rotation: int) -> List[Op]:
    """The window's completed campaign ops that are regraded: the first
    op of each of the ``rotation`` slots (every write kind the workload
    rotates through), then every VERIFY_EVERY-th."""
    issued = [op for op in window.ops if op.kind == "campaign"]
    return [op for position, op in enumerate(issued) if op.ok and (
        position < rotation or position % VERIFY_EVERY == VERIFY_EVERY - 1)]


def verify(window: Window, rotation: int, regrader=regrade) -> List[str]:
    """Regrade the ops :func:`to_verify` picks; a mismatch marks the op
    failed. Returns one line per mismatch."""
    previous = os.environ.get("REPRO_DISK_CACHE")
    os.environ["REPRO_DISK_CACHE"] = "0"
    problems = []
    try:
        for op in to_verify(window, rotation):
            expected = regrader(op.specs)
            if expected != op.returned:
                op.ok = False
                op.error = (f"verification mismatch: returned {op.returned}, "
                            f"numpy regrade {expected}")
                problems.append(f"{op.op_id}: {op.error}")
    finally:
        if previous is None:
            os.environ.pop("REPRO_DISK_CACHE", None)
        else:
            os.environ["REPRO_DISK_CACHE"] = previous
    return problems
