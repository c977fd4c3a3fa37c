"""The ``repro worker`` daemon: a remote shard-grading server.

One process per host, started as ``repro worker --listen HOST:PORT``.
Accepts any number of client connections (one thread each) and speaks
the :mod:`repro.run.transport.wire` protocol: digest-first campaign
negotiation, then shard grading with the same kind of scenario memo and
simulation caches the local runner uses — a warm daemon grades
its first shard of a repeat campaign without rebuilding anything.

Artifacts arrive content-addressed. A netlist or stimulus payload is
verified against its announced digest (self-certifying: the digest *is*
the content hash), persisted to the worker's wire store
(:func:`~repro.sim.cache.store_wire`), and reused for every later
campaign that names the same digest — including after a daemon restart.
A netlist is parsed once per digest and shared by every campaign on
that circuit (a new seed only brings a new stimulus). Compiled plans
and golden traces then come from the in-process session caches exactly
as they do locally.

While a slow scenario build or shard grade is in flight the daemon
emits ``heartbeat`` frames every second, so the client can tell
"working" from "wedged" without guessing at shard cost. All state a
connection needs is either per-connection or lock-protected, so a fleet
client, a ``workers ping`` probe and a second campaign can overlap
freely.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.errors import CampaignError, ReproError
from repro.netlist.netlist import Netlist
from repro.netlist.textio import loads_netlist
from repro.run import worker
from repro.run.spec import Scenario, scenario_from_wire
from repro.run.transport import wire
from repro.sim.cache import (
    evict_oldest,
    load_wire,
    netlist_text_digest,
    store_wire,
)

#: heartbeat cadence while a build/grade is in flight (seconds)
HEARTBEAT_INTERVAL = 1.0
#: bound on the per-daemon scenario memo, matching the in-process one
MAX_CACHED_SCENARIOS = worker.MAX_CACHED_SCENARIOS

#: test hook: sleep this many seconds before grading each shard, so the
#: fault-tolerance tests can deterministically catch a worker mid-shard
TEST_DELAY_ENV = "REPRO_WORKER_TEST_DELAY"


class _Heartbeat:
    """Context manager: heartbeat frames while a slow section runs."""

    def __init__(self, sock: socket.socket, send_lock: threading.Lock,
                 interval: float = HEARTBEAT_INTERVAL):
        self.sock = sock
        self.send_lock = send_lock
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_Heartbeat":
        self._thread = threading.Thread(
            target=self._tick, name="repro-worker-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _tick(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                with self.send_lock:
                    wire.send_msg(self.sock, "heartbeat")
            except OSError:
                return  # client gone; the main loop will notice on recv


class WorkerDaemon:
    """A shard-grading TCP server.

    Parameters:
        host/port: listen address; port 0 binds an ephemeral port
            (exposed as ``self.port`` after :meth:`bind` — tests and the
            CLI's "listening on" line both rely on it).
        quiet: suppress per-event log lines.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = False):
        self.host = host
        self.port = port
        self.quiet = quiet
        self.started_at = time.time()
        self._server: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        #: campaign id -> resolved scenario
        self._scenarios: Dict[str, Scenario] = {}
        #: netlist digest -> parsed netlist, shared (frozen) by campaigns
        self._netlists: Dict[str, Netlist] = {}
        self.stats: Dict[str, int] = {
            "connections": 0,
            "campaigns_prepared": 0,
            "shards_graded": 0,
            "faults_graded": 0,
            "digest_hits": 0,
            "digest_misses": 0,
            "artifact_bytes_received": 0,
        }

    def _log(self, line: str) -> None:
        if not self.quiet:
            print(f"[worker {self.host}:{self.port}] {line}", flush=True)

    # ------------------------------------------------------------------
    # server lifecycle
    # ------------------------------------------------------------------
    def bind(self) -> int:
        """Bind the listen socket; returns the (possibly ephemeral) port."""
        if self._server is None:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self.host, self.port))
            server.listen(16)
            self.port = server.getsockname()[1]
            self._server = server
        return self.port

    def serve_forever(self) -> None:
        """Bind (if needed) and serve until :meth:`shutdown`."""
        self.bind()
        # The parseable startup line: tests and fleet scripts read the
        # bound port from it when --listen used port 0.
        print(f"repro worker listening on {self.host}:{self.port}", flush=True)
        while not self._stop.is_set():
            try:
                sock, address = self._server.accept()
            except OSError:
                break  # listen socket closed by shutdown()
            with self._state_lock:
                self.stats["connections"] += 1
            threading.Thread(
                target=self._serve_connection,
                args=(sock, address),
                name=f"repro-worker-conn-{address[0]}:{address[1]}",
                daemon=True,
            ).start()

    def shutdown(self) -> None:
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None

    # ------------------------------------------------------------------
    # artifact store
    # ------------------------------------------------------------------
    def _load_artifact(self, kind: str, digest: str) -> Optional[bytes]:
        """A verified wire payload from the disk store, or None.

        The store only promises atomic writes; the digest check here is
        what makes the wire store self-certifying — a corrupted payload
        reads as a miss (the client re-ships it) instead of poisoning
        every later campaign that names the digest.
        """
        payload = load_wire(digest)
        if payload is None:
            return None
        try:
            if kind == "netlist":
                ok = netlist_text_digest(payload.decode("utf-8")) == digest
            else:
                ok = wire.unpack_testbench(payload).stimulus_digest() == digest
        except (UnicodeDecodeError, wire.WireError):
            ok = False
        return payload if ok else None

    # ------------------------------------------------------------------
    # campaign negotiation
    # ------------------------------------------------------------------
    def _scenario_from_artifacts(
        self, header: Dict, netlist_blob: bytes, stimulus_blob: bytes
    ) -> Scenario:
        netlist_text = netlist_blob.decode("utf-8")
        digest = netlist_text_digest(netlist_text)
        if digest != header["netlist_digest"]:
            raise CampaignError(
                "netlist payload does not match its announced digest"
            )
        testbench = wire.unpack_testbench(stimulus_blob)
        if testbench.stimulus_digest() != header["stimulus_digest"]:
            raise CampaignError(
                "stimulus payload does not match its announced digest"
            )
        with self._state_lock:
            netlist = self._netlists.get(digest)
        if netlist is None:
            netlist = loads_netlist(netlist_text)
            with self._state_lock:
                evict_oldest(self._netlists, MAX_CACHED_SCENARIOS)
                self._netlists[digest] = netlist
        return scenario_from_wire(netlist, testbench, header)

    def _prepare(self, conn: "_Connection", header: Dict) -> None:
        if header.get("protocol") != wire.PROTOCOL_VERSION:
            raise CampaignError(
                f"protocol version mismatch: client speaks "
                f"{header.get('protocol')}, worker speaks "
                f"{wire.PROTOCOL_VERSION}"
            )
        campaign_id = str(header["campaign_id"])
        with self._state_lock:
            cached = campaign_id in self._scenarios
        if cached:
            with self._state_lock:
                self.stats["digest_hits"] += 2
            conn.active_campaign = campaign_id
            conn.send("ready", {"cached": True})
            return
        # Not memoized: try the content-addressed wire store.
        missing = {}
        blobs = {}
        for kind, digest_field in (
            ("netlist", "netlist_digest"),
            ("stimulus", "stimulus_digest"),
        ):
            payload = self._load_artifact(kind, str(header[digest_field]))
            if payload is None:
                missing[kind] = True
                with self._state_lock:
                    self.stats["digest_misses"] += 1
            else:
                blobs[kind] = payload
                with self._state_lock:
                    self.stats["digest_hits"] += 1
        if missing:
            conn.pending_prepare = (header, blobs)
            conn.send("need", missing)
            self._log(
                f"campaign {campaign_id}: requesting "
                + ", ".join(sorted(missing))
            )
            return
        self._finish_prepare(conn, header, blobs)

    def _finish_prepare(self, conn: "_Connection", header: Dict,
                        blobs: Dict[str, bytes]) -> None:
        campaign_id = str(header["campaign_id"])
        with _Heartbeat(conn.sock, conn.send_lock):
            scenario = self._scenario_from_artifacts(
                header, blobs["netlist"], blobs["stimulus"]
            )
            # Prewarm exactly like the local runner: compile, golden
            # trace, fused program, native kernel — all heartbeat-covered.
            worker.prewarm_scenario(scenario)
        with self._state_lock:
            evict_oldest(self._scenarios, MAX_CACHED_SCENARIOS)
            self._scenarios[campaign_id] = scenario
            self.stats["campaigns_prepared"] += 1
        conn.active_campaign = campaign_id
        conn.pending_prepare = None
        conn.send("ready", {"cached": False})
        self._log(
            f"campaign {campaign_id}: prepared "
            f"({len(scenario.faults)} faults, "
            f"{scenario.testbench.num_cycles} cycles)"
        )

    def _artifact(self, conn: "_Connection", header: Dict, blob: bytes) -> None:
        if conn.pending_prepare is None:
            raise CampaignError("artifact frame outside a prepare handshake")
        kind = str(header.get("kind"))
        digest = str(header.get("digest"))
        prepare_header, blobs = conn.pending_prepare
        expected = {
            "netlist": str(prepare_header["netlist_digest"]),
            "stimulus": str(prepare_header["stimulus_digest"]),
        }.get(kind)
        if expected is None or digest != expected:
            raise CampaignError(
                f"unexpected artifact {kind!r} with digest {digest!r}"
            )
        blobs[kind] = blob
        store_wire(digest, blob)
        with self._state_lock:
            self.stats["artifact_bytes_received"] += len(blob)
        if {"netlist", "stimulus"} <= set(blobs):
            self._finish_prepare(conn, prepare_header, blobs)

    # ------------------------------------------------------------------
    # shard grading
    # ------------------------------------------------------------------
    def _shard(self, conn: "_Connection", header: Dict) -> None:
        if conn.active_campaign is None:
            raise CampaignError("shard frame before a successful prepare")
        with self._state_lock:
            scenario = self._scenarios.get(conn.active_campaign)
        if scenario is None:
            raise CampaignError(
                f"campaign {conn.active_campaign} evicted from this "
                "worker's memo; re-prepare"
            )
        index = int(header["index"])
        start_cycle = int(header["start_cycle"])
        end_cycle = int(header["end_cycle"])
        with _Heartbeat(conn.sock, conn.send_lock):
            delay = float(os.environ.get(TEST_DELAY_ENV, "0") or 0)
            if delay > 0:
                time.sleep(delay)
            record = worker.grade_scenario_window(
                scenario,
                index,
                start_cycle,
                end_cycle,
                engine=str(header.get("engine") or conn.engine),
            )
        with self._state_lock:
            self.stats["shards_graded"] += 1
            self.stats["faults_graded"] += record["num_faults"]
        fail = record["fail_cycles"]
        vanish = record["vanish_cycles"]
        conn.send(
            "result",
            {
                "index": record["index"],
                "start_cycle": record["start_cycle"],
                "end_cycle": record["end_cycle"],
                "num_faults": record["num_faults"],
                "engine": record["engine"],
                "elapsed_s": record["elapsed_s"],
                "fail_bytes": len(fail),
            },
            fail + vanish,
        )

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def status(self) -> Dict:
        from repro.sim.backends import get_engine
        from repro.sim.backends._native import native_kernel

        stats = get_engine("fused").last_stats or {}
        native = stats.get("native")
        if native is None:
            native = native_kernel() is not None
        with self._state_lock:
            snapshot = dict(self.stats)
            campaigns = list(self._scenarios)
        return {
            "protocol": wire.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 1),
            "kernel": {"native": bool(native)},
            "campaigns_cached": campaigns,
            **snapshot,
        }

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------
    def _serve_connection(self, sock: socket.socket, address) -> None:
        conn = _Connection(sock)
        self._log(f"client {address[0]}:{address[1]} connected")
        try:
            with sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while not self._stop.is_set():
                    kind, header, blob = wire.recv_msg(sock)
                    try:
                        if kind == "prepare":
                            conn.engine = str(header.get("engine", ""))
                            self._prepare(conn, header)
                        elif kind == "artifact":
                            self._artifact(conn, header, blob)
                        elif kind == "shard":
                            self._shard(conn, header)
                        elif kind == "ping":
                            conn.send("status", self.status())
                        elif kind == "bye":
                            return
                        else:
                            raise CampaignError(f"unknown frame kind {kind!r}")
                    except ReproError as error:
                        # Protocol-level failure: report it and keep the
                        # connection usable; the client decides whether
                        # to retry elsewhere.
                        conn.send("error", {"message": str(error)})
        except (wire.PeerGone, OSError):
            pass  # client went away; nothing to clean up beyond the socket
        finally:
            self._log(f"client {address[0]}:{address[1]} disconnected")


class _Connection:
    """Per-connection state: send lock, prepare handshake, campaign."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.send_lock = threading.Lock()
        self.active_campaign: Optional[str] = None
        self.pending_prepare: Optional[Tuple[Dict, Dict[str, bytes]]] = None
        self.engine: str = ""

    def send(self, kind: str, header: Optional[Dict] = None,
             blob: bytes = b"") -> None:
        with self.send_lock:
            wire.send_msg(self.sock, kind, header, blob)
