"""TCP transport: fan one campaign across remote worker daemons.

The client side of the :mod:`repro.run.transport.wire` protocol. One
dispatcher thread per worker address shares a single dynamic shard
queue: an idle worker pulls the next window, so a fast host grades more
of the campaign than a slow one (work-stealing by construction, no
static pre-assignment). Connections are persistent across ``grade``
calls — a warm worker keeps its scenario and simulation caches, and the
digest-first ``prepare`` handshake means repeat campaigns ship ~200
bytes of header instead of the netlist.

Failure policy, per shard:

* **Connection death** (worker SIGKILLed, network cut): the in-flight
  window is re-queued for the surviving workers; the dead host is
  dropped for the rest of this grade call and re-dialled on the next.
* **Silence** (no heartbeat for ``heartbeat_timeout``): same as death —
  a healthy worker heartbeats every ``HEARTBEAT_INTERVAL`` seconds even
  while a long shard grades.
* **Deadline** (``shard_timeout`` exceeded, heartbeats or not): the
  worker is presumed wedged; its socket is closed and the window
  re-queued.

A window that has been attempted on more hosts than exist fails the
campaign loudly — the shard itself is poisonous, and looping forever
would hide it. Completed records are checkpointed by the runner as they
stream back, so a campaign that dies with every worker lost resumes
from the store (on any transport).
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CampaignError
from repro.run import worker
from repro.run.store import ShardRecord
from repro.run.transport import wire
from repro.run.transport.base import ShardTransport
from repro.sim.cache import evict_oldest, netlist_digest
from repro.netlist.textio import dumps_netlist

#: how often a healthy worker proves liveness mid-shard
HEARTBEAT_INTERVAL = 1.0
#: silence tolerated before a worker is presumed dead (a few missed
#: heartbeats, not one scheduler hiccup)
DEFAULT_HEARTBEAT_TIMEOUT = 10.0
DEFAULT_CONNECT_TIMEOUT = 5.0


class _WorkerLink:
    """One persistent connection to a worker daemon."""

    def __init__(self, label: str, sock: socket.socket):
        self.label = label
        self.sock = sock
        #: campaign ids this link has completed the prepare handshake for
        self.prepared: Set[str] = set()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _CampaignPayload:
    """Client-side wire artifacts of one campaign, built once."""

    def __init__(self, spec):
        scenario = worker.scenario_for(spec)
        self.campaign_id = spec.campaign_id
        self.netlist_digest = netlist_digest(scenario.netlist)
        self.stimulus_digest = scenario.testbench.stimulus_digest()
        self.netlist_text = dumps_netlist(scenario.netlist).encode("utf-8")
        self.stimulus_blob = wire.pack_testbench(scenario.testbench)
        self.prepare_header = {
            "protocol": wire.PROTOCOL_VERSION,
            "campaign_id": self.campaign_id,
            "netlist_digest": self.netlist_digest,
            "stimulus_digest": self.stimulus_digest,
            **spec.wire_fields(),
        }


class TcpTransport(ShardTransport):
    """Dispatch shards to ``repro worker`` daemons over TCP."""

    name = "tcp"

    def __init__(
        self,
        hosts: Sequence,
        shard_timeout: Optional[float] = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.addresses: List[Tuple[str, int]] = wire.parse_hosts(hosts)
        self.shard_timeout = shard_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.progress = progress
        self._links: Dict[str, Optional[_WorkerLink]] = {}
        self._payloads: Dict[str, _CampaignPayload] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def effective_workers(self) -> int:
        return len(self.addresses)

    def describe(self) -> str:
        return f"tcp ({len(self.addresses)} hosts)"

    def close(self) -> None:
        with self._lock:
            for link in self._links.values():
                if link is not None:
                    try:
                        wire.send_msg(link.sock, "bye")
                    except OSError:
                        pass
                    link.close()
            self._links.clear()

    # ------------------------------------------------------------------
    # connection + campaign negotiation
    # ------------------------------------------------------------------
    def _connect(self, address: Tuple[str, int]) -> _WorkerLink:
        label = f"{address[0]}:{address[1]}"
        sock = socket.create_connection(address, timeout=self.connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _WorkerLink(label, sock)

    def _link_for(self, address: Tuple[str, int]) -> _WorkerLink:
        label = f"{address[0]}:{address[1]}"
        with self._lock:
            link = self._links.get(label)
        if link is None:
            link = self._connect(address)
            with self._lock:
                self._links[label] = link
        return link

    def _drop_link(self, link: _WorkerLink) -> None:
        link.close()
        with self._lock:
            if self._links.get(link.label) is link:
                self._links[link.label] = None

    def _await(self, sock: socket.socket, kinds: Tuple[str, ...], deadline=None):
        """Next non-heartbeat message, enforcing liveness and deadline."""
        while True:
            timeout = self.heartbeat_timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("shard deadline exceeded")
                timeout = min(timeout, remaining)
            sock.settimeout(timeout)
            kind, header, blob = wire.recv_msg(sock)
            if kind == "heartbeat":
                continue
            if kind == "error":
                raise CampaignError(
                    f"worker error: {header.get('message', 'unknown')}"
                )
            if kind not in kinds:
                raise wire.WireError(
                    f"unexpected {kind!r} frame (wanted one of {kinds})"
                )
            return kind, header, blob

    def _prepare(self, link: _WorkerLink, payload: _CampaignPayload) -> None:
        """Digest-first campaign negotiation on one link."""
        if payload.campaign_id in link.prepared:
            return
        wire.send_msg(link.sock, "prepare", payload.prepare_header)
        kind, header, _ = self._await(link.sock, ("ready", "need"))
        if kind == "need":
            # Cold worker: stream exactly the artifacts it asked for.
            if header.get("netlist"):
                wire.send_msg(
                    link.sock,
                    "artifact",
                    {"kind": "netlist", "digest": payload.netlist_digest},
                    payload.netlist_text,
                )
            if header.get("stimulus"):
                wire.send_msg(
                    link.sock,
                    "artifact",
                    {"kind": "stimulus", "digest": payload.stimulus_digest},
                    payload.stimulus_blob,
                )
            self._await(link.sock, ("ready",))
        link.prepared.add(payload.campaign_id)

    # ------------------------------------------------------------------
    # grading
    # ------------------------------------------------------------------
    def _payload_for(self, spec) -> _CampaignPayload:
        payload = self._payloads.get(spec.campaign_id)
        if payload is None:
            payload = _CampaignPayload(spec)
            # Bounded like the worker-side scenario memo: payloads pin
            # netlist text + stimulus, so sweeps evict oldest-first.
            evict_oldest(self._payloads, worker.MAX_CACHED_SCENARIOS)
            self._payloads[spec.campaign_id] = payload
        return payload

    def _grade_one(
        self, link: _WorkerLink, window, attempt: int
    ) -> ShardRecord:
        deadline = (
            None
            if self.shard_timeout is None
            else time.monotonic() + self.shard_timeout
        )
        wire.send_msg(
            link.sock,
            "shard",
            {
                "index": window.index,
                "start_cycle": window.start_cycle,
                "end_cycle": window.end_cycle,
            },
        )
        _, header, blob = self._await(link.sock, ("result",), deadline)
        fail_bytes = int(header["fail_bytes"])
        record = ShardRecord.from_json_obj(
            {
                "index": header["index"],
                "start_cycle": header["start_cycle"],
                "end_cycle": header["end_cycle"],
                "num_faults": header["num_faults"],
                "fail_cycles": blob[:fail_bytes],
                "vanish_cycles": blob[fail_bytes:],
                "engine": header.get("engine", ""),
                "elapsed_s": header.get("elapsed_s", 0.0),
            }
        )
        record.worker = link.label
        record.attempts = attempt
        return record

    def _dispatcher(self, address: Tuple[str, int], payload, shared) -> None:
        label = f"{address[0]}:{address[1]}"
        try:
            link = self._link_for(address)
            self._prepare(link, payload)
        except (OSError, CampaignError) as error:
            with self._lock:
                existing = self._links.get(label)
            if existing is not None:
                self._drop_link(existing)
            shared["errors"].append(f"{label}: {error}")
            if self.progress:
                self.progress(f"[transport:tcp] worker {label} unavailable: {error}")
            return
        pending: "queue.Queue" = shared["pending"]
        while not shared["done"].is_set():
            try:
                window = pending.get(timeout=0.2)
            except queue.Empty:
                continue
            with shared["state_lock"]:
                shared["attempts"][window.index] = (
                    shared["attempts"].get(window.index, 0) + 1
                )
                attempt = shared["attempts"][window.index]
            if attempt > shared["max_attempts"]:
                shared["results"].put(
                    CampaignError(
                        f"shard {window.index} failed on {attempt - 1} "
                        "workers; giving up (the shard itself appears to "
                        "kill or wedge workers)"
                    )
                )
                return
            try:
                record = self._grade_one(link, window, attempt)
            except (OSError, TimeoutError, wire.WireError, CampaignError,
                    ValueError) as error:
                # Re-queue first so a surviving worker can steal the
                # window immediately; then retire this link.
                pending.put(window)
                self._drop_link(link)
                shared["errors"].append(f"{label}: {error}")
                if self.progress:
                    self.progress(
                        f"[transport:tcp] worker {label} lost shard "
                        f"{window.index} ({type(error).__name__}: {error}); "
                        "re-queued"
                    )
                return
            shared["results"].put(record)

    def grade_windows(self, spec, spec_dict, windows) -> Iterator[ShardRecord]:
        windows = list(windows)
        if not windows:
            return
        payload = self._payload_for(spec)
        shared = {
            "pending": queue.Queue(),
            "results": queue.Queue(),
            "attempts": {},
            "errors": [],
            "state_lock": threading.Lock(),
            "done": threading.Event(),
            "max_attempts": len(self.addresses) + 1,
        }
        for window in windows:
            shared["pending"].put(window)
        threads = [
            threading.Thread(
                target=self._dispatcher,
                args=(address, payload, shared),
                name=f"repro-tcp-{address[0]}:{address[1]}",
                daemon=True,
            )
            for address in self.addresses
        ]
        for thread in threads:
            thread.start()
        yielded: Set[int] = set()
        try:
            while len(yielded) < len(windows):
                try:
                    item = shared["results"].get(timeout=0.25)
                except queue.Empty:
                    if not any(thread.is_alive() for thread in threads):
                        remaining = len(windows) - len(yielded)
                        detail = "; ".join(shared["errors"][-3:]) or "no workers reachable"
                        raise CampaignError(
                            f"all {len(self.addresses)} TCP workers lost "
                            f"with {remaining} shard(s) ungraded ({detail}); "
                            "completed shards are checkpointed — restart "
                            "workers (or rerun without --hosts) to resume"
                        )
                    continue
                if isinstance(item, Exception):
                    raise item
                if item.index in yielded:
                    continue  # a raced duplicate; records are identical
                yielded.add(item.index)
                yield item
        finally:
            shared["done"].set()


# ----------------------------------------------------------------------
# fleet probing
# ----------------------------------------------------------------------
def ping_host(
    address: Tuple[str, int], timeout: float = DEFAULT_CONNECT_TIMEOUT
) -> Dict:
    """One worker's status (``alive`` False + ``error`` when unreachable)."""
    label = f"{address[0]}:{address[1]}"
    started = time.perf_counter()
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.settimeout(timeout)
            wire.send_msg(sock, "ping")
            while True:
                kind, header, _ = wire.recv_msg(sock)
                if kind == "heartbeat":
                    continue
                if kind != "status":
                    raise wire.WireError(f"unexpected {kind!r} reply to ping")
                break
            try:
                wire.send_msg(sock, "bye")
            except OSError:
                pass
    except (OSError, CampaignError) as error:
        return {"host": label, "alive": False, "error": str(error)}
    header["host"] = label
    header["alive"] = True
    header["rtt_ms"] = round((time.perf_counter() - started) * 1e3, 2)
    return header


def ping_hosts(hosts, timeout: float = DEFAULT_CONNECT_TIMEOUT) -> List[Dict]:
    """Status of every worker in a ``--hosts`` fleet, in given order."""
    return [ping_host(address, timeout) for address in wire.parse_hosts(hosts)]
