"""Wire protocol for remote shard dispatch.

Everything a ``repro worker`` daemon and the :class:`TcpTransport`
client exchange travels in *frames*: a 4-byte big-endian payload length,
then the payload — a compact JSON header line (the message kind plus
small scalar fields), a ``\\n`` separator, and an optional binary blob.
Shard outcomes reuse the packed little-endian int32 encoding the local
process pool ships across its IPC boundary, so a 10k-fault shard's
results are one 40 KB buffer, not 10k JSON numbers.

The conversation is digest-first: ``prepare`` names the campaign's
netlist and stimulus by content digest only, and the worker answers
``need`` naming what it cannot reconstruct from its caches. Only then
does the client stream the full artifacts (``artifact`` frames), which
the worker persists by digest — so the second campaign against a warm
worker ships a few hundred bytes of header, never the netlist.

Message kinds (client -> worker unless noted)::

    prepare   campaign identity: digests + fault-population fields
    need      (worker) which artifacts the worker is missing
    ready     (worker) scenario resolved, shards may be dispatched
    artifact  one content-addressed payload (netlist text / stimulus)
    shard     grade one cycle window
    result    (worker) packed outcomes of one window
    heartbeat (worker) liveness while a long build/grade is in flight
    ping      liveness + stats probe
    status    (worker) stats reply to ping
    error     (worker) structured failure, connection stays usable
    bye       orderly goodbye

Framing is symmetric, so both sides use :func:`send_msg` /
:func:`recv_msg`.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import CampaignError
from repro.sim.vectors import Testbench

#: bump on any incompatible framing or message-shape change; both sides
#: refuse to talk across versions instead of mis-parsing each other.
PROTOCOL_VERSION = 1

#: refuse absurd frames instead of allocating unbounded buffers from a
#: confused (or hostile) peer — 1 GiB comfortably covers the largest
#: stimulus blob a campaign-scale circuit produces.
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct("!I")


class WireError(CampaignError):
    """A peer broke the framing or message contract."""


class PeerGone(CampaignError):
    """The connection died (EOF / reset) mid-conversation."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_msg(
    sock: socket.socket,
    kind: str,
    header: Optional[Dict] = None,
    blob: bytes = b"",
) -> None:
    """Send one frame: length-prefixed JSON header + binary blob."""
    head = dict(header or {})
    head["t"] = kind
    head_bytes = json.dumps(
        head, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payload_length = len(head_bytes) + 1 + len(blob)
    if payload_length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {payload_length} bytes exceeds the protocol limit")
    sock.sendall(_LENGTH.pack(payload_length) + head_bytes + b"\n" + blob)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise PeerGone("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Tuple[str, Dict, bytes]:
    """Receive one frame; returns ``(kind, header, blob)``.

    Raises :class:`PeerGone` on EOF and lets ``socket.timeout`` bubble —
    the caller's liveness policy (heartbeats, shard deadlines) decides
    what a silent peer means.
    """
    (payload_length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if payload_length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {payload_length}-byte frame; refusing")
    payload = _recv_exact(sock, payload_length)
    head_bytes, separator, blob = payload.partition(b"\n")
    if not separator:
        raise WireError("frame payload lacks a header/blob separator")
    try:
        header = json.loads(head_bytes.decode("utf-8"))
        kind = header.pop("t")
    except (ValueError, KeyError) as error:
        raise WireError(f"unparseable frame header: {error}") from None
    return str(kind), header, blob


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
def pack_testbench(testbench: Testbench) -> bytes:
    """Serialize a testbench for transfer: input names + hex vectors.

    Vectors are arbitrary-width packed integers (one bit per primary
    input), so hex strings keep wide imported circuits compact and
    JSON-safe without 300-digit decimal literals.
    """
    return json.dumps(
        {
            "input_names": list(testbench.input_names),
            "vectors": [f"{vector:x}" for vector in testbench.vectors],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def unpack_testbench(blob: bytes) -> Testbench:
    try:
        data = json.loads(blob.decode("utf-8"))
        return Testbench(
            input_names=[str(name) for name in data["input_names"]],
            vectors=[int(vector, 16) for vector in data["vectors"]],
        )
    except (ValueError, KeyError, TypeError) as error:
        raise WireError(f"unparseable stimulus payload: {error}") from None


def parse_host_port(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> tuple, with a nameable error for bad spellings."""
    host, separator, port_text = value.rpartition(":")
    if not separator or not host:
        raise CampaignError(
            f"worker address {value!r} is not HOST:PORT (e.g. 127.0.0.1:7400)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise CampaignError(
            f"worker address {value!r} has a non-numeric port"
        ) from None
    if not 0 <= port <= 65535:
        raise CampaignError(f"worker address {value!r} port is out of range")
    return host, port


def parse_hosts(value) -> List[Tuple[str, int]]:
    """A ``--hosts`` spelling (comma string or iterable) -> address list."""
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",")]
    else:
        parts = [str(part).strip() for part in value]
    addresses = [parse_host_port(part) for part in parts if part]
    if not addresses:
        raise CampaignError("no worker addresses given")
    return addresses
