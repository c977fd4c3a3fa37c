"""Pluggable shard-execution transports for the campaign runner.

* :mod:`repro.run.transport.base` — the :class:`ShardTransport`
  contract (dynamic shard queue, completion-order yielding, re-queue of
  lost windows).
* :mod:`repro.run.transport.local` — ``serial`` (in-process reference)
  and ``local`` (persistent process pool) transports.
* :mod:`repro.run.transport.tcp` — the ``tcp`` transport: remote
  ``repro worker`` daemons with digest-first artifact negotiation,
  heartbeats and fault-tolerant shard retry.
* :mod:`repro.run.transport.daemon` — the worker-side server.
* :mod:`repro.run.transport.wire` — length-prefixed framing and payload
  codecs shared by both sides.

:func:`create_transport` is the registry the runner (and any future
campaign service) resolves names through; new transports register with
:func:`register_transport`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import CampaignError
from repro.run.transport.base import ShardTransport


def _make_serial(**options) -> ShardTransport:
    from repro.run.transport.local import SerialTransport

    return SerialTransport()


def _make_local(**options) -> ShardTransport:
    from repro.run.transport.local import LocalPoolTransport

    return LocalPoolTransport(
        workers=max(2, int(options.get("workers") or 2)),
        progress=options.get("progress"),
    )


def _make_tcp(**options) -> ShardTransport:
    from repro.run.transport.tcp import TcpTransport

    hosts = options.get("hosts")
    if not hosts:
        raise CampaignError(
            "the tcp transport needs worker addresses (--hosts a:port,b:port)"
        )
    kwargs = {}
    if options.get("heartbeat_timeout") is not None:
        kwargs["heartbeat_timeout"] = options["heartbeat_timeout"]
    if options.get("connect_timeout") is not None:
        kwargs["connect_timeout"] = options["connect_timeout"]
    return TcpTransport(
        hosts,
        shard_timeout=options.get("shard_timeout"),
        progress=options.get("progress"),
        **kwargs,
    )


_TRANSPORTS: Dict[str, Callable[..., ShardTransport]] = {
    "serial": _make_serial,
    "local": _make_local,
    "tcp": _make_tcp,
}


def available_transports():
    """Registered transport names, sorted."""
    return sorted(_TRANSPORTS)


def register_transport(name: str, factory: Callable[..., ShardTransport]) -> None:
    """Register (or replace) a transport factory under ``name``."""
    _TRANSPORTS[name] = factory


def create_transport(name: str, **options) -> ShardTransport:
    """Instantiate a registered transport.

    ``options`` carries whatever the runner knows — ``workers``,
    ``hosts``, ``shard_timeout``, ``progress`` — and
    each factory picks the fields it understands.
    """
    try:
        factory = _TRANSPORTS[name]
    except KeyError:
        raise CampaignError(
            f"unknown transport {name!r}; expected one of "
            f"{', '.join(available_transports())}"
        ) from None
    return factory(**options)


__all__ = [
    "ShardTransport",
    "available_transports",
    "create_transport",
    "register_transport",
]
