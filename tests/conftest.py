"""Shared fixtures: small deterministic circuits and testbenches."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.rtl import RtlModule, const, mux
from repro.sim.vectors import random_testbench


def build_toggle():
    """1-flop toggle: q alternates every cycle, output mirrors q."""
    b = NetlistBuilder("toggle")
    q = b.dff("q_next", q="q", init=0, name="ff$q")
    b.inv(q, out="q_next")
    b.output_net("out", q)
    # toggle has no inputs; add one so testbenches are non-degenerate
    unused = b.input("tick")
    b.output_net("tick_echo", unused)
    return b.build()


def build_counter(width: int = 4):
    """Enabled counter with value and wrap outputs."""
    m = RtlModule(f"counter{width}")
    enable = m.input("enable", 1)
    count = m.register("count", width, init=0)
    m.next(count, mux(enable[0], count, count + const(width, 1)))
    m.output("value", count)
    m.output("wrap", count == const(width, (1 << width) - 1))
    return m.elaborate()


def build_shift_register(depth: int = 6):
    """Serial-in serial-out shift register (silent-prone faults)."""
    b = NetlistBuilder(f"shift{depth}")
    serial_in = b.input("si")
    previous = serial_in
    for index in range(depth):
        previous = b.dff(previous, q=f"s[{index}]", init=0, name=f"ff$s[{index}]")
    b.output_net("so", previous)
    return b.build()


def build_sticky():
    """A sticky error latch: once set, never clears (latent-prone)."""
    b = NetlistBuilder("sticky")
    trigger = b.input("trigger")
    held = b.netlist.fresh_net("held")
    q = b.dff(held, q="sticky_q", init=0, name="ff$sticky")
    b.or_(q, trigger, out=held)
    observe = b.input("observe")
    b.output_net("alarm", b.and_(q, observe))
    return b.build()


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache():
    """Point the on-disk artifact cache at a throwaway directory.

    Tests run TCP worker daemons whose wire store (shipped netlists and
    stimuli) would otherwise land in the user's real ``~/.cache/repro``
    — pollution at best, cross-test coupling at worst. Tests that set
    ``REPRO_CACHE_DIR`` themselves override per-test via monkeypatch as
    usual.
    """
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    with tempfile.TemporaryDirectory(prefix="repro-test-cache-") as root:
        os.environ["REPRO_CACHE_DIR"] = root
        try:
            yield
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def toggle():
    return build_toggle()


@pytest.fixture
def counter():
    return build_counter()


@pytest.fixture
def shift_register():
    return build_shift_register()


@pytest.fixture
def sticky():
    return build_sticky()


@pytest.fixture
def counter_bench(counter):
    return random_testbench(counter, 24, seed=2)
