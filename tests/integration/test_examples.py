"""Smoke test: every script under ``examples/`` runs to completion, and the
waveform example's VCD agrees with the golden run up to its fault."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import build_circuit
from repro.sim.cycle import run_golden
from repro.sim.vectors import Testbench
from repro.sim.waves import _sanitise

SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))
EXAMPLES_DIR = Path(SRC_ROOT).parent / "examples"
# waveform_debug.py runs in its own test below, which also checks its VCD.
EXAMPLES = sorted(
    path for path in EXAMPLES_DIR.glob("*.py") if path.stem != "waveform_debug"
)


def run_example(path, cwd, *args):
    return subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC_ROOT},
    )


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, tmp_path):
    probe = run_example(path, tmp_path)
    assert probe.returncode == 0, probe.stderr


def parse_vcd(text):
    """(net by identifier, {timestamp: {net: value}} with every net's
    value carried forward to each timestamp)."""
    nets = dict(re.findall(r"\$var wire 1 (\S+) (\S+) \$end", text))
    body = text.split("$enddefinitions $end\n", 1)[1]
    frames, current = {}, {}
    for line in body.splitlines():
        if line.startswith("#"):
            current = dict(current)
            frames[int(line[1:])] = current
        else:
            current[nets[line[1:]]] = int(line[0])
    return nets, frames


def test_waveform_example_follows_golden_until_the_fault(tmp_path):
    path = tmp_path / "fault.vcd"
    probe = run_example(EXAMPLES_DIR / "waveform_debug.py", tmp_path, str(path))
    assert probe.returncode == 0, probe.stderr
    flop, fault_cycle = re.search(r"SEU\((\S+) @ cycle (\d+)\)", probe.stdout).groups()
    fault_cycle = int(fault_cycle)

    circuit = build_circuit("b01")
    nets, frames = parse_vcd(path.read_text())
    assert sorted(nets.values()) == sorted(
        _sanitise(net) for net in circuit.all_referenced_nets()
    )
    assert fault_cycle > 0 and sorted(frames) == list(range(len(frames)))

    vectors = [
        sum(frames[t][_sanitise(net)] << i for i, net in enumerate(circuit.inputs))
        for t in sorted(frames)
    ]
    golden = run_golden(circuit, Testbench(list(circuit.inputs), vectors))
    q_nets = [_sanitise(circuit.dffs[name].q) for name in circuit.ff_names()]
    for t in range(fault_cycle):
        held = sum(frames[t][q] << i for i, q in enumerate(q_nets))
        assert held == golden.states[t], t

    # The upset shows on the flipped flop's q net at the fault cycle.
    index = circuit.ff_names().index(flop)
    q = q_nets[index]
    assert frames[fault_cycle][q] == ((golden.states[fault_cycle] >> index) & 1) ^ 1
    assert frames[fault_cycle][q] != frames[fault_cycle - 1][q]
