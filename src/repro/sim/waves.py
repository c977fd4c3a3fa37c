"""VCD (Value Change Dump) waveform export.

A :class:`VcdRecorder` samples every net of a
:class:`~repro.sim.cycle.CycleSimulator` after each ``step`` and writes a
standard VCD file viewable in GTKWave — the debugging workflow for
inspecting how a single SEU propagates through a circuit. Timestamp ``t``
holds the values of cycle ``t``: the flop outputs held during it, its
inputs and the settled logic. Waves are two-valued, like the simulator.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.sim.cycle import CycleSimulator


class VcdRecorder:
    """Collects per-cycle value changes and serialises them as VCD."""

    def __init__(self, simulator: CycleSimulator, timescale: str = "1 ns"):
        self.simulator = simulator
        self.timescale = timescale
        self._nets = sorted(simulator.compiled.net_index)
        self._identifiers: Dict[str, str] = {
            net: self._short_id(index) for index, net in enumerate(self._nets)
        }
        self._last: Dict[str, int] = {}
        self._changes: List[Tuple[int, str, int]] = []

    @staticmethod
    def _short_id(index: int) -> str:
        # VCD identifier characters: printable ASCII 33..126
        chars = []
        index += 1
        while index:
            index, digit = divmod(index - 1, 94)
            chars.append(chr(33 + digit))
        return "".join(chars)

    def sample(self) -> None:
        """Record every net that changed in the cycle just stepped (every
        net on the first call). Call once after each ``step``."""
        cycle = self.simulator.cycle - 1
        for net in self._nets:
            value = self.simulator.peek_net(net)
            if self._last.get(net) != value:
                self._last[net] = value
                self._changes.append((cycle, net, value))

    def dumps(self) -> str:
        """Serialise everything recorded so far to VCD text."""
        lines = [
            "$date repro fault-grading run $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {_sanitise(self.simulator.compiled.source.name)} $end",
        ]
        for net in self._nets:
            lines.append(
                f"$var wire 1 {self._identifiers[net]} {_sanitise(net)} $end"
            )
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        current_time = None
        for cycle, net, value in self._changes:
            if cycle != current_time:
                lines.append(f"#{cycle}")
                current_time = cycle
            lines.append(f"{value}{self._identifiers[net]}")
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        """Write the VCD file."""
        Path(path).write_text(self.dumps())


def _sanitise(name: str) -> str:
    """VCD identifiers cannot contain whitespace; map brackets for
    readability in viewers."""
    return name.replace(" ", "_").replace("[", "(").replace("]", ")")
