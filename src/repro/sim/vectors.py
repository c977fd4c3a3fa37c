"""Testbenches: the stimulus applied during a fault-grading campaign.

A :class:`Testbench` is an ordered list of input vectors, one per emulation
clock cycle, packed as integers (bit ``i`` drives ``netlist.inputs[i]``).
The paper's b14 experiment uses 160 vectors; generators here produce
reproducible random and structured stimulus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.errors import SimulationError
from repro.netlist.netlist import Netlist
from repro.util.bitops import mask
from repro.util.rng import DeterministicRng


@dataclass
class Testbench:
    """Stimulus for one campaign.

    Attributes:
        input_names: the circuit's primary inputs, in port order.
        vectors: one packed input word per cycle.
    """

    input_names: List[str]
    vectors: List[int] = field(default_factory=list)

    __test__ = False  # starts with "Test" but is not a pytest class

    def __post_init__(self) -> None:
        limit = mask(len(self.input_names)) if self.input_names else 0
        for cycle, vector in enumerate(self.vectors):
            if vector < 0 or vector & ~limit:
                raise SimulationError(
                    f"vector {cycle} does not fit in {len(self.input_names)} inputs"
                )

    @property
    def num_cycles(self) -> int:
        """Testbench length in clock cycles (the paper's parameter T)."""
        return len(self.vectors)

    @property
    def num_inputs(self) -> int:
        return len(self.input_names)

    def bit(self, cycle: int, input_index: int) -> int:
        """Value of one input at one cycle."""
        return (self.vectors[cycle] >> input_index) & 1

    def as_dicts(self) -> Iterator[Dict[str, int]]:
        """Iterate vectors as name->bit mappings."""
        for vector in self.vectors:
            yield {
                name: (vector >> index) & 1
                for index, name in enumerate(self.input_names)
            }

    def stimulus_bits(self) -> int:
        """RAM bits needed to store this stimulus (cycles x inputs)."""
        return self.num_cycles * self.num_inputs

    def truncated(self, cycles: int) -> "Testbench":
        """A copy with only the first ``cycles`` vectors."""
        return Testbench(list(self.input_names), list(self.vectors[:cycles]))

    def stimulus_digest(self) -> str:
        """Stable content hash of (input names, vectors), memoized on the
        object.

        The golden-trace cache keys on this instead of materialising a
        ``tuple(vectors)`` mega-key per lookup, so the digest is computed
        once per testbench object no matter how many campaigns reuse it.
        Like the netlist caches, this treats a testbench as frozen once
        simulation starts: mutate ``vectors`` afterwards and the memo
        (and any cached golden trace) goes stale.
        """
        digest = self.__dict__.get("_stimulus_digest")
        if digest is None:
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(b"%d\x1f" % len(self.input_names))
            hasher.update("\x1f".join(self.input_names).encode("utf-8"))
            hasher.update(b"\x00")  # terminate the names section: a name
            # ending in hex digits must not absorb vector framing
            for vector in self.vectors:
                hasher.update(b"%x/" % vector)
            digest = hasher.hexdigest()
            self.__dict__["_stimulus_digest"] = digest
        return digest


def random_testbench(
    netlist: Netlist,
    num_cycles: int,
    seed: int = 0,
    probability_of_one: float = 0.5,
) -> Testbench:
    """Uniform random stimulus, reproducible from ``seed``."""
    rng = DeterministicRng(seed).fork(f"tb:{netlist.name}")
    width = len(netlist.inputs)
    vectors = [rng.word(width, probability_of_one) for _ in range(num_cycles)]
    return Testbench(list(netlist.inputs), vectors)


def burst_testbench(
    netlist: Netlist,
    num_cycles: int,
    seed: int = 0,
    burst_length: int = 8,
) -> Testbench:
    """Stimulus with temporal correlation: values held for short bursts.

    CPU-style circuits see correlated inputs (an instruction bus holds the
    same opcode class for several cycles); burst stimulus exercises longer
    fault-latency behaviour than white noise.
    """
    rng = DeterministicRng(seed).fork(f"burst:{netlist.name}")
    width = len(netlist.inputs)
    vectors: List[int] = []
    current = rng.word(width)
    remaining = burst_length
    for _ in range(num_cycles):
        if remaining == 0:
            # Flip a random subset of bits rather than redrawing everything.
            flip = rng.word(width, probability_of_one=0.25)
            current ^= flip
            remaining = rng.integer(1, burst_length)
        vectors.append(current)
        remaining -= 1
    return Testbench(list(netlist.inputs), vectors)


def walking_ones_testbench(netlist: Netlist, num_cycles: int) -> Testbench:
    """Deterministic walking-ones pattern (good for connectivity tests)."""
    width = len(netlist.inputs)
    if width == 0:
        return Testbench([], [0] * num_cycles)
    vectors = [1 << (cycle % width) for cycle in range(num_cycles)]
    return Testbench(list(netlist.inputs), vectors)


def constant_testbench(netlist: Netlist, num_cycles: int, value: int = 0) -> Testbench:
    """Hold a constant input word for every cycle."""
    return Testbench(list(netlist.inputs), [value] * num_cycles)


def concat_testbenches(parts: Sequence[Testbench]) -> Testbench:
    """Concatenate testbenches over the same input list."""
    if not parts:
        raise SimulationError("cannot concatenate zero testbenches")
    names = parts[0].input_names
    for part in parts[1:]:
        if part.input_names != names:
            raise SimulationError("testbench input lists differ")
    vectors: List[int] = []
    for part in parts:
        vectors.extend(part.vectors)
    return Testbench(list(names), vectors)
