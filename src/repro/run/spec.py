"""Declarative campaign descriptions.

A :class:`CampaignSpec` is a frozen, serializable value describing one
fault-injection campaign end to end: which registered circuit, which
autonomous technique, which board and grading engine, how the stimulus is
generated and how the fault list is drawn. Everything downstream — the
sharded :class:`~repro.run.runner.CampaignRunner`, the JSONL
:class:`~repro.run.store.ResultsStore`, the ``python -m repro`` CLI and
the eval tables — consumes specs instead of ad-hoc (netlist, testbench,
faults) plumbing, so any campaign can be named, persisted, resumed and
swept.

The split mirrors config-driven injection frameworks (DAVOS's campaign
configuration, DrSEUs's campaign database): the *description* of a
campaign is data; only the runner turns it into work.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

from repro.circuits.registry import build_circuit, circuit_source_path
from repro.emu.board import BoardModel, board_by_name
from repro.emu.instrument import TECHNIQUES
from repro.errors import CampaignError
from repro.faults.model import SeuFault
from repro.faults.models import DEFAULT_FAULT_MODEL, FaultModel, get_fault_model
from repro.faults.sampling import SAMPLING_METHODS, draw_sample
from repro.netlist.netlist import Netlist
from repro.sim.parallel import DEFAULT_BACKEND
from repro.sim.vectors import (
    Testbench,
    burst_testbench,
    constant_testbench,
    random_testbench,
    walking_ones_testbench,
)

#: Stimulus generators a spec may name. ``auto`` resolves per circuit:
#: the paper's instruction-shaped program bench for b14, the frontend's
#: synthesized default for imported (``file:``/``corpus:``) circuits,
#: random stimulus otherwise.
TESTBENCH_KINDS = (
    "auto",
    "program",
    "random",
    "burst",
    "walking_ones",
    "constant",
    "imported",
)

#: Default testbench lengths when a spec leaves ``num_cycles`` unset:
#: the paper's 160 stimulus vectors for b14, a short generic bench
#: otherwise.
PAPER_CYCLES = {"b14": 160}
DEFAULT_CYCLES = 64

#: bound on the per-process netlist and scenario memos; rebuilding an
#: evicted entry is deterministic, so eviction only costs time
MAX_CACHED_SCENARIOS = 8


@dataclass(frozen=True)
class Scenario:
    """A spec resolved into concrete objects, ready to grade."""

    netlist: Netlist
    testbench: Testbench
    faults: Sequence[SeuFault]


def default_testbench_for(
    netlist: Netlist,
    num_cycles: Optional[int] = None,
    seed: int = 0,
    circuit: Optional[str] = None,
) -> Testbench:
    """Default stimulus for a circuit *object*, by the same rule specs
    use for circuit names: b14 gets the paper's instruction-shaped
    program bench at paper length; imported circuits (recognisable only
    when the caller passes the registry ``circuit`` name, e.g.
    ``corpus:s344``) get the frontend's synthesized stimulus; everything
    else — including ad-hoc netlist objects with no name — random
    stimulus. Keeps the explicit-netlist eval path and the spec path
    agreeing on what "default" means for one named circuit.
    """
    cycles = (
        num_cycles
        if num_cycles is not None
        else PAPER_CYCLES.get(netlist.name, DEFAULT_CYCLES)
    )
    if netlist.name == "b14":
        from repro.circuits.itc99.b14 import b14_program_testbench

        return b14_program_testbench(netlist, cycles, seed=seed)
    if circuit is not None and circuit.startswith(("file:", "corpus:")):
        from repro.frontend import synthesize_testbench

        return synthesize_testbench(netlist, cycles, seed=seed)
    return random_testbench(netlist, cycles, seed=seed)


@lru_cache(maxsize=MAX_CACHED_SCENARIOS)
def netlist_for(
    circuit: str,
    hardening: Optional[str],
    hardening_flops: Optional[Sequence[str]],
    circuit_digest: Optional[str],
) -> Netlist:
    """Build a (hardened) circuit once per process and identity.

    A netlist does not depend on seed, stimulus or sample, so campaigns
    share it (and its digest, compiled plan and fused program); callers
    must not edit it. ``circuit_digest`` is part of the key only: it
    hashes the file behind a ``file:``/``corpus:`` circuit, so an edited
    file rebuilds.
    """
    netlist = build_circuit(circuit)
    if hardening is not None:
        from repro.hardening import apply_hardening

        netlist = apply_hardening(hardening, netlist, flops=hardening_flops)
    return netlist


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, as data.

    ``circuit`` names a :mod:`repro.circuits.registry` entry (including
    the parameterized ``proc:<flops>`` family). ``num_cycles`` of ``None``
    means the circuit's paper/default length. ``fault_model`` names a
    :mod:`repro.faults.models` registry entry (``seu``, ``mbu:<k>``,
    ``stuck_at_0/1``, ``intermittent[:p:d]``). ``sample`` of ``None``
    means the model's complete fault set; a positive value draws that
    many faults deterministically from it with the named ``sampling``
    method (``uniform`` or ``stratified`` by flop). ``hardening`` names a
    :mod:`repro.hardening` scheme applied to the built circuit (``tmr``,
    ``tmr_unvoted``, ``dwc``, ``parity``; ``None`` grades the plain
    netlist) and ``hardening_flops`` optionally restricts it to a flop
    subset (selective hardening; ``None`` protects every flop) —
    spelling the circuit ``hardened:<scheme>[@<flop>+<flop>...]:<base>``
    is equivalent and normalises to the same spec, so both forms share
    one campaign identity. The base of a ``hardened:`` spelling may
    itself be another ``hardened:`` name; only the outermost layer is
    normalised into the spec fields, inner layers stay part of the
    circuit name (mixed-scheme protection, the optimizer's search
    space). Consequently a spec whose ``hardening`` is already set
    treats a ``hardened:`` circuit as its base — the fields always
    describe the *outermost* layer. All fields are plain values so a
    spec round-trips through JSON unchanged.
    """

    circuit: str
    technique: str
    board: str = "rc1000"
    engine: str = DEFAULT_BACKEND
    num_cycles: Optional[int] = None
    testbench: str = "auto"
    seed: int = 0
    sample: Optional[int] = None
    scan_chains: int = 1
    fault_model: str = DEFAULT_FAULT_MODEL
    sampling: str = "uniform"
    hardening: Optional[str] = None
    hardening_flops: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.hardening_flops is not None:
            from repro.hardening import canonical_flop_subset

            if isinstance(self.hardening_flops, str):
                # accept the grammar's "+"-joined spelling as a scalar
                flops: Sequence[str] = self.hardening_flops.split("+")
            else:
                flops = self.hardening_flops
            object.__setattr__(
                self, "hardening_flops", canonical_flop_subset(flops)
            )
        if self.circuit.startswith("hardened:") and self.hardening is None:
            # Peel the outermost hardened: layer into the spec fields.
            # Only when ``hardening`` is unset: a set scheme means the
            # fields already describe the outer layer and the circuit
            # name is the (possibly itself hardened) base underneath —
            # the state replace()/from_dict round-trips through, and the
            # normalisation's own fixed point.
            from repro.hardening import parse_hardened_name

            scheme, flops, base = parse_hardened_name(self.circuit)
            if (
                self.hardening_flops is not None
                and flops is not None
                and self.hardening_flops != flops
            ):
                raise CampaignError(
                    f"circuit {self.circuit!r} names flop subset "
                    f"{'+'.join(flops)} but the spec also sets "
                    f"hardening_flops={'+'.join(self.hardening_flops)}; "
                    "pick one spelling"
                )
            object.__setattr__(self, "circuit", base)
            object.__setattr__(self, "hardening", scheme)
            if flops is not None:
                object.__setattr__(self, "hardening_flops", flops)
        if self.hardening_flops is not None and self.hardening is None:
            raise CampaignError(
                "hardening_flops names a protected subset but no hardening "
                "scheme is set; add hardening=<scheme> (CLI: --hardening)"
            )
        if self.hardening is not None:
            from repro.hardening import get_hardening_scheme

            get_hardening_scheme(self.hardening)  # fail early on unknown schemes
        if self.technique not in TECHNIQUES:
            raise CampaignError(
                f"unknown technique {self.technique!r}; expected one of "
                f"{TECHNIQUES}"
            )
        if self.testbench not in TESTBENCH_KINDS:
            raise CampaignError(
                f"unknown testbench kind {self.testbench!r}; expected one "
                f"of {TESTBENCH_KINDS}"
            )
        if self.num_cycles is not None and self.num_cycles <= 0:
            raise CampaignError("num_cycles must be positive")
        if self.sample is not None and self.sample <= 0:
            raise CampaignError("sample must be positive")
        if self.scan_chains < 1:
            raise CampaignError("scan_chains must be at least 1")
        if self.sampling not in SAMPLING_METHODS:
            raise CampaignError(
                f"unknown sampling method {self.sampling!r}; expected one "
                f"of {SAMPLING_METHODS}"
            )
        get_fault_model(self.fault_model)  # fail early on unknown models
        board_by_name(self.board)  # fail early on unknown boards

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    @property
    def base_circuit(self) -> str:
        """The circuit name with every ``hardened:`` layer stripped —
        the plain design underneath a (possibly nested) protection
        stack, which is what per-circuit defaults key on."""
        name = self.circuit
        while name.startswith("hardened:"):
            from repro.hardening import parse_hardened_name

            name = parse_hardened_name(name)[2]
        return name

    def resolved_cycles(self) -> int:
        """Testbench length after applying per-circuit defaults."""
        if self.num_cycles is not None:
            return self.num_cycles
        return PAPER_CYCLES.get(self.base_circuit, DEFAULT_CYCLES)

    def is_imported(self) -> bool:
        """True when the circuit comes from a netlist file (``file:`` or
        ``corpus:``) rather than a registered builder."""
        return self.base_circuit.startswith(("file:", "corpus:"))

    def resolved_testbench_kind(self) -> str:
        """Testbench kind after resolving ``auto``."""
        if self.testbench != "auto":
            return self.testbench
        if self.base_circuit == "b14":
            return "program"
        return "imported" if self.is_imported() else "random"

    def board_model(self) -> BoardModel:
        return board_by_name(self.board)

    @property
    def effective_circuit(self) -> str:
        """The circuit's full registry spelling, hardening included."""
        if self.hardening is None:
            return self.circuit
        from repro.hardening import format_scheme_segment

        segment = format_scheme_segment(self.hardening, self.hardening_flops)
        return f"hardened:{segment}:{self.circuit}"

    def build_netlist(self) -> Netlist:
        """The circuit, shared by every campaign on it through the
        per-process memo :func:`netlist_for` — frozen by contract."""
        return netlist_for(
            self.circuit, self.hardening, self.hardening_flops, self.circuit_digest()
        )

    def build_testbench(self, netlist: Netlist) -> Testbench:
        kind = self.resolved_testbench_kind()
        cycles = self.resolved_cycles()
        if kind == "program":
            if self.base_circuit != "b14":
                raise CampaignError(
                    "the program testbench is b14's instruction stimulus; "
                    f"circuit {self.circuit!r} cannot use it"
                )
            from repro.circuits.itc99.b14 import b14_program_testbench

            return b14_program_testbench(netlist, cycles, seed=self.seed)
        if kind == "imported":
            from repro.frontend import synthesize_testbench

            return synthesize_testbench(netlist, cycles, seed=self.seed)
        if kind == "random":
            return random_testbench(netlist, cycles, seed=self.seed)
        if kind == "burst":
            return burst_testbench(netlist, cycles, seed=self.seed)
        if kind == "walking_ones":
            return walking_ones_testbench(netlist, cycles)
        return constant_testbench(netlist, cycles)

    def fault_model_obj(self) -> FaultModel:
        """The registered fault model this spec injects."""
        return get_fault_model(self.fault_model)

    def population_size(self, netlist: Netlist) -> int:
        """Size of the complete fault set (before sampling)."""
        return self.fault_model_obj().population_size(
            netlist, self.resolved_cycles()
        )

    def build_faults(self, netlist: Netlist) -> Sequence[SeuFault]:
        faults = self.fault_model_obj().population(
            netlist, self.resolved_cycles()
        )
        if not faults:
            # Fail here, where the cause is nameable, instead of letting
            # a zero-fault campaign die deep in the emulation accounting
            # (combinational imports — e.g. the ISCAS-85 corpus entries —
            # have no flip-flops, so every flop-based model is empty).
            raise CampaignError(
                f"fault model {self.fault_model!r} has an empty population "
                f"on circuit {self.circuit!r} ({netlist.num_ffs} flip-flops, "
                f"{self.resolved_cycles()} cycles); combinational circuits "
                "can be listed and simulated but not campaign-graded"
            )
        if self.sample is not None:
            faults = draw_sample(
                faults, self.sample, seed=self.seed, method=self.sampling
            )
        return faults

    def scenario(self) -> Scenario:
        """Resolve the spec into concrete netlist/testbench/faults."""
        netlist = self.build_netlist()
        return Scenario(
            netlist=netlist,
            testbench=self.build_testbench(netlist),
            faults=self.build_faults(netlist),
        )

    # ------------------------------------------------------------------
    # serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-dict form; ``from_dict`` inverts it exactly."""
        data = {
            field.name: getattr(self, field.name) for field in fields(self)
        }
        if data["hardening_flops"] is not None:
            data["hardening_flops"] = list(data["hardening_flops"])
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(
                f"unknown CampaignSpec fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def oracle_key(self) -> Dict:
        """The fields that determine grading outcomes.

        Technique, board, engine and scan_chains do not change a fault's
        fail/vanish cycles (all grading engines are bit-identical, and the
        other three only affect accounting), so campaigns differing only
        in those share one oracle — and one results store.

        For imported (``file:``/``corpus:``) circuits the key also
        carries a content digest of the netlist file: a circuit *name*
        no longer pins the circuit, so re-importing an unchanged file
        resumes the same store while any edit to the file changes the
        key (and therefore the campaign id) and regrades from scratch.
        """
        key = {
            "circuit": self.circuit,
            "testbench": self.resolved_testbench_kind(),
            "num_cycles": self.resolved_cycles(),
            "seed": self.seed,
            "sample": self.sample,
            "fault_model": self.fault_model,
            "sampling": self.sampling,
        }
        if self.hardening is not None:
            # Only present when set, so pre-hardening stores keep their
            # campaign ids (and resume) across this change.
            key["hardening"] = self.hardening
        if self.hardening_flops is not None:
            # Likewise only when set: all-flops campaigns keep their
            # pre-subset-grammar ids, while every distinct subset gets
            # its own resumable store.
            key["hardening_flops"] = list(self.hardening_flops)
        digest = self.circuit_digest()
        if digest is not None:
            key["circuit_digest"] = digest
        return key

    def circuit_digest(self) -> Optional[str]:
        """Content hash of the netlist file behind an imported circuit
        (``None`` for registered builders, whose identity is their
        name)."""
        source = circuit_source_path(self.circuit)
        if source is None:
            return None
        from repro.frontend import netlist_file_digest

        return netlist_file_digest(source)

    def wire_fields(self) -> Dict:
        """The scalar fields a remote worker needs beside the shipped
        artifacts (netlist text + stimulus) to rebuild this campaign's
        fault population.

        Deliberately *not* the circuit name: the wire protocol is
        content-addressed, so a worker never resolves registry names —
        hardening, imports and parameterized circuits are all already
        folded into the netlist text the client ships.
        """
        return {
            "engine": self.engine,
            "num_cycles": self.resolved_cycles(),
            "seed": self.seed,
            "sample": self.sample,
            "sampling": self.sampling,
            "fault_model": self.fault_model,
        }

    def fault_key(self) -> Dict:
        """The fields determining *which faults* a campaign injects.

        A subset of :meth:`oracle_key`, recorded separately in the
        results-store manifest so a resumed store can refuse — with a
        precise message — to adopt shards graded under a different fault
        model or sampling configuration.
        """
        key = {
            "fault_model": self.fault_model,
            "sampling": self.sampling,
            "sample": self.sample,
            "seed": self.seed,
        }
        if self.hardening is not None:
            # The hardened netlist has a different flop population, so a
            # mismatched resume should name the hardening difference.
            key["hardening"] = self.hardening
        if self.hardening_flops is not None:
            key["hardening_flops"] = list(self.hardening_flops)
        return key

    @property
    def campaign_id(self) -> str:
        """Stable, filesystem-safe identity of this campaign's oracle.

        Selective-subset segments are compacted in the slug (``@3ff``
        instead of the flop names) and the slug is capped, so a
        30-flop-subset campaign still gets a short, filesystem-safe
        directory name; the digest suffix keeps identities distinct.
        """
        canonical = json.dumps(self.oracle_key(), sort_keys=True)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]
        name = re.sub(
            r"@[^:]+",
            lambda match: f"@{match.group(0).count('+') + 1}ff",
            self.effective_circuit,
        )
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", name)[:96].rstrip("-.")
        return f"{slug}-{digest}"

    def with_technique(self, technique: str) -> "CampaignSpec":
        return replace(self, technique=technique)

    def with_hardening(
        self,
        hardening: Optional[str],
        hardening_flops: Optional[Sequence[str]] = None,
    ) -> "CampaignSpec":
        """The same campaign against a (differently) hardened circuit."""
        return replace(
            self, hardening=hardening, hardening_flops=hardening_flops
        )

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    @classmethod
    def matrix(
        cls,
        circuits: Sequence[str],
        techniques: Optional[Iterable[str]] = None,
        engines: Optional[Iterable[str]] = None,
        **common,
    ) -> List["CampaignSpec"]:
        """Expand circuits x techniques x engines into a scenario sweep.

        ``common`` supplies the remaining spec fields (seed, num_cycles,
        sample, ...). Order is circuit-major, then technique, then engine
        — campaigns sharing an oracle stay adjacent, so a runner sweeping
        the list grades each circuit once.
        """
        technique_list = list(techniques) if techniques else list(TECHNIQUES)
        engine_list = list(engines) if engines else [DEFAULT_BACKEND]
        specs = []
        for circuit in circuits:
            for technique in technique_list:
                for engine in engine_list:
                    specs.append(
                        cls(
                            circuit=circuit,
                            technique=technique,
                            engine=engine,
                            **common,
                        )
                    )
        return specs


def scenario_from_wire(
    netlist: Netlist, testbench: Testbench, fields: Dict
) -> Scenario:
    """Rebuild a campaign scenario from shipped wire artifacts.

    The remote half of :meth:`CampaignSpec.wire_fields`: ``netlist`` is
    parsed from the shipped canonical dump, ``testbench`` the
    reconstructed stimulus, ``fields`` the scalar fault-population
    description. The fault list is rebuilt exactly as
    :meth:`CampaignSpec.build_faults` builds it — fault-model population
    over the netlist, then the deterministic sample draw — so a worker
    that never saw the registry grades the *identical* fault list in the
    identical order, which is what makes remote shard records mergeable
    (and re-runnable) bit-exactly.
    """
    num_cycles = int(fields["num_cycles"])
    if testbench.num_cycles != num_cycles:
        raise CampaignError(
            f"wire stimulus has {testbench.num_cycles} cycles but the "
            f"campaign declares {num_cycles}"
        )
    model = get_fault_model(str(fields["fault_model"]))
    faults = model.population(netlist, num_cycles)
    if not faults:
        raise CampaignError(
            f"fault model {fields['fault_model']!r} has an empty population "
            f"on the shipped netlist ({netlist.num_ffs} flip-flops, "
            f"{num_cycles} cycles)"
        )
    if fields.get("sample") is not None:
        faults = draw_sample(
            faults,
            int(fields["sample"]),
            seed=int(fields.get("seed", 0)),
            method=str(fields.get("sampling", "uniform")),
        )
    return Scenario(netlist=netlist, testbench=testbench, faults=faults)
