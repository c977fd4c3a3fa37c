"""Fault-model interface and registry.

A *fault model* describes what a fault physically is — which state bits it
perturbs, when, and whether the perturbation is re-applied every cycle —
and knows how to enumerate the complete fault population for a circuit
and testbench length. Models register themselves by name so campaign
specs and the CLI can select one with a plain string
(``fault_model="stuck_at_1"``), mirroring the grading-engine registry.

Parameterized models register a *prefix* handler: ``mbu:3`` resolves to a
3-bit multi-bit-upset model, ``intermittent:8:3`` to a duty-cycle fault
active 3 cycles out of every 8. The parsed instances are memoized so two
specs naming the same model share one object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Type

from repro.errors import CampaignError
from repro.faults.model import FaultArray
from repro.netlist.netlist import Netlist


class FaultModel(ABC):
    """One injectable fault model.

    Subclasses set ``name`` (the registry key) and ``transient`` (False
    when the model forces state every cycle), and implement
    :meth:`population`. Faults returned by :meth:`population` must be
    cycle-major sorted so cycle windows are contiguous slices (the
    sharded runner and the time-mux engine rely on this).
    """

    #: registry key, e.g. ``"stuck_at_0"``
    name: str = ""

    #: False for models that re-apply a force every cycle (stuck-at,
    #: intermittent); their faults can re-diverge after converging, so
    #: neither the grading engines nor the emulated time-mux controller
    #: may early-exit on state convergence.
    transient: bool = True

    @abstractmethod
    def population(self, netlist: Netlist, num_cycles: int) -> FaultArray:
        """The complete fault set for ``netlist`` over ``num_cycles``."""

    def population_size(self, netlist: Netlist, num_cycles: int) -> int:
        """Size of :meth:`population` (two int32 columns to build; models
        that can refuse a netlist override this with a closed form)."""
        return len(self.population(netlist, num_cycles))

    def describe(self) -> str:
        """One-line injection semantics (docs, CLI errors)."""
        return self.name


_REGISTRY: Dict[str, FaultModel] = {}
_PREFIXES: Dict[str, Callable[[str], FaultModel]] = {}
_PREFIX_SYNTAX: Dict[str, str] = {}
_PARSED: Dict[str, FaultModel] = {}


def register_model(model_cls: Type[FaultModel]) -> Type[FaultModel]:
    """Class decorator: instantiate and register a model by its name."""
    model = model_cls()
    if not model.name:
        raise ValueError(f"{model_cls.__name__} must set a name")
    _REGISTRY[model.name] = model
    return model_cls


def register_model_prefix(
    prefix: str,
    factory: Callable[[str], FaultModel],
    syntax: Optional[str] = None,
) -> None:
    """Register a handler for parameterized names ``<prefix>:<params>``.

    ``syntax`` is the human-facing parameter spelling shown by
    :func:`available_models` (CLI help, unknown-model errors), e.g.
    ``"intermittent:<period>:<duty>"``.
    """
    _PREFIXES[prefix] = factory
    _PREFIX_SYNTAX[prefix] = syntax or f"{prefix}:<k>"


def get_fault_model(name: str) -> FaultModel:
    """Look up a fault model by (possibly parameterized) name."""
    model = _REGISTRY.get(name) or _PARSED.get(name)
    if model is not None:
        return model
    prefix = name.split(":", 1)[0]
    factory = _PREFIXES.get(prefix)
    if factory is not None:
        model = factory(name)
        _PARSED[name] = model
        return model
    raise CampaignError(
        f"unknown fault model {name!r}; available models: "
        + ", ".join(available_models())
    )


def available_models() -> List[str]:
    """Sorted names of registered models (parameterized families shown
    with their parameter syntax)."""
    names = sorted(_REGISTRY)
    names.extend(sorted(_PREFIX_SYNTAX.values()))
    return names
