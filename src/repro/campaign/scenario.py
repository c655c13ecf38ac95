"""Declarative scenario descriptions.

A :class:`Scenario` is the unit of work of a campaign: *which circuit*
(by registered factory name + parameters, so any worker process can
rebuild it), *which integration method*, and *which simulation options*.
Scenarios are plain data -- picklable, JSON-serializable via
:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict` -- because they
cross process boundaries and land in campaign report files.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Optional, Tuple, Union

from repro.benchcircuits.registry import build_circuit
from repro.circuit.netlist import Circuit
from repro.core.options import SimOptions
from repro.integrators import INTEGRATOR_REGISTRY

__all__ = [
    "CircuitSpec",
    "Scenario",
    "apply_option_overrides",
    "canonical_scenario_json",
    "scenario_hash",
]

#: bumped whenever the canonical serialization (and therefore every stored
#: scenario hash) changes meaning; baked into :func:`scenario_hash`
SCENARIO_HASH_VERSION = 1


def _require_string(what: str, value: object) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, "
                        f"not {type(value).__name__}")


def _mapping(what: str, value: object) -> Dict[str, object]:
    """A copy of ``value``, which must be a mapping (a JSON object)."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a mapping, "
                        f"not {type(value).__name__}")
    return dict(value)


@dataclass(frozen=True)
class CircuitSpec:
    """A circuit identified by factory name plus keyword parameters.

    ``module``, when given, is imported before the factory lookup so that
    user-defined factories registered at import time of that module are
    available in freshly spawned workers (the built-in factories register
    themselves when ``repro.benchcircuits`` is imported).
    """

    factory: str
    params: Dict[str, object] = field(default_factory=dict)
    module: Optional[str] = None

    def __post_init__(self):
        _require_string("circuit factory", self.factory)
        if self.module is not None:
            _require_string("circuit module", self.module)

    def build(self) -> Circuit:
        if self.module:
            importlib.import_module(self.module)
        return build_circuit(self.factory, **self.params)

    def cache_key(self) -> str:
        """Stable identity used by the per-worker assembly cache."""
        return json.dumps(
            {"factory": self.factory.strip().lower(), "params": self.params},
            sort_keys=True, default=repr,
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"factory": self.factory, "params": dict(self.params)}
        if self.module:
            out["module"] = self.module
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CircuitSpec":
        return cls(
            factory=data["factory"],
            params=_mapping("circuit params", data.get("params", {})),
            module=data.get("module"),
        )


def apply_option_overrides(options: SimOptions, overrides: Dict[str, object]) -> SimOptions:
    """Apply flat overrides to ``options`` through :meth:`SimOptions.from_dict`.

    Returns a new :class:`SimOptions`; nothing is mutated.  Unknown keys
    and retired fields holding anything but their fixed value (dotted ones
    such as ``"newton.abstol"`` included) are refused by name.
    """
    return SimOptions.from_dict({**options.to_dict(), **overrides})


def canonical_scenario_json(data: Dict[str, object],
                            exclude: Tuple[str, ...] = ("name", "tags")) -> str:
    """Serialize a scenario dict into its canonical (hashable) JSON form.

    Keys are sorted recursively and non-JSON values fall back to ``repr``,
    so the text depends only on the scenario's *content*, never on dict
    insertion order.  By default the ``name`` and ``tags`` fields are
    dropped: they are presentation metadata and must not shift a
    scenario's identity (renaming a sweep or relabelling its coordinates
    would otherwise orphan every stored golden trajectory).
    :meth:`Scenario.variant_key` uses the same serialization with a
    different exclusion set, so the two identities can never drift apart.
    """
    payload = {k: v for k, v in data.items() if k not in exclude}
    return json.dumps(payload, sort_keys=True, default=repr)


def scenario_hash(scenario: Union["Scenario", Dict[str, object]]) -> str:
    """Stable content hash of a scenario (sha256 hex, version-prefixed input).

    Two scenarios hash equal iff they simulate the same circuit with the
    same method, options, seed and observation set; see
    :func:`canonical_scenario_json` for what is deliberately excluded.
    The golden-trajectory store of :mod:`repro.verify` keys its files by
    this hash.
    """
    data = scenario.to_dict() if isinstance(scenario, Scenario) else dict(scenario)
    text = f"v{SCENARIO_HASH_VERSION}:{canonical_scenario_json(data)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Scenario:
    """One fully specified simulation run.

    Attributes
    ----------
    name:
        Unique label within a campaign (the planner generates one from the
        sweep coordinates).
    circuit:
        The :class:`CircuitSpec` the workers rebuild.
    method:
        Integration method key (``"benr"``, ``"trap"``, ``"er"``, ``"er-c"``...),
        a key of :data:`repro.integrators.INTEGRATOR_REGISTRY` (any case).
    options:
        :class:`SimOptions` overrides as a flat dict, applied on top of
        the campaign's base options.
    seed:
        Deterministic scenario seed assigned by the planner.  Purely
        informational once the planner has folded it into the circuit
        parameters, but kept so a scenario is self-describing.
    observe:
        Node names whose waveforms are sampled into the outcome summary
        (used for the error-vs-reference columns of the campaign table).
    tags:
        Free-form metadata (sweep coordinates, for instance) carried
        into the aggregate tables untouched.
    """

    name: str
    circuit: CircuitSpec
    method: str = "er"
    options: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    observe: List[str] = field(default_factory=list)
    tags: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # a scenario that exists names a method the simulator accepts, so
        # a bad one is refused where it is built, not in a worker
        _require_string("scenario name", self.name)
        _require_string("method", self.method)
        if self.method.strip().lower() not in INTEGRATOR_REGISTRY:
            known = ", ".join(sorted(INTEGRATOR_REGISTRY))
            raise ValueError(f"unknown integration method {self.method!r}; "
                             f"known methods: {known}")
        if self.seed is not None and (isinstance(self.seed, bool) or
                                      not isinstance(self.seed, Integral)):
            raise TypeError(f"seed must be an integer or absent, "
                            f"not {type(self.seed).__name__}")
        if not isinstance(self.observe, (list, tuple)):
            raise TypeError(f"observe must be a list of node names, "
                            f"not {type(self.observe).__name__}")
        for node in self.observe:
            _require_string("observed node name", node)
        self.observe = list(self.observe)

    def sim_options(self, base: Optional[SimOptions] = None) -> SimOptions:
        """Resolve the concrete :class:`SimOptions` for this scenario."""
        options = base if base is not None else SimOptions()
        if self.options:
            options = apply_option_overrides(options, self.options)
        return options

    def variant_key(self) -> str:
        """Identity of the scenario *modulo method*.

        Two scenarios with equal variant keys simulate the same circuit
        under the same options with different integrators -- exactly the
        pairs the aggregator compares when computing speedups and errors
        against a reference method.
        """
        return canonical_scenario_json(self.to_dict(), exclude=("name", "method"))

    def content_hash(self) -> str:
        """Stable identity of the scenario's content (see :func:`scenario_hash`)."""
        return scenario_hash(self)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "circuit": self.circuit.to_dict(),
            "method": self.method,
        }
        if self.options:
            out["options"] = dict(self.options)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        if self.observe:
            out["observe"] = list(self.observe)
        if self.tags:
            out["tags"] = dict(self.tags)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        return cls(
            name=data["name"],
            circuit=CircuitSpec.from_dict(data["circuit"]),
            method=data.get("method", "er"),
            options=_mapping("options", data.get("options", {})),
            seed=data.get("seed"),
            observe=data.get("observe", []),
            tags=_mapping("tags", data.get("tags", {})),
        )
