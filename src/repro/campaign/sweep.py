"""Sweep planning: expand a declarative grid sweep into a scenario list.

:func:`grid_sweep` takes the full cartesian product of circuits x
circuit-parameter grid x option grid x methods -- the Table I / "method
shootout" shape every campaign of the paper's evaluation uses.

Determinism rules
-----------------
Every *variant* (one circuit + parameter + option combination, shared by
all methods) receives a seed derived from ``base_seed`` and its position
via :func:`repro.core.rng.derive_seed`.  When the circuit factory takes a
``seed`` parameter that the sweep didn't pin explicitly, the variant seed
is folded into the circuit parameters at *plan time* -- so a scenario list
is a complete, worker-independent description of the campaign, and methods
compared on the "same" circuit really do see an identical netlist.
"""

from __future__ import annotations

import importlib
import itertools
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.benchcircuits.registry import factory_accepts_seed
from repro.campaign.scenario import CircuitSpec, Scenario
from repro.core.rng import derive_seed

__all__ = ["grid_sweep"]

#: accepted circuit designators: "ckt3", ("rc_mesh", {...}) or a CircuitSpec
CircuitLike = Union[str, Tuple[str, Dict[str, object]], CircuitSpec]


def _as_spec(circuit: CircuitLike) -> CircuitSpec:
    if isinstance(circuit, CircuitSpec):
        return circuit
    if isinstance(circuit, str):
        return CircuitSpec(factory=circuit)
    if isinstance(circuit, tuple) and len(circuit) == 2:
        return CircuitSpec(factory=circuit[0], params=dict(circuit[1]))
    raise TypeError(
        "circuits must be factory names, (name, params) tuples or CircuitSpec objects"
    )


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _coords_label(coords: Dict[str, object]) -> str:
    return ",".join(f"{k}={_fmt_value(v)}" for k, v in coords.items())


def _inject_seed(spec: CircuitSpec, seed: int) -> CircuitSpec:
    """Fold ``seed`` into the circuit params unless the sweep pinned one."""
    if spec.module:
        # make user factories registered at import time of spec.module
        # visible to the planner, exactly as CircuitSpec.build() does
        importlib.import_module(spec.module)
    try:
        takes_seed = factory_accepts_seed(spec.factory)
    except KeyError:
        takes_seed = False  # user factory not registered in the planner process
    if not takes_seed or "seed" in spec.params:
        return spec
    params = dict(spec.params)
    params["seed"] = int(seed)
    return CircuitSpec(factory=spec.factory, params=params, module=spec.module)


def _expand_grid(grid: Optional[Dict[str, Sequence[object]]]) -> List[Dict[str, object]]:
    """Cartesian product of a ``{key: [values...]}`` grid (in key order)."""
    if not grid:
        return [{}]
    keys = list(grid)
    combos = []
    for values in itertools.product(*(grid[k] for k in keys)):
        combos.append(dict(zip(keys, values)))
    return combos


def grid_sweep(
    circuits: Sequence[CircuitLike],
    methods: Sequence[str],
    param_grid: Optional[Dict[str, Sequence[object]]] = None,
    option_grid: Optional[Dict[str, Sequence[object]]] = None,
    base_seed: int = 0,
    observe: Sequence[str] = (),
) -> List[Scenario]:
    """Cartesian product sweep: circuits x param grid x option grid x methods.

    ``param_grid`` values become circuit-factory keyword arguments;
    ``option_grid`` keys are :class:`SimOptions` fields.  All methods share
    each variant's circuit seed, so the per-method rows of the aggregate
    table are directly comparable.
    """
    scenarios: List[Scenario] = []
    seen_names = set()
    for c_index, circuit in enumerate(circuits):
        base = _as_spec(circuit)
        for p_index, params in enumerate(_expand_grid(param_grid)):
            # the seed depends on the circuit and its parameters only, so
            # option-grid variants compare methods on an identical netlist
            seed = derive_seed(base_seed, c_index, p_index)
            spec = _inject_seed(CircuitSpec(
                factory=base.factory,
                params={**base.params, **params},
                module=base.module,
            ), seed)
            for options in _expand_grid(option_grid):
                tags = {**params, **options}
                label = base.factory
                if params:
                    label += f"[{_coords_label(params)}]"
                if options:
                    label += f"({_coords_label(options)})"
                for method in methods:
                    name = f"{label}/{method}"
                    if name in seen_names:
                        raise ValueError(f"duplicate scenario name {name!r} in sweep")
                    seen_names.add(name)
                    scenarios.append(Scenario(
                        name=name,
                        circuit=spec,
                        method=method,
                        options=dict(options),
                        seed=seed,
                        observe=list(observe),
                        tags=dict(tags),
                    ))
    return scenarios
