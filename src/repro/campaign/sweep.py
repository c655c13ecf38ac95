"""Sweep planning: expand declarative sweeps into scenario lists.

Three expansion styles cover the evaluation patterns of the paper and of
production parameter studies:

* :func:`grid_sweep` -- full cartesian product of circuits x methods x
  circuit-parameter grid x option grid (the Table I / "method shootout"
  shape);
* :func:`corner_sweep` -- named corners, each a bundle of circuit-parameter
  and option overrides (PVT-corner style);
* :func:`monte_carlo_sweep` -- random parameter draws from declarative
  distributions with deterministic per-draw seeds.

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
import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.benchcircuits.registry import factory_accepts_seed
from repro.campaign.scenario import CircuitSpec, Scenario
from repro.core.rng import as_generator, derive_seed

__all__ = ["grid_sweep", "corner_sweep", "monte_carlo_sweep", "sample_distribution"]

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


def _build_scenarios(
    variants: Iterable[Tuple[CircuitSpec, Dict[str, object], Dict[str, object], str, int]],
    methods: Sequence[str],
    observe: Sequence[str],
) -> List[Scenario]:
    """Cross the (already expanded) variants with the method list.

    Each variant carries its own pre-derived seed so that planners control
    which sweep coordinates change the circuit: an option-only grid keeps
    the seed (and hence the random netlist) fixed, while Monte-Carlo draws
    get one seed per draw.
    """
    scenarios: List[Scenario] = []
    seen_names = set()
    for spec, options, tags, label, seed in variants:
        spec = _inject_seed(spec, seed)
        for method in methods:
            name = f"{label}/{method}" if label else method
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
    variants = []
    for c_index, circuit in enumerate(circuits):
        base = _as_spec(circuit)
        for p_index, params in enumerate(_expand_grid(param_grid)):
            # the seed depends on the circuit and its parameters only, so
            # option-grid variants compare methods on an identical netlist
            seed = derive_seed(base_seed, c_index, p_index)
            for options in _expand_grid(option_grid):
                spec = CircuitSpec(
                    factory=base.factory,
                    params={**base.params, **params},
                    module=base.module,
                )
                tags = {**params, **options}
                label = base.factory
                if params:
                    label += f"[{_coords_label(params)}]"
                if options:
                    label += f"({_coords_label(options)})"
                variants.append((spec, options, tags, label, seed))
    return _build_scenarios(variants, methods, observe)


def corner_sweep(
    circuits: Sequence[CircuitLike],
    methods: Sequence[str],
    corners: Dict[str, Dict[str, Dict[str, object]]],
    base_seed: int = 0,
    observe: Sequence[str] = (),
) -> List[Scenario]:
    """Named-corner sweep.

    ``corners`` maps a corner name to ``{"params": {...}, "options": {...}}``
    (either key may be omitted), e.g.::

        corners={
            "slow": {"params": {"r_segment": 30.0}, "options": {"err_budget": 1e-5}},
            "fast": {"params": {"r_segment": 10.0}},
        }
    """
    variants = []
    for c_index, circuit in enumerate(circuits):
        base = _as_spec(circuit)
        # corners sharing the same circuit parameters share a netlist seed,
        # so option-only corners compare methods/options on identical circuits
        # (mirroring grid_sweep's rule that only params drive the seed)
        param_seed_index: Dict[str, int] = {}
        for corner_name, corner in corners.items():
            extra_keys = set(corner) - {"params", "options"}
            if extra_keys:
                raise ValueError(
                    f"corner {corner_name!r} has unknown key(s): {sorted(extra_keys)}"
                )
            params = dict(corner.get("params", {}))
            options = dict(corner.get("options", {}))
            spec = CircuitSpec(
                factory=base.factory,
                params={**base.params, **params},
                module=base.module,
            )
            tags = {"corner": corner_name}
            params_key = json.dumps(spec.params, sort_keys=True, default=repr)
            p_index = param_seed_index.setdefault(params_key, len(param_seed_index))
            seed = derive_seed(base_seed, c_index, p_index)
            variants.append((spec, options, tags, f"{base.factory}[{corner_name}]", seed))
    return _build_scenarios(variants, methods, observe)


#: declarative distribution spec: ("uniform", lo, hi), ("loguniform", lo, hi),
#: ("normal", mu, sigma), ("randint", lo, hi), ("choice", [a, b, ...]) or a
#: callable rng -> value.
DistributionLike = Union[Tuple, Callable]


def sample_distribution(dist: DistributionLike, rng) -> object:
    """Draw one value from a declarative distribution spec."""
    if callable(dist):
        return dist(rng)
    if not isinstance(dist, (tuple, list)) or not dist:
        raise TypeError(f"not a distribution spec: {dist!r}")
    kind = str(dist[0]).lower()
    args = dist[1:]
    if kind == "uniform":
        return float(rng.uniform(args[0], args[1]))
    if kind == "loguniform":
        import numpy as np
        lo, hi = float(args[0]), float(args[1])
        if lo <= 0 or hi <= lo:
            raise ValueError("loguniform needs 0 < lo < hi")
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    if kind == "normal":
        return float(rng.normal(args[0], args[1]))
    if kind == "randint":
        return int(rng.integers(args[0], args[1]))
    if kind == "choice":
        values = list(args[0])
        return values[int(rng.integers(len(values)))]
    raise ValueError(f"unknown distribution kind {kind!r}")


def monte_carlo_sweep(
    circuits: Sequence[CircuitLike],
    methods: Sequence[str],
    draws: int,
    param_distributions: Optional[Dict[str, DistributionLike]] = None,
    option_distributions: Optional[Dict[str, DistributionLike]] = None,
    base_seed: int = 0,
    observe: Sequence[str] = (),
) -> List[Scenario]:
    """Monte-Carlo sweep with deterministic, worker-independent draws.

    Draw ``d`` of circuit ``c`` samples all distributions from an RNG
    seeded by ``derive_seed(base_seed, c, d)``; the sampled values are
    materialized into the scenario at plan time, so re-planning with the
    same ``base_seed`` reproduces the exact campaign regardless of how
    scenarios are later scheduled across processes.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    param_distributions = param_distributions or {}
    option_distributions = option_distributions or {}
    variants = []
    for c_index, circuit in enumerate(circuits):
        base = _as_spec(circuit)
        for draw in range(draws):
            seed = derive_seed(base_seed, c_index, draw)
            rng = as_generator(seed)
            params = {k: sample_distribution(d, rng) for k, d in param_distributions.items()}
            options = {k: sample_distribution(d, rng) for k, d in option_distributions.items()}
            spec = CircuitSpec(
                factory=base.factory,
                params={**base.params, **params},
                module=base.module,
            )
            tags = {"draw": draw, **params, **options}
            variants.append((spec, options, tags, f"{base.factory}[mc{draw}]", seed))
    return _build_scenarios(variants, methods, observe)
