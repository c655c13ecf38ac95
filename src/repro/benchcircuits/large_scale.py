"""Large-scale benchmark circuit generators (10k-100k nodes).

The small factories in :mod:`rc_networks` / :mod:`power_grid` top out in
the hundreds of nodes; these generators produce the sizes the paper's
cost-model claims are *about* -- where ``nnz(LU(C/h + G))`` vs
``nnz(LU(G))`` decides between finishing and "Out of Memory".  All three
are linear, deterministic given ``seed``, and registered in the factory
registry, so campaigns, the verify matrix and the benchmarks address
them by name.

Sparsity budgets (per grid node ``N``, excluding the driver/pad rows):

* :func:`large_rc_mesh` -- 4-neighbor stencil: ``nnz(G) ~ 5N``;
  grounded caps keep ``C`` diagonal, ``nnz(C) ~ N + 4 * coupling_fraction
  * N`` (each coupling capacitor adds 2 off-diagonals and touches 2
  diagonals).  ``coupling_fraction`` is the fill-in knob: the fill of
  ``LU(C/h + G)`` grows super-linearly in it while ``LU(G)`` is
  untouched -- the Fig. 1 gap.  Both matrices are structurally
  symmetric, so :func:`repro.linalg.sparse_lu.factorize` orders them by
  symmetric minimum degree (``MMD_AT_PLUS_A``); ``bench_fig1_nnz.py
  --check`` asserts that fills no worse than SuperLU's default COLAMD.
* :func:`pdn_multilayer` -- ``layers`` stacked meshes: ``nnz(G) ~ 5N +
  2 * N / via_pitch^2``; decaps are diagonal, per-layer
  ``coupling_fraction`` densifies ``C`` exactly as above.  Pads add one
  R-L branch (2 extra MNA unknowns) per ``pad_pitch`` boundary node of
  the top layer.
* :func:`large_rlc_mesh` -- RC mesh whose trunk edges (every
  ``inductive_pitch``-th row/column) are series R-L: each such edge adds
  one internal node and one branch unknown, so the MNA dimension is
  ``N * (1 + ~4/inductive_pitch)``.

Generation cost is one Python element append per device (~1s per 25k
nodes); the assembled matrices are CSC throughout, so a 100k-node mesh
assembles and factorizes ``G`` in seconds while holding tens of MB.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.sources import PULSE, PWL, Waveform
from repro.core.rng import SeedLike, as_generator

__all__ = ["large_rc_mesh", "pdn_multilayer", "large_rlc_mesh"]


def _coupling_pairs(rng, rows: int, cols: int,
                    count: int) -> List[Tuple[int, int, int, int]]:
    """Draw ``count`` distinct non-adjacent node pairs, vectorized.

    The small-mesh generator rejection-samples one pair per iteration;
    at 100k nodes that loop dominates generation, so here candidates are
    drawn in batches and filtered with array ops.  Pairs are canonical
    (flat1 < flat2) and unique.
    """
    pairs: List[Tuple[int, int, int, int]] = []
    seen = set()
    n = rows * cols
    while len(pairs) < count:
        batch = max(1024, 2 * (count - len(pairs)))
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n, size=batch)
        r1, c1 = np.divmod(a, cols)
        r2, c2 = np.divmod(b, cols)
        # drop self-pairs and grid neighbours (those belong to G's pattern)
        keep = (np.abs(r1 - r2) + np.abs(c1 - c2)) > 1
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        for flat1, flat2 in zip(lo.tolist(), hi.tolist()):
            key = (flat1, flat2)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((flat1 // cols, flat1 % cols,
                          flat2 // cols, flat2 % cols))
            if len(pairs) == count:
                break
    return pairs


def large_rc_mesh(
    rows: int,
    cols: int,
    r_per_edge: float = 50.0,
    c_per_node: float = 5e-15,
    coupling_fraction: float = 0.0,
    coupling_cap: float = 2e-15,
    drive: Optional[Waveform] = None,
    seed: SeedLike = 0,
    name: str = "large_rc_mesh",
) -> Circuit:
    """A ``rows x cols`` RC mesh built for the 10k-100k node regime.

    Electrically the same family as :func:`~repro.benchcircuits.
    rc_networks.rc_mesh` (4-neighbour resistor stencil, grounded cap per
    node, optional random coupling caps) with the coupling selection
    vectorized so generation stays O(N).  ``coupling_fraction`` is the
    number of coupling capacitors as a fraction of the node count; it is
    the knob that separates ``LU(C/h + G)`` fill-in from ``LU(G)``.
    """
    if rows < 2 or cols < 2:
        raise ValueError("large_rc_mesh needs at least a 2x2 grid")
    ckt = Circuit(name)
    if drive is None:
        drive = PULSE(0.0, 1.0, 0.0, 20e-12, 20e-12, 0.5e-9, 1e-9)

    def node(r: int, c: int) -> str:
        return f"n{r}_{c}"

    ckt.add_vsource("Vin", "in", "0", drive)
    ckt.add_resistor("Rdrv", "in", node(0, 0), r_per_edge)

    for r in range(rows):
        for c in range(cols):
            ckt.add_capacitor(f"Cg{r}_{c}", node(r, c), "0", c_per_node)
            if c + 1 < cols:
                ckt.add_resistor(f"Rh{r}_{c}", node(r, c), node(r, c + 1),
                                 r_per_edge)
            if r + 1 < rows:
                ckt.add_resistor(f"Rv{r}_{c}", node(r, c), node(r + 1, c),
                                 r_per_edge)

    num_coupling = int(round(coupling_fraction * rows * cols))
    if num_coupling > 0:
        rng = as_generator(seed)
        for k, (r1, c1, r2, c2) in enumerate(
                _coupling_pairs(rng, rows, cols, num_coupling)):
            ckt.add_coupling_capacitor(f"Cc{k}", node(r1, c1), node(r2, c2),
                                       coupling_cap)
    return ckt


def _per_layer(value: Union[float, Sequence[float]], layers: int,
               what: str) -> List[float]:
    """Broadcast a scalar (or validate a sequence) to one value per layer."""
    if isinstance(value, (int, float)):
        return [float(value)] * layers
    values = [float(v) for v in value]
    if len(values) != layers:
        raise ValueError(f"{what} must have one entry per layer "
                         f"({layers}), got {len(values)}")
    return values


def pdn_multilayer(
    rows: int,
    cols: int,
    layers: int = 2,
    vdd: float = 1.0,
    r_mesh: float = 0.05,
    r_layer_factor: float = 4.0,
    r_via: float = 0.2,
    via_pitch: int = 4,
    pad_pitch: int = 8,
    r_package: float = 0.01,
    l_package: float = 1e-10,
    decap: float = 50e-15,
    coupling_fraction: Union[float, Sequence[float]] = 0.0,
    coupling_cap: float = 5e-15,
    num_loads: Optional[int] = None,
    load_peak_current: float = 5e-4,
    load_rise: float = 50e-12,
    load_width: float = 200e-12,
    seed: SeedLike = 0,
    name: str = "pdn_multilayer",
) -> Circuit:
    """A multi-layer power-distribution network with vias and a pad ring.

    Layer 0 is the top (package-facing) metal; each deeper layer is a
    ``rows x cols`` mesh whose sheet resistance grows by
    ``r_layer_factor`` (thinner lower metal).  Vias of resistance
    ``r_via`` connect vertically on a ``via_pitch`` grid.  The top
    layer's boundary carries the pad ring: every ``pad_pitch``-th
    boundary node ties to the ideal supply through a package R-L branch.
    Decaps sit on every bottom-layer node and the PWL switching-current
    loads (the aggressors of a PDN transient) draw from random
    bottom-layer nodes.  ``coupling_fraction`` -- a scalar or one value
    per layer -- adds random in-layer coupling capacitors, the per-layer
    knob that densifies ``C`` without touching ``G``.
    """
    if rows < 2 or cols < 2:
        raise ValueError("pdn_multilayer needs at least a 2x2 mesh")
    if layers < 1:
        raise ValueError("pdn_multilayer needs at least one layer")
    if via_pitch < 1 or pad_pitch < 1:
        raise ValueError("via_pitch and pad_pitch must be positive")
    coupling = _per_layer(coupling_fraction, layers, "coupling_fraction")
    rng = as_generator(seed)
    ckt = Circuit(name)

    def node(layer: int, r: int, c: int) -> str:
        return f"m{layer}_{r}_{c}"

    ckt.add_vsource("Vdd", "vdd_ideal", "0", vdd)

    # pad ring on the top layer boundary
    boundary = [(0, c) for c in range(cols)]
    boundary += [(rows - 1, c) for c in range(cols)]
    boundary += [(r, 0) for r in range(1, rows - 1)]
    boundary += [(r, cols - 1) for r in range(1, rows - 1)]
    pads = sorted(set(boundary))[::pad_pitch]
    for k, (r, c) in enumerate(pads):
        mid = f"pad{k}"
        ckt.add_resistor(f"Rpad{k}", "vdd_ideal", mid, r_package)
        ckt.add_inductor(f"Lpad{k}", mid, node(0, r, c), l_package)

    # per-layer meshes
    for layer in range(layers):
        r_edge = r_mesh * (r_layer_factor ** layer)
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    ckt.add_resistor(f"Rh{layer}_{r}_{c}", node(layer, r, c),
                                     node(layer, r, c + 1), r_edge)
                if r + 1 < rows:
                    ckt.add_resistor(f"Rv{layer}_{r}_{c}", node(layer, r, c),
                                     node(layer, r + 1, c), r_edge)

    # vias on the pitch grid
    for layer in range(layers - 1):
        for r in range(0, rows, via_pitch):
            for c in range(0, cols, via_pitch):
                ckt.add_resistor(f"Rvia{layer}_{r}_{c}", node(layer, r, c),
                                 node(layer + 1, r, c), r_via)

    # decaps on the bottom layer
    bottom = layers - 1
    for r in range(rows):
        for c in range(cols):
            ckt.add_capacitor(f"Cd{r}_{c}", node(bottom, r, c), "0", decap)

    # per-layer coupling capacitors
    for layer in range(layers):
        num_coupling = int(round(coupling[layer] * rows * cols))
        if num_coupling > 0:
            for k, (r1, c1, r2, c2) in enumerate(
                    _coupling_pairs(rng, rows, cols, num_coupling)):
                ckt.add_coupling_capacitor(
                    f"Cc{layer}_{k}", node(layer, r1, c1), node(layer, r2, c2),
                    coupling_cap)

    # switching-current loads on the bottom layer
    if num_loads is None:
        num_loads = max(1, rows * cols // 8)
    chosen = rng.choice(rows * cols, size=min(num_loads, rows * cols),
                        replace=False)
    for k, flat in enumerate(np.sort(chosen)):
        r, c = divmod(int(flat), cols)
        start = float(rng.uniform(0.0, 100e-12))
        peak = float(load_peak_current * rng.uniform(0.5, 1.5))
        waveform = PWL([
            (start, 0.0),
            (start + load_rise, peak),
            (start + load_rise + load_width, peak),
            (start + 2 * load_rise + load_width, 0.0),
        ])
        ckt.add_isource(f"Iload{k}", node(bottom, r, c), "0", waveform)
    return ckt


def large_rlc_mesh(
    rows: int,
    cols: int,
    r_per_edge: float = 50.0,
    c_per_node: float = 5e-15,
    l_trunk: float = 5e-10,
    inductive_pitch: int = 8,
    coupling_fraction: float = 0.0,
    coupling_cap: float = 2e-15,
    drive: Optional[Waveform] = None,
    seed: SeedLike = 0,
    name: str = "large_rlc_mesh",
) -> Circuit:
    """An RC mesh whose trunk wires carry series inductance.

    Every ``inductive_pitch``-th row's horizontal edges become series
    R-L branches (an internal node plus an inductor branch unknown per
    edge), modelling the wide upper-metal trunks of a clock or supply
    grid; all other edges stay purely resistive.  With the defaults the
    trunks are underdamped enough to ring, which exercises the
    oscillatory regime at scale.
    """
    if rows < 2 or cols < 2:
        raise ValueError("large_rlc_mesh needs at least a 2x2 grid")
    if inductive_pitch < 1:
        raise ValueError("inductive_pitch must be positive")
    ckt = Circuit(name)
    if drive is None:
        drive = PULSE(0.0, 1.0, 0.0, 20e-12, 20e-12, 0.5e-9, 1e-9)

    def node(r: int, c: int) -> str:
        return f"n{r}_{c}"

    ckt.add_vsource("Vin", "in", "0", drive)
    ckt.add_resistor("Rdrv", "in", node(0, 0), r_per_edge)

    for r in range(rows):
        trunk = (r % inductive_pitch) == 0
        for c in range(cols):
            ckt.add_capacitor(f"Cg{r}_{c}", node(r, c), "0", c_per_node)
            if c + 1 < cols:
                if trunk:
                    mid = f"x{r}_{c}"
                    ckt.add_resistor(f"Rh{r}_{c}", node(r, c), mid,
                                     r_per_edge)
                    ckt.add_inductor(f"Lh{r}_{c}", mid, node(r, c + 1),
                                     l_trunk)
                else:
                    ckt.add_resistor(f"Rh{r}_{c}", node(r, c),
                                     node(r, c + 1), r_per_edge)
            if r + 1 < rows:
                ckt.add_resistor(f"Rv{r}_{c}", node(r, c), node(r + 1, c),
                                 r_per_edge)

    num_coupling = int(round(coupling_fraction * rows * cols))
    if num_coupling > 0:
        rng = as_generator(seed)
        for k, (r1, c1, r2, c2) in enumerate(
                _coupling_pairs(rng, rows, cols, num_coupling)):
            ckt.add_coupling_capacitor(f"Cc{k}", node(r1, c1), node(r2, c2),
                                       coupling_cap)
    return ckt
