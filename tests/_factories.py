"""Small instances of every registered circuit factory, for tests that
sweep the whole registry."""

import repro.verify.circuits  # noqa: F401 -- registers the verify factories
from repro.benchcircuits.registry import build_circuit, circuit_factory_names

#: small instances of every factory that needs arguments
FACTORY_PARAMS = {
    "coupled_lines": dict(num_lines=4, segments_per_line=6, long_range_fraction=0.3),
    "driven_coupled_bus": dict(num_lines=3, segments_per_line=4),
    "driven_family": dict(family="rlc_line", source="sin", num_segments=5),
    "inverter_chain": dict(num_stages=4),
    "large_rc_mesh": dict(rows=6, cols=7, coupling_fraction=0.3, seed=2),
    "large_rlc_mesh": dict(rows=9, cols=9, coupling_fraction=0.3),
    "pdn_multilayer": dict(rows=8, cols=8, coupling_fraction=0.5, num_loads=4),
    "power_grid": dict(rows=6, cols=6, num_loads=5),
    "rc_ladder": dict(num_segments=12),
    "rc_mesh": dict(rows=5, cols=5, coupling_fraction=0.4),
    "rlc_line": dict(num_segments=6),
    "freecpu_like_circuit": dict(num_nets=6, segments_per_net=4),
}


def build_small(name):
    """The small instance of the factory registered under ``name``."""
    return build_circuit(name, **FACTORY_PARAMS.get(name, {}))


__all__ = ["FACTORY_PARAMS", "build_small", "circuit_factory_names"]
