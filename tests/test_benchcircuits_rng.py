"""Deterministic RNG plumbing of the stochastic benchmark generators."""

import numpy as np
import pytest

from repro.benchcircuits import (
    coupled_lines,
    driven_coupled_bus,
    freecpu_like_circuit,
    freecpu_like_system,
    power_grid,
    rc_mesh,
)
from repro.core.rng import as_generator, derive_seed


def circuit_fingerprint(ckt):
    """Element names + node sets identify a generated circuit exactly."""
    return sorted((e.name, tuple(sorted(e.nodes))) for e in ckt.elements)


GENERATORS = [
    lambda seed: rc_mesh(4, 4, coupling_fraction=0.8, seed=seed),
    lambda seed: coupled_lines(3, 4, long_range_fraction=0.5, seed=seed),
    lambda seed: driven_coupled_bus(3, 3, long_range_fraction=0.5, seed=seed),
    lambda seed: freecpu_like_circuit(num_nets=3, segments_per_net=4, seed=seed),
    lambda seed: power_grid(3, 3, seed=seed),
]


@pytest.mark.parametrize("generator", GENERATORS)
def test_int_seed_is_reproducible(generator):
    assert circuit_fingerprint(generator(7)) == circuit_fingerprint(generator(7))


@pytest.mark.parametrize("generator", GENERATORS)
def test_generator_seed_matches_int_seed(generator):
    """Passing ``default_rng(s)`` must equal passing ``s`` directly."""
    from_int = circuit_fingerprint(generator(13))
    from_gen = circuit_fingerprint(generator(np.random.default_rng(13)))
    assert from_int == from_gen


def test_different_seeds_differ():
    a = circuit_fingerprint(rc_mesh(4, 4, coupling_fraction=0.8, seed=1))
    b = circuit_fingerprint(rc_mesh(4, 4, coupling_fraction=0.8, seed=2))
    assert a != b


def test_freecpu_like_system_generator_seed():
    C1, G1 = freecpu_like_system(n=64, seed=5)
    C2, G2 = freecpu_like_system(n=64, seed=np.random.default_rng(5))
    assert (C1 != C2).nnz == 0
    assert (G1 != G2).nnz == 0


def test_global_numpy_state_is_untouched():
    np.random.seed(42)
    before = np.random.get_state()[1].copy()
    rc_mesh(4, 4, coupling_fraction=0.8, seed=3)
    power_grid(3, 3, seed=3)
    after = np.random.get_state()[1].copy()
    assert np.array_equal(before, after)


class TestRngHelpers:
    def test_as_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_as_generator_from_int(self):
        a = as_generator(11).integers(0, 1 << 30, size=8)
        b = as_generator(11).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2) != derive_seed(1, 3)
        assert derive_seed(1, 2) != derive_seed(2, 2)
