"""Regression tests: ``run()`` must reuse the DC result cached by ``run_dc()``.

The DC result also carries the ordering of its last factorization, which
the transient installs in its symbolic cache.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import repro.analysis.dc as dc_module
import repro.core.simulator as simulator_module
import repro.linalg.sparse_lu as sparse_lu_module
from repro.benchcircuits.inverter_chain import inverter_chain
from repro.benchcircuits.power_grid import power_grid
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator


def rc_circuit():
    ckt = Circuit("rc")
    ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
    ckt.add_resistor("R1", "in", "out", 1000.0)
    ckt.add_capacitor("C1", "out", "0", 1e-12)
    return ckt


def _counting_dc(monkeypatch):
    calls = []
    original = simulator_module.dc_operating_point

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "dc_operating_point", counted)
    return calls


def test_run_after_run_dc_solves_dc_once(monkeypatch):
    calls = _counting_dc(monkeypatch)
    sim = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    dc = sim.run_dc()
    assert len(calls) == 1
    result = sim.run()
    assert result.stats.completed
    assert len(calls) == 1, "run() recomputed the DC point despite the cache"
    assert sim.dc_result is dc


def test_run_without_cache_solves_dc_once_and_caches(monkeypatch):
    calls = _counting_dc(monkeypatch)
    sim = TransientSimulator(rc_circuit(), method="benr", options=SimOptions(t_stop=1e-9))
    sim.run()
    assert len(calls) == 1
    assert sim.dc_result is not None
    # a second transient run on the same simulator reuses the cached point too
    sim.run()
    assert len(calls) == 1


def test_explicit_x0_skips_dc_entirely(monkeypatch):
    calls = _counting_dc(monkeypatch)
    sim = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    result = sim.run(x0=np.zeros(sim.mna.n))
    assert result.stats.completed
    assert calls == []


def test_dc_lu_work_attributed_regardless_of_call_order():
    """#LU (Table I) must not depend on whether run_dc() warmed the cache."""
    sim_plain = TransientSimulator(rc_circuit(), method="benr",
                                   options=SimOptions(t_stop=1e-9))
    plain = sim_plain.run()

    sim_warm = TransientSimulator(rc_circuit(), method="benr",
                                  options=SimOptions(t_stop=1e-9))
    sim_warm.run_dc()
    warm = sim_warm.run()
    again = sim_warm.run()

    assert warm.stats.num_lu_factorizations == plain.stats.num_lu_factorizations
    assert again.stats.num_lu_factorizations == plain.stats.num_lu_factorizations
    assert warm.stats.peak_factor_nnz == plain.stats.peak_factor_nnz


def test_cached_and_uncached_runs_agree(monkeypatch):
    sim_cached = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    sim_cached.run_dc()
    cached = sim_cached.run()

    sim_plain = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    plain = sim_plain.run()

    assert cached.stats.num_steps == plain.stats.num_steps
    np.testing.assert_allclose(cached.voltage("out"), plain.voltage("out"))


# -- the DC ordering handed to the transient -----------------------------------------


def _runs_with_and_without_seed(circuit, method, options):
    """A run seeded with the DC ordering and one whose DC result carries none."""
    seeded = TransientSimulator(circuit, method=method, options=options)
    dc = seeded.run_dc()
    plain = TransientSimulator(circuit, method=method, options=options)
    plain.seed_dc(dataclasses.replace(dc, ordering=None), seeded.dc_lu_stats)
    return seeded.run(), plain.run()


@pytest.mark.parametrize("method, build", [
    ("er", lambda: power_grid(5, 5, num_loads=3)),
    ("er-c", lambda: inverter_chain(3)),
])
def test_dc_ordering_spares_one_ordering_bit_identically(method, build):
    options = SimOptions(t_stop=0.2e-9)
    seeded, plain = _runs_with_and_without_seed(build(), method, options)
    assert seeded.stats.completed and plain.stats.completed
    np.testing.assert_array_equal(seeded.state_array, plain.state_array)
    lu, lu_plain = seeded.stats.lu, plain.stats.lu
    assert lu.num_orderings == lu_plain.num_orderings - 1
    assert lu.num_symbolic_reuses == lu_plain.num_symbolic_reuses + 1
    assert lu.num_factorizations == lu_plain.num_factorizations
    assert lu.num_solves == lu_plain.num_solves


def test_dc_ordering_travels_with_a_seeded_dc_result():
    """The campaign DC cache hands the result, ordering included, to a new simulator."""
    circuit = rc_circuit()
    circuit.add_isource("Ibias", "out", "0", 1e-4)  # a DC solve that factorizes
    first = TransientSimulator(circuit, method="er", options=SimOptions(t_stop=1e-9))
    first.run()
    second = TransientSimulator(circuit, method="er", options=SimOptions(t_stop=1e-9))
    second.seed_dc(first.dc_result, first.dc_lu_stats)
    result = second.run()
    assert result.stats.lu.num_orderings == 1  # the DC's own; the transient reuses it
    assert result.stats.lu.num_symbolic_reuses == 1


def test_dc_factor_is_freed_after_run_dc(monkeypatch):
    factors = []
    original = dc_module.factorize

    def recorded(*args, **kwargs):
        lu = original(*args, **kwargs)
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(dc_module, "factorize", recorded)
    sim = TransientSimulator(inverter_chain(2), method="er", options=SimOptions(t_stop=1e-10))
    dc = sim.run_dc()
    gc.collect()
    assert factors and all(ref() is None for ref in factors)
    # the kept ordering owns its memory: a view of SuperLU's perm_c would
    # keep the whole factor alive
    assert dc.ordering.perm_c.base is None


def test_dc_orders_an_unsymmetric_pattern_once_bit_identically(monkeypatch):
    """Every Newton Jacobian of the DC shares one pattern: one ordering, the
    rest symbolic reuses, and the same bytes as one-pass factorizations."""
    mna = inverter_chain(3).build()
    cached = TransientSimulator(mna, method="er-c")
    dc = cached.run_dc()
    lu = cached.dc_lu_stats
    assert dc.strategy == "newton" and lu.num_factorizations > 2
    assert lu.num_orderings == 1
    assert lu.num_symbolic_reuses == lu.num_factorizations - 1

    factorize = dc_module.factorize

    def one_pass(matrix, symbolic=None, **kwargs):
        return factorize(matrix, **kwargs)

    monkeypatch.setattr(dc_module, "factorize", one_pass)
    plain = TransientSimulator(inverter_chain(3).build(), method="er-c")
    plain_dc = plain.run_dc()
    assert plain.dc_lu_stats.num_orderings == lu.num_factorizations
    assert plain_dc.iterations == dc.iterations
    assert plain_dc.x.tobytes() == dc.x.tobytes()
    np.testing.assert_array_equal(plain_dc.ordering.perm_c, dc.ordering.perm_c)


@pytest.mark.parametrize("build", [lambda: inverter_chain(3).build(),
                                   lambda: power_grid(4, 4).build()],
                         ids=["unsymmetric", "symmetric"])
def test_dc_tests_each_jacobian_for_symmetry_once(monkeypatch, build):
    """The DC factorizer hands the symmetry it tested to factorize, which
    does not sort the pattern a second time."""
    calls = []
    original = sparse_lu_module.structurally_symmetric

    def counted(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(sparse_lu_module, "structurally_symmetric", counted)
    monkeypatch.setattr(dc_module, "structurally_symmetric", counted)
    sim = TransientSimulator(build(), method="er-c")
    sim.run_dc()
    assert len(calls) == sim.dc_lu_stats.num_factorizations > 0
