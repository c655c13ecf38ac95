"""The large-scale generators and the bounded-memory streaming path.

Tier 1 pins down the *structure* the generators promise (dimension
formulas, sparsity budgets, determinism, registry wiring) on small
instances, plus symbolic-reuse accounting on a real transient.  Tier 2
runs the sizes the generators exist for: a 10k-node mesh where the
streaming result container must beat state storage on measured memory,
and the 100k-node acceptance transient.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.benchcircuits import (
    build_circuit,
    factory_accepts_seed,
    large_rc_mesh,
    large_rlc_mesh,
    pdn_multilayer,
)
from repro.core.options import SimOptions
from repro.core.results import ObservableSummary
from repro.core.simulator import simulate
from repro.verify.reference import reference_simulator


class TestLargeRcMesh:
    def test_dimension_formula(self):
        # rows*cols grid nodes + the 'in' node + the Vin branch unknown
        mna = large_rc_mesh(6, 8).build()
        assert mna.n == 6 * 8 + 2

    def test_sparsity_budget(self):
        rows, cols = 12, 11
        N = rows * cols
        mna = large_rc_mesh(rows, cols).build()
        G = mna.G_lin.tocsc()
        # 4-neighbour stencil: ~5 entries per node (diagonal + 4 couplings),
        # minus the boundary, plus the driver/source rows
        assert 4 * N < G.nnz <= 5 * N + 10

    def test_coupling_adds_exactly_two_offdiagonals_per_cap(self):
        rows, cols, fraction = 10, 10, 0.1
        N = rows * cols
        base = large_rc_mesh(rows, cols).build().C_lin.tocsc()
        coupled = large_rc_mesh(rows, cols,
                                coupling_fraction=fraction).build().C_lin.tocsc()
        num_caps = int(round(fraction * N))
        assert base.nnz == N  # grounded caps only: diagonal C
        assert coupled.nnz == N + 2 * num_caps

    def test_deterministic_in_seed(self):
        a = large_rc_mesh(8, 8, coupling_fraction=0.2, seed=5).build()
        b = large_rc_mesh(8, 8, coupling_fraction=0.2, seed=5).build()
        c = large_rc_mesh(8, 8, coupling_fraction=0.2, seed=6).build()
        assert (a.C_lin != b.C_lin).nnz == 0
        assert (a.G_lin != b.G_lin).nnz == 0
        assert (a.C_lin != c.C_lin).nnz > 0

    def test_registered_with_seed(self):
        assert factory_accepts_seed("large_rc_mesh")
        mna = build_circuit("large_rc_mesh", rows=4, cols=4).build()
        assert mna.n == 18


class TestPdnMultilayer:
    def test_dimension_formula(self):
        rows, cols, layers = 8, 8, 2
        mna = pdn_multilayer(rows, cols, layers=layers, pad_pitch=8).build()
        boundary = 2 * cols + 2 * (rows - 2)
        num_pads = len(range(0, boundary, 8))
        # layers*N mesh nodes + vdd_ideal + one mid node per pad,
        # + one branch per pad inductor + the Vdd source branch
        assert mna.n == layers * rows * cols + 1 + num_pads + num_pads + 1

    def test_per_layer_coupling_validation(self):
        with pytest.raises(ValueError, match="one entry per layer"):
            pdn_multilayer(4, 4, layers=2, coupling_fraction=[0.1])
        ckt = pdn_multilayer(6, 6, layers=2, coupling_fraction=[0.0, 0.2])
        assert ckt is not None

    def test_supply_transient_stays_physical(self):
        result = simulate(
            pdn_multilayer(8, 8, layers=2, coupling_fraction=0.05),
            "benr", t_stop=0.3e-9, h_init=1e-12,
            store_states=False, observe_nodes=["m1_4_4"])
        assert result.stats.completed
        summary = result.summaries["m1_4_4"]
        # the grid hangs off a 1.0 V supply: it droops under the switching
        # loads and may ring slightly above VDD through the package L,
        # but stays within a few percent of the rail
        assert 0.9 <= summary.minimum <= summary.maximum <= 1.05


class TestLargeRlcMesh:
    def test_trunk_rows_add_unknowns(self):
        rows, cols = 9, 8
        plain = large_rc_mesh(rows, cols).build()
        rlc = large_rlc_mesh(rows, cols, inductive_pitch=4).build()
        # every trunk-row horizontal edge adds one mid node + one branch
        trunk_edges = len(range(0, rows, 4)) * (cols - 1)
        assert rlc.n == plain.n + 2 * trunk_edges

    def test_transient_smoke(self):
        result = simulate(large_rlc_mesh(6, 6, inductive_pitch=3),
                          "trap", t_stop=0.2e-9, h_init=1e-12,
                          store_states=False, observe_nodes=["n5_5"])
        assert result.stats.completed
        assert np.isfinite(result.summaries["n5_5"].l2_norm)


class TestSymbolicReuseOnTransient:
    def test_accounting_and_reuse_engage(self):
        # the adaptive step keeps changing C/h + G, so the default run
        # factorizes repeatedly; the Jacobian pattern never changes, so
        # all but the first factorization must ride the symbolic cache
        result = simulate(large_rc_mesh(8, 8, coupling_fraction=0.1),
                          "benr", t_stop=0.2e-9, h_init=1e-12)
        lu = result.stats.lu
        assert lu.num_factorizations > 1
        assert lu.num_symbolic_reuses > 0
        assert lu.num_factorizations == \
            lu.num_orderings + lu.num_symbolic_reuses

    def test_reuse_is_bit_identical_on_trajectories(self):
        """Default run vs the uncached reference (fresh ordering for every
        LU): identical trajectories, and the only factorizations the
        default run skips are its counted cache hits."""
        mesh = large_rc_mesh(rows=8, cols=8, coupling_fraction=0.1)
        options = SimOptions(t_stop=0.2e-9, h_init=1e-12)
        on = simulate(mesh, "benr", options=options)
        off = reference_simulator(mesh, "benr", options).run()
        assert on.stats.lu.num_symbolic_reuses > 0
        assert off.stats.lu.num_symbolic_reuses == 0
        assert on.stats.lu.num_factorizations + on.stats.lu.num_reused == \
            off.stats.lu.num_factorizations
        np.testing.assert_array_equal(on.state_array, off.state_array)
        np.testing.assert_array_equal(on.time_array, off.time_array)


def _traced_simulate(circuit, **kwargs):
    """Run one transient under tracemalloc; return (result, peak_bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = simulate(circuit, "benr", **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.tier2
class TestLargeMeshStreaming:
    """The nightly large-mesh smokes: memory is the acceptance criterion."""

    def test_10k_streaming_beats_state_storage_on_memory(self):
        # h_max pinned small so the run takes a few hundred steps: state
        # storage then holds steps * n * 8 bytes (tens of MB) that the
        # streaming container must not allocate
        run_opts = dict(t_stop=0.5e-9, h_init=1e-12, h_max=2e-12,
                        observe_nodes=["n50_50"])
        mesh_args = dict(rows=100, cols=100)

        stored, stored_peak = _traced_simulate(
            large_rc_mesh(**mesh_args), **run_opts)
        streamed, streamed_peak = _traced_simulate(
            large_rc_mesh(**mesh_args), store_states=False, **run_opts)

        assert stored.stats.completed and streamed.stats.completed
        n = 100 * 100 + 2
        state_bytes = len(stored.times) * n * 8
        assert state_bytes > 10 * 1024 * 1024  # the comparison is real
        assert streamed_peak < stored_peak - state_bytes // 2

        # and the summaries lose nothing against the stored trajectory
        replayed = ObservableSummary.from_series(stored.times,
                                                 stored.voltage("n50_50"))
        assert streamed.summaries["n50_50"].as_dict() == replayed.as_dict()
        np.testing.assert_array_equal(streamed.final_state,
                                      stored.final_state)

    def test_100k_streaming_transient_bounded_memory(self):
        circuit = large_rc_mesh(320, 313)  # 100,160 grid nodes
        result, peak = _traced_simulate(
            circuit, t_stop=0.5e-9, h_init=1e-12, store_states=False,
            observe_nodes=["n160_150"])
        n = 320 * 313 + 2
        assert n > 100_000
        assert result.stats.completed
        assert result.stats.lu.num_symbolic_reuses >= 0  # accounting holds
        assert result.stats.lu.num_factorizations == \
            result.stats.lu.num_orderings + result.stats.lu.num_symbolic_reuses
        with pytest.raises(RuntimeError):
            _ = result.state_array
        assert np.all(np.isfinite(result.final_state))
        summary = result.summaries["n160_150"]
        assert summary.num_points == len(result.times)
        # streaming holds O(nnz) transients (the bounded per-h jacobian/LU
        # cache), never steps * n: storing this trajectory would add
        # ~250 MB of states on top of the ~100 MB measured peak
        bound = 160 * 1024 * 1024
        assert peak < bound, f"streaming peak {peak / 1e6:.0f} MB over bound"
