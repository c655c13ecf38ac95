"""Unit tests for MNA assembly (repro.circuit.mna)."""

import numpy as np
import pytest

from repro.circuit.devices.diode import DiodeModel
from repro.circuit.netlist import Circuit
from repro.circuit.sources import DC, PWL

# the device kernels evaluate every model branch: discarded ones must stay finite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def voltage_divider():
    ckt = Circuit("divider")
    ckt.add_vsource("V1", "in", "0", 2.0)
    ckt.add_resistor("R1", "in", "out", 1000.0)
    ckt.add_resistor("R2", "out", "0", 1000.0)
    return ckt


class TestIndexing:
    def test_unknown_count(self):
        mna = voltage_divider().build()
        assert mna.num_nodes == 2
        assert mna.num_branches == 1
        assert mna.n == 3

    def test_node_index_and_ground(self):
        mna = voltage_divider().build()
        assert mna.node_index("in") == 0
        assert mna.node_index("out") == 1
        assert mna.node_index("0") == -1
        with pytest.raises(KeyError):
            mna.node_index("missing")

    def test_branch_index_by_name(self):
        mna = voltage_divider().build()
        assert mna.branch_index_by_name("V1") == 2
        with pytest.raises(KeyError):
            mna.branch_index_by_name("R1")


class TestLinearStamps:
    def test_conductance_matrix_values(self):
        mna = voltage_divider().build()
        G = mna.G_lin.toarray()
        g = 1e-3
        expected = np.array([
            [g, -g, 1.0],
            [-g, 2 * g, 0.0],
            [1.0, 0.0, 0.0],
        ])
        np.testing.assert_allclose(G, expected)

    def test_capacitance_matrix(self):
        ckt = Circuit()
        ckt.add_capacitor("C1", "a", "b", 2e-12)
        ckt.add_capacitor("C2", "b", "0", 3e-12)
        mna = ckt.build()
        C = mna.C_lin.toarray()
        expected = np.array([
            [2e-12, -2e-12],
            [-2e-12, 5e-12],
        ])
        np.testing.assert_allclose(C, expected)

    def test_inductor_branch_rows(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_inductor("L1", "a", "b", 1e-9)
        ckt.add_resistor("R1", "b", "0", 10.0)
        mna = ckt.build()
        il = mna.branch_index_by_name("L1")
        a, b = mna.node_index("a"), mna.node_index("b")
        G = mna.G_lin.toarray()
        C = mna.C_lin.toarray()
        assert G[a, il] == 1.0 and G[b, il] == -1.0
        assert G[il, a] == 1.0 and G[il, b] == -1.0
        assert C[il, il] == pytest.approx(-1e-9)


class TestSources:
    def test_source_vector_voltage_source(self):
        mna = voltage_divider().build()
        bu = mna.source_vector(0.0)
        assert bu[mna.branch_index_by_name("V1")] == pytest.approx(2.0)
        assert bu[mna.node_index("in")] == 0.0

    def test_source_vector_current_source_signs(self):
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 1.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        ckt.add_isource("I1", "a", "b", DC(1e-3))
        mna = ckt.build()
        bu = mna.source_vector(0.0)
        assert bu[mna.node_index("a")] == pytest.approx(-1e-3)
        assert bu[mna.node_index("b")] == pytest.approx(1e-3)

    def test_time_varying_source(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", PWL([(0.0, 0.0), (1e-9, 1.0)]))
        ckt.add_resistor("R1", "a", "0", 1.0)
        mna = ckt.build()
        idx = mna.branch_index_by_name("V1")
        assert mna.source_vector(0.5e-9)[idx] == pytest.approx(0.5)
        diff = mna.source_difference(0.0, 1e-9)
        assert diff[idx] == pytest.approx(1.0)

    def test_breakpoints_collected_from_all_sources(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", PWL([(0.0, 0.0), (1e-9, 1.0), (3e-9, 1.0)]))
        ckt.add_vsource("V2", "b", "0", PWL([(0.0, 0.0), (2e-9, 1.0)]))
        ckt.add_resistor("R1", "a", "b", 1.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        mna = ckt.build()
        assert mna.breakpoints(2.5e-9) == [1e-9, 2e-9]

    def test_input_vector_and_slope(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", PWL([(0.0, 0.0), (1e-9, 2.0)]))
        ckt.add_resistor("R1", "a", "0", 1.0)
        mna = ckt.build()
        assert mna.input_vector(0.5e-9) == pytest.approx([1.0])
        assert mna.input_slopes(0.25e-9, 0.75e-9) == pytest.approx([2e9])


class TestEvaluate:
    def test_linear_circuit_evaluation(self):
        mna = voltage_divider().build()
        x = np.array([2.0, 1.0, -1e-3])
        ev = mna.evaluate(x)
        np.testing.assert_allclose(ev.f, mna.G_lin @ x)
        np.testing.assert_allclose(ev.q, mna.C_lin @ x)
        assert ev.G is mna.G_lin  # linear circuits reuse the cached matrices

    def test_wrong_state_shape_rejected(self):
        mna = voltage_divider().build()
        with pytest.raises(ValueError):
            mna.evaluate(np.zeros(5))

    def test_nonlinear_jacobian_matches_finite_difference(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "a", 100.0)
        ckt.add_diode("D1", "a", "0", DiodeModel(name="D", isat=1e-14, cj0=1e-15))
        mna = ckt.build()
        x = np.array([1.0, 0.55, -1e-3])
        ev = mna.evaluate(x)
        G_dense = ev.G.toarray()
        C_dense = ev.C.toarray()
        h = 1e-7
        for j in range(mna.n):
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            df = (mna.evaluate(xp).f - mna.evaluate(xm).f) / (2 * h)
            dq = (mna.evaluate(xp).q - mna.evaluate(xm).q) / (2 * h)
            np.testing.assert_allclose(G_dense[:, j], df, rtol=1e-4, atol=1e-9)
            np.testing.assert_allclose(C_dense[:, j], dq, rtol=1e-4, atol=1e-18)

    def test_singular_capacitance_matrix_allowed(self):
        """MNA capacitance matrices are typically singular -- must not raise."""
        mna = voltage_divider().build()
        ev = mna.evaluate(np.zeros(mna.n))
        assert ev.C.nnz == 0  # no capacitors at all: completely singular


class TestSolutionAccess:
    def test_voltage_and_branch_current(self):
        mna = voltage_divider().build()
        x = np.array([2.0, 1.0, -1e-3])
        assert mna.voltage(x, "in") == 2.0
        assert mna.voltage(x, "out") == 1.0
        assert mna.voltage(x, "0") == 0.0
        assert mna.branch_current(x, "V1") == -1e-3

    def test_initial_state_uses_ic(self):
        ckt = voltage_divider()
        ckt.set_initial_condition("out", 0.7)
        mna = ckt.build()
        x0 = mna.initial_state()
        assert x0[mna.node_index("out")] == 0.7
        assert x0[mna.node_index("in")] == 0.0


class TestStructureStats:
    def test_linear_stats(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "a", 1.0)
        ckt.add_capacitor("C1", "a", "0", 1e-12)
        ckt.add_coupling_capacitor("Cc", "a", "b", 1e-15)
        ckt.add_resistor("R2", "b", "0", 1.0)
        stats = ckt.build().structure_stats()
        assert stats.n == 4
        assert stats.num_devices == 0
        assert stats.num_coupling_caps == 1
        # grounded cap (a,a) merges with the coupling cap's (a,a) entry, so the
        # unique positions are (a,a), (a,b), (b,a), (b,b)
        assert stats.nnz_C == 4
        assert stats.nnz_G > 0

    def test_stats_at_operating_point_include_device_fill(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "a", 100.0)
        ckt.add_diode("D1", "a", "0", DiodeModel(name="D", cj0=1e-15))
        mna = ckt.build()
        lin = mna.structure_stats()
        at_x = mna.structure_stats(np.array([1.0, 0.5, 0.0]))
        assert at_x.nnz_C > lin.nnz_C
        assert at_x.nnz_G >= lin.nnz_G
        assert at_x.as_dict()["#Dev"] == 1
