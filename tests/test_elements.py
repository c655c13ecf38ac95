"""Unit tests for linear elements and the matrix entries their classes declare."""

import pytest

from repro.circuit.elements import (
    Capacitor,
    CouplingCapacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.circuit.sources import DC, PWL


def assemble(element):
    """Assemble a one-element circuit; return its MNA system and G/C/B entries."""
    ckt = Circuit("one")
    ckt.add(element)
    mna = ckt.build()

    def entries(matrix):
        coo = matrix.tocoo()
        return {(int(i), int(j)): float(v) for i, j, v in zip(coo.row, coo.col, coo.data)}

    return mna, entries(mna.G_lin), entries(mna.C_lin), entries(mna.B)


class TestResistor:
    def test_stamp_pattern(self):
        mna, G, C, _ = assemble(Resistor("R1", "a", "b", 100.0))
        a, b = mna.node_index("a"), mna.node_index("b")
        assert G[(a, a)] == pytest.approx(0.01)
        assert G[(b, b)] == pytest.approx(0.01)
        assert G[(a, b)] == pytest.approx(-0.01)
        assert G[(b, a)] == pytest.approx(-0.01)
        assert not C

    def test_grounded_resistor_stamps_single_entry(self):
        mna, G, _, _ = assemble(Resistor("R1", "a", "0", 50.0))
        a = mna.node_index("a")
        assert G == {(a, a): pytest.approx(0.02)}

    def test_rejects_non_positive_resistance(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", 0.0)
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", -5.0)

    def test_conductance_property(self):
        assert Resistor("R1", "a", "b", 200.0).conductance == pytest.approx(0.005)


class TestCapacitor:
    def test_stamp_pattern(self):
        mna, G, C, _ = assemble(Capacitor("C1", "a", "b", 1e-12))
        a, b = mna.node_index("a"), mna.node_index("b")
        assert C[(a, a)] == pytest.approx(1e-12)
        assert C[(a, b)] == pytest.approx(-1e-12)
        assert not G

    def test_coupling_capacitor_is_a_capacitor(self):
        cap = CouplingCapacitor("Cc", "x", "y", 2e-15)
        assert isinstance(cap, Capacitor)
        assert cap.capacitance == 2e-15

    def test_zero_capacitance_allowed(self):
        _, _, C, _ = assemble(Capacitor("C1", "a", "0", 0.0))
        assert not C  # zero entries are dropped


class TestInductor:
    def test_branch_stamps(self):
        mna, G, C, _ = assemble(Inductor("L1", "a", "b", 1e-9))
        a, b, k = mna.node_index("a"), mna.node_index("b"), mna.branch_index_by_name("L1")
        assert G[(a, k)] == 1.0
        assert G[(b, k)] == -1.0
        assert G[(k, a)] == 1.0
        assert G[(k, b)] == -1.0
        assert C == {(k, k): pytest.approx(-1e-9)}

    def test_needs_branch_current(self):
        assert Inductor("L1", "a", "b", 1e-9).needs_branch_current is True

    def test_rejects_non_positive_inductance(self):
        with pytest.raises(ValueError):
            Inductor("L1", "a", "b", 0.0)


class TestVoltageSource:
    def test_stamps_and_input(self):
        mna, G, _, B = assemble(VoltageSource("V1", "p", "n", DC(5.0)))
        p, n, k = mna.node_index("p"), mna.node_index("n"), mna.branch_index_by_name("V1")
        assert G[(p, k)] == 1.0
        assert G[(n, k)] == -1.0
        assert G[(k, p)] == 1.0
        assert G[(k, n)] == -1.0
        assert B == {(k, 0): 1.0}
        assert mna.waveforms[0].value(0.0) == 5.0

    def test_numeric_value_becomes_dc(self):
        src = VoltageSource("V1", "p", "0", 1.8)
        assert isinstance(src.waveform, DC)
        assert src.waveform.value(0.0) == 1.8

    def test_accepts_pwl(self):
        src = VoltageSource("V1", "p", "0", PWL([(0, 0), (1e-9, 1)]))
        assert src.waveform.value(0.5e-9) == pytest.approx(0.5)


class TestCurrentSource:
    def test_stamps_two_rhs_rows(self):
        mna, G, _, B = assemble(CurrentSource("I1", "p", "n", DC(1e-3)))
        p, n = mna.node_index("p"), mna.node_index("n")
        assert B == {(p, 0): -1.0, (n, 0): 1.0}
        assert not G

    def test_grounded_side_is_dropped(self):
        _, _, _, B = assemble(CurrentSource("I1", "p", "0", DC(1e-3)))
        assert len(B) == 1


class TestControlledSources:
    def test_vccs_stamp(self):
        mna, G, _, _ = assemble(VCCS("G1", "op", "on", "cp", "cn", 1e-3))
        op, on = mna.node_index("op"), mna.node_index("on")
        cp, cn = mna.node_index("cp"), mna.node_index("cn")
        assert G[(op, cp)] == pytest.approx(1e-3)
        assert G[(op, cn)] == pytest.approx(-1e-3)
        assert G[(on, cp)] == pytest.approx(-1e-3)
        assert G[(on, cn)] == pytest.approx(1e-3)

    def test_vcvs_stamp(self):
        mna, G, _, _ = assemble(VCVS("E1", "op", "on", "cp", "cn", 10.0))
        op, cp, cn = mna.node_index("op"), mna.node_index("cp"), mna.node_index("cn")
        k = mna.branch_index_by_name("E1")
        assert G[(op, k)] == 1.0
        assert G[(k, op)] == 1.0
        assert G[(k, cp)] == pytest.approx(-10.0)
        assert G[(k, cn)] == pytest.approx(10.0)
        assert VCVS("E2", "a", "b", "c", "d", 1.0).needs_branch_current
