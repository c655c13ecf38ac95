"""Tests for the Newton solver and the DC operating-point analysis."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.dc import dc_operating_point
from repro.circuit.devices.diode import DiodeModel
from repro.circuit.devices.mosfet import MOSFETModel
from repro.circuit.netlist import Circuit
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.integrators.newton import NewtonSolver
from repro.linalg.sparse_lu import LUStats


def divider():
    ckt = Circuit()
    ckt.add_vsource("V1", "in", "0", 2.0)
    ckt.add_resistor("R1", "in", "out", 1000.0)
    ckt.add_resistor("R2", "out", "0", 3000.0)
    return ckt.build()


class TestNewtonSolver:
    def test_linear_system_converges_in_one_iteration(self):
        mna = divider()
        bu = mna.source_vector(0.0)

        def residual_jacobian(x):
            ev = mna.evaluate(x)
            return ev.f - bu, ev.G

        solver = NewtonSolver(mna)
        result = solver.solve(np.zeros(mna.n), residual_jacobian)
        assert result.converged
        assert result.iterations <= 2
        assert mna.voltage(result.x, "out") == pytest.approx(1.5)

    def test_nonlinear_scalar_equation(self, monkeypatch):
        """Solve x^2 = 4 dressed up as a one-unknown circuit-style residual."""
        ckt = Circuit()
        ckt.add_resistor("R1", "a", "0", 1.0)
        mna = ckt.build()

        def residual_jacobian(x):
            residual = np.array([x[0] ** 2 - 4.0])
            jacobian = sp.csc_matrix(np.array([[2.0 * x[0]]]))
            return residual, jacobian

        monkeypatch.setattr(NewtonSolver, "RESIDUAL_TOL", 1e-12)
        solver = NewtonSolver(mna)
        result = solver.solve(np.array([1.0]), residual_jacobian)
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, rel=1e-6)

    def test_lu_stats_counted(self):
        mna = divider()
        bu = mna.source_vector(0.0)
        stats = LUStats()

        def residual_jacobian(x):
            ev = mna.evaluate(x)
            return ev.f - bu, ev.G

        solver = NewtonSolver(mna, lu_stats=stats)
        solver.solve(np.zeros(mna.n), residual_jacobian)
        assert stats.num_factorizations >= 1
        assert stats.num_solves >= 1

    def test_nonconvergence_reported(self, monkeypatch):
        mna = divider()

        def residual_jacobian(x):
            # gradient points the wrong way: Newton diverges
            return np.array([1.0, 1.0, 1.0]), sp.identity(3, format="csc") * 1e-12

        monkeypatch.setattr(NewtonSolver, "MAX_ITERATIONS", 5)
        solver = NewtonSolver(mna)
        result = solver.solve(np.zeros(3), residual_jacobian)
        assert not result.converged
        assert result.iterations == 5


class TestDeviceLimiting:
    def test_limited_vectors_match_per_terminal_name_lookup(self):
        """Limiting over precomputed terminal indices keeps the sequential
        per-device semantics of looking every terminal up by node name."""
        ckt = Circuit()
        ckt.add_vsource("V1", "vdd", "0", 1.2)
        ckt.add_resistor("R1", "vdd", "a", 1e3)
        ckt.add_diode("D1", "a", "b", DiodeModel(name="D"))
        ckt.add_diode("D2", "b", "0", DiodeModel(name="D2", isat=1e-12))
        nmos = MOSFETModel(name="N", level=1)
        ckt.add_mosfet("M1", "b", "a", "0", "0", nmos)
        ckt.add_mosfet("M2", "a", "a", "b", "0", nmos)  # gate tied to drain
        mna = ckt.build()
        solver = NewtonSolver(mna)

        def by_name(x_new, x_old):
            limited = np.array(x_new, copy=True)
            for device in mna.circuit.devices:
                for node in device.nodes:
                    idx = mna.node_index(node)
                    if idx >= 0:
                        limited[idx] = device.limit_voltage(node, limited[idx], float(x_old[idx]))
            return limited

        rng = np.random.default_rng(4)
        changed = 0
        for _ in range(50):
            x_old = rng.uniform(-0.5, 1.0, mna.n)
            x_new = x_old + rng.uniform(-6.0, 6.0, mna.n)
            limited = solver._apply_limiting(x_new, x_old)
            np.testing.assert_array_equal(limited, by_name(x_new, x_old))
            changed += int(np.any(limited != x_new))
        assert changed > 0


class TestDCOperatingPoint:
    def test_voltage_divider(self):
        mna = divider()
        dc = dc_operating_point(mna)
        assert dc.converged
        assert dc.strategy == "newton"
        assert mna.voltage(dc.x, "out") == pytest.approx(1.5)
        # branch current of V1: 2V over 4k total
        assert mna.branch_current(dc.x, "V1") == pytest.approx(-0.5e-3)

    def test_diode_forward_drop(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 5.0)
        ckt.add_resistor("R1", "in", "a", 1000.0)
        ckt.add_diode("D1", "a", "0", DiodeModel(name="D", isat=1e-14))
        mna = ckt.build()
        dc = dc_operating_point(mna)
        assert dc.converged
        v_diode = mna.voltage(dc.x, "a")
        assert 0.5 < v_diode < 0.8
        # KCL: current through R equals diode current
        i_r = (5.0 - v_diode) / 1000.0
        from repro.circuit.devices.diode import Diode

        diode = ckt.devices[0]
        i_d, _ = diode.current_and_conductance(v_diode)
        assert i_r == pytest.approx(i_d, rel=1e-4)

    def test_cmos_inverter_logic_levels(self):
        from repro.benchcircuits.inverter_chain import inverter_chain

        ckt = inverter_chain(3, vdd=1.0)
        mna = ckt.build()
        dc = dc_operating_point(mna)
        assert dc.converged
        assert mna.voltage(dc.x, "out1") == pytest.approx(1.0, abs=0.05)
        assert mna.voltage(dc.x, "out2") == pytest.approx(0.0, abs=0.05)
        assert mna.voltage(dc.x, "out3") == pytest.approx(1.0, abs=0.05)

    def test_use_initial_conditions_skips_solve(self):
        """UIC: ``run(x0=mna.initial_state())`` starts the transient from
        the ``.ic`` vector and never solves DC."""
        mna = divider()
        mna.circuit.set_initial_condition("out", 0.123)
        simulator = TransientSimulator(mna, "benr",
                                       SimOptions(t_stop=1e-11, h_init=1e-12))
        result = simulator.run(x0=mna.initial_state())
        assert simulator.dc_result is None
        assert result.voltage("out")[0] == pytest.approx(0.123)

    def test_mosfet_diode_connected(self):
        """Diode-connected NMOS pulled up through a resistor settles above vt."""
        ckt = Circuit()
        ckt.add_vsource("V1", "vdd", "0", 1.2)
        ckt.add_resistor("R1", "vdd", "d", 10_000.0)
        ckt.add_mosfet("M1", "d", "d", "0", "0",
                       MOSFETModel(name="N", level=1, vt0=0.4, kp=2e-4, gamma=0.0))
        mna = ckt.build()
        dc = dc_operating_point(mna)
        assert dc.converged
        v_d = mna.voltage(dc.x, "d")
        assert 0.4 < v_d < 1.2

    def test_lu_stats_forwarded(self):
        mna = divider()
        stats = LUStats()
        dc_operating_point(mna, lu_stats=stats)
        assert stats.num_factorizations >= 1
