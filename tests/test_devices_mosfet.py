"""Unit tests for the MOSFET models (repro.circuit.devices.mosfet)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.devices.base import fd_check_stamps
from repro.circuit.devices.mosfet import MOSFET, MOSFETModel
from repro.circuit.parser import NetlistSyntaxError, parse_netlist

# np.where evaluates every model branch: discarded ones must stay finite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def nmos(level=1, **kwargs):
    params = dict(name="N", mos_type="nmos", level=level, vt0=0.4, kp=2e-4,
                  lam=0.02, gamma=0.3, phi=0.7)
    params.update(kwargs)
    return MOSFET("M1", "d", "g", "s", "b", MOSFETModel(**params), w=1e-6, l=1e-7)


def pmos(level=1, **kwargs):
    params = dict(name="P", mos_type="pmos", level=level, vt0=0.4, kp=1e-4,
                  lam=0.02, gamma=0.3, phi=0.7)
    params.update(kwargs)
    return MOSFET("M2", "d", "g", "s", "b", MOSFETModel(**params), w=1e-6, l=1e-7)


class TestLevel1Regions:
    def test_cutoff(self):
        ids, gm, gds, gmb = nmos()._ids(0.2, 1.0, 0.0)
        assert ids == pytest.approx(1e-12, rel=1e-3)  # only gmin * vds
        assert gm == 0.0

    def test_saturation_square_law(self):
        dev = nmos(lam=0.0, gamma=0.0, gmin=0.0)
        beta = 2e-4 * (1e-6 / 1e-7)
        ids, gm, gds, _ = dev._ids(1.0, 1.5, 0.0)
        vgst = 1.0 - 0.4
        assert ids == pytest.approx(0.5 * beta * vgst ** 2, rel=1e-9)
        assert gm == pytest.approx(beta * vgst, rel=1e-9)
        assert gds == pytest.approx(0.0, abs=1e-15)

    def test_triode_region(self):
        dev = nmos(lam=0.0, gamma=0.0, gmin=0.0)
        beta = 2e-4 * (1e-6 / 1e-7)
        ids, _, gds, _ = dev._ids(1.0, 0.1, 0.0)
        vgst = 0.6
        assert ids == pytest.approx(beta * (vgst * 0.1 - 0.005), rel=1e-9)
        assert gds == pytest.approx(beta * (vgst - 0.1), rel=1e-9)

    def test_channel_length_modulation_increases_saturation_current(self):
        flat = nmos(lam=0.0)._ids(1.0, 2.0, 0.0)[0]
        sloped = nmos(lam=0.1)._ids(1.0, 2.0, 0.0)[0]
        assert sloped > flat

    def test_body_effect_raises_threshold(self):
        ids_no_body = nmos()._ids(0.8, 1.0, 0.0)[0]
        ids_body = nmos()._ids(0.8, 1.0, -0.5)[0]
        assert ids_body < ids_no_body


class TestLevel2Smooth:
    def test_subthreshold_conduction_is_nonzero(self):
        dev = nmos(level=2, gmin=0.0)
        ids, _, _, _ = dev._ids(0.3, 1.0, 0.0)  # below vt0=0.4
        assert ids > 0.0

    def test_strong_inversion_close_to_square_law_scaling(self):
        dev = nmos(level=2, lam=0.0, gmin=0.0)
        i1 = dev._ids(0.9, 1.5, 0.0)[0]
        i2 = dev._ids(1.4, 1.5, 0.0)[0]
        # doubling the overdrive should roughly quadruple the current
        ratio = i2 / i1
        assert 3.0 < ratio < 5.0

    def test_saturation_in_vds(self):
        dev = nmos(level=2, lam=0.0, gmin=0.0)
        i_sat1 = dev._ids(1.0, 1.0, 0.0)[0]
        i_sat2 = dev._ids(1.0, 2.0, 0.0)[0]
        assert i_sat2 == pytest.approx(i_sat1, rel=0.05)

    def test_continuity_across_vds_zero(self):
        dev = nmos(level=2)
        i_minus = dev._ids(0.8, 1e-6, 0.0)[0]
        i_plus = dev._ids(0.8, 2e-6, 0.0)[0]
        assert i_plus > i_minus > 0

    @given(
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.01, max_value=1.2),
        st.floats(min_value=-0.5, max_value=0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_level2_derivatives_match_finite_difference(self, vgs, vds, vbs):
        dev = nmos(level=2)
        h = 1e-6
        ids, gm, gds, gmb = dev._ids(vgs, vds, vbs)
        gm_fd = (dev._ids(vgs + h, vds, vbs)[0] - dev._ids(vgs - h, vds, vbs)[0]) / (2 * h)
        gds_fd = (dev._ids(vgs, vds + h, vbs)[0] - dev._ids(vgs, vds - h, vbs)[0]) / (2 * h)
        gmb_fd = (dev._ids(vgs, vds, vbs + h)[0] - dev._ids(vgs, vds, vbs - h)[0]) / (2 * h)
        assert gm == pytest.approx(gm_fd, rel=1e-3, abs=1e-10)
        assert gds == pytest.approx(gds_fd, rel=1e-3, abs=1e-10)
        assert gmb == pytest.approx(gmb_fd, rel=1e-3, abs=1e-10)


class TestStampConsistency:
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "voltages",
        [
            {"d": 1.0, "g": 0.9, "s": 0.0, "b": 0.0},
            {"d": 0.05, "g": 1.0, "s": 0.0, "b": 0.0},
            {"d": 0.0, "g": 0.2, "s": 0.0, "b": 0.0},
            {"d": 0.0, "g": 0.9, "s": 1.0, "b": 0.0},  # reversed conduction
        ],
    )
    def test_nmos_jacobian_matches_fd(self, level, voltages):
        dev = nmos(level=level)
        G, G_fd, C, C_fd = fd_check_stamps(dev, voltages, rel_step=1e-6)
        for key, value in G.items():
            assert value == pytest.approx(G_fd[key], rel=2e-3, abs=1e-9), key
        for key, value in C.items():
            assert value == pytest.approx(C_fd[key], rel=2e-3, abs=1e-19), key

    @pytest.mark.parametrize("level", [1, 2])
    def test_pmos_jacobian_matches_fd(self, level):
        dev = pmos(level=level)
        voltages = {"d": 0.2, "g": 0.0, "s": 1.0, "b": 1.0}
        G, G_fd, C, C_fd = fd_check_stamps(dev, voltages, rel_step=1e-6)
        for key, value in G.items():
            assert value == pytest.approx(G_fd[key], rel=2e-3, abs=1e-9), key
        for key, value in C.items():
            assert value == pytest.approx(C_fd[key], rel=2e-3, abs=1e-19), key

    def test_channel_current_conservation(self):
        dev = nmos(level=2)

        class Collector:
            def __init__(self):
                self.f = {}

            def voltage(self, node):
                return {"d": 1.0, "g": 0.8, "s": 0.0, "b": 0.0}.get(node, 0.0)

            def add_current(self, node, value):
                self.f[node] = self.f.get(node, 0.0) + value

            def add_jacobian(self, *args):
                pass

            def add_charge(self, *args):
                pass

            def add_capacitance(self, *args):
                pass

        collector = Collector()
        dev.stamp_nonlinear(collector)
        total = sum(collector.f.values())
        assert total == pytest.approx(0.0, abs=1e-15)

    def test_pmos_source_current_direction(self):
        """A conducting PMOS sources current into its drain node."""
        dev = pmos(level=1)

        class Collector:
            def __init__(self):
                self.f = {}

            def voltage(self, node):
                # vdd=1, gate low, drain at 0.2 -> PMOS on, pulls drain up
                return {"d": 0.2, "g": 0.0, "s": 1.0, "b": 1.0}.get(node, 0.0)

            def add_current(self, node, value):
                self.f[node] = self.f.get(node, 0.0) + value

            def add_jacobian(self, *args):
                pass

            def add_charge(self, *args):
                pass

            def add_capacitance(self, *args):
                pass

        collector = Collector()
        dev.stamp_nonlinear(collector)
        # current *leaving* the drain node should be negative (current flows in)
        assert collector.f["d"] < 0


class TestMOSFETValidation:
    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            MOSFETModel(mos_type="njfet")

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            MOSFETModel(level=3)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            MOSFET("M1", "d", "g", "s", "b", MOSFETModel(), w=0.0)

    @pytest.mark.parametrize("param, value", [
        ("pb", 0.0), ("pb", -0.8), ("mj", 1.0), ("mj", -0.1),
        ("fc", 1.0), ("fc", 0.0), ("cj", -1e-4), ("nfactor", 0.0),
    ])
    def test_rejects_out_of_range_junction_parameters(self, param, value):
        with pytest.raises(ValueError, match=param):
            MOSFETModel(**{param: value})
        card = f".model bad nmos ({param}={value})\nM1 d g 0 0 bad\nR1 d 0 1k\n"
        with pytest.raises(NetlistSyntaxError, match=param):
            parse_netlist(card)

    def test_forward_biased_junctions_stay_finite(self):
        """fc just below 1 keeps the forward junction branch finite."""
        dev = nmos(fc=0.999)
        G, _, C, _ = fd_check_stamps(dev, {"d": -5.0, "g": 0.0, "s": -5.0, "b": 0.0})
        assert all(np.isfinite(list(G.values()))) and all(np.isfinite(list(C.values())))

    def test_limit_voltage_caps_gate_swing(self):
        dev = nmos()
        assert dev.limit_voltage("g", 10.0, 0.0) == pytest.approx(2.0)
        assert dev.limit_voltage("d", 10.0, 0.0) == pytest.approx(4.0)
        assert dev.limit_voltage("s", 10.0, 0.0) == 10.0
