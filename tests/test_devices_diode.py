"""Unit tests for the diode model (repro.circuit.devices.diode)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.devices.base import fd_check_stamps
from repro.circuit.devices.diode import Diode, DiodeModel, THERMAL_VOLTAGE
from repro.circuit.parser import NetlistSyntaxError, parse_netlist

# np.where evaluates every model branch: discarded ones must stay finite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def make_diode(**model_kwargs):
    defaults = dict(isat=1e-14, n=1.0, cj0=1e-15, vj=0.9, m=0.5, fc=0.5, tt=1e-12)
    defaults.update(model_kwargs)
    return Diode("D1", "a", "c", DiodeModel(name="DTEST", **defaults))


class TestDiodeStatic:
    def test_zero_bias_current_is_zero(self):
        diode = make_diode(gmin=0.0)
        i, g = diode.current_and_conductance(0.0)
        assert i == pytest.approx(0.0)
        assert g == pytest.approx(1e-14 / THERMAL_VOLTAGE)

    def test_forward_current_follows_shockley(self):
        diode = make_diode(gmin=0.0)
        vd = 0.6
        i, _ = diode.current_and_conductance(vd)
        assert i == pytest.approx(1e-14 * (math.exp(vd / THERMAL_VOLTAGE) - 1.0), rel=1e-9)

    def test_reverse_current_saturates(self):
        diode = make_diode(gmin=0.0)
        i, _ = diode.current_and_conductance(-1.0)
        assert i == pytest.approx(-1e-14, rel=1e-3)

    def test_monotonically_increasing(self):
        diode = make_diode()
        currents = [diode.current_and_conductance(v)[0] for v in (-0.5, 0.0, 0.3, 0.6, 0.8)]
        assert currents == sorted(currents)

    def test_large_bias_does_not_overflow(self):
        diode = make_diode()
        i, g = diode.current_and_conductance(5.0)
        assert math.isfinite(i) and math.isfinite(g)
        assert i > 0 and g > 0

    def test_area_scales_current(self):
        d1 = Diode("D1", "a", "c", DiodeModel(), area=1.0)
        d2 = Diode("D2", "a", "c", DiodeModel(), area=2.0)
        i1, _ = d1.current_and_conductance(0.5)
        i2, _ = d2.current_and_conductance(0.5)
        assert i2 == pytest.approx(2 * i1, rel=1e-6)

    @given(st.floats(min_value=-1.0, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_conductance_is_derivative(self, vd):
        diode = make_diode()
        h = 1e-7 * max(1.0, abs(vd))
        ip, _ = diode.current_and_conductance(vd + h)
        im, _ = diode.current_and_conductance(vd - h)
        _, g = diode.current_and_conductance(vd)
        assert g == pytest.approx((ip - im) / (2 * h), rel=1e-3, abs=1e-12)


class TestDiodeCharge:
    def test_zero_bias_charge(self):
        diode = make_diode(tt=0.0)
        q, c = diode.charge_and_capacitance(0.0)
        assert q == pytest.approx(0.0)
        assert c == pytest.approx(1e-15)

    def test_capacitance_increases_toward_vj(self):
        diode = make_diode(tt=0.0)
        _, c_low = diode.charge_and_capacitance(-0.5)
        _, c_high = diode.charge_and_capacitance(0.3)
        assert c_high > c_low

    def test_forward_bias_extension_is_continuous(self):
        diode = make_diode(tt=0.0)
        fcv = 0.5 * 0.9
        q_below, c_below = diode.charge_and_capacitance(fcv - 1e-9)
        q_above, c_above = diode.charge_and_capacitance(fcv + 1e-9)
        assert q_below == pytest.approx(q_above, rel=1e-5)
        assert c_below == pytest.approx(c_above, rel=1e-4)

    @given(st.floats(min_value=-1.0, max_value=0.8))
    @settings(max_examples=60, deadline=None)
    def test_capacitance_is_charge_derivative(self, vd):
        diode = make_diode()
        h = 1e-7
        qp, _ = diode.charge_and_capacitance(vd + h)
        qm, _ = diode.charge_and_capacitance(vd - h)
        _, c = diode.charge_and_capacitance(vd)
        assert c == pytest.approx((qp - qm) / (2 * h), rel=1e-3, abs=1e-20)


class TestDiodeStamps:
    def test_jacobian_matches_finite_difference(self):
        diode = make_diode()
        voltages = {"a": 0.55, "c": 0.0}
        G, G_fd, C, C_fd = fd_check_stamps(diode, voltages)
        for key, value in G.items():
            assert value == pytest.approx(G_fd[key], rel=1e-4, abs=1e-12)
        for key, value in C.items():
            assert value == pytest.approx(C_fd[key], rel=1e-4, abs=1e-20)

    def test_current_conservation(self):
        diode = make_diode()

        class Collector:
            def __init__(self):
                self.f = {}

            def voltage(self, node):
                return {"a": 0.6, "c": 0.1}.get(node, 0.0)

            def add_current(self, node, value):
                self.f[node] = self.f.get(node, 0.0) + value

            def add_jacobian(self, *args):
                pass

            def add_charge(self, *args):
                pass

            def add_capacitance(self, *args):
                pass

        collector = Collector()
        diode.stamp_nonlinear(collector)
        assert collector.f["a"] == pytest.approx(-collector.f["c"])


class TestDiodeLimiting:
    def test_limits_large_forward_jumps(self):
        diode = make_diode()
        limited = diode.limit_voltage("a", 5.0, 0.6)
        assert limited < 5.0
        assert limited > 0.0

    def test_small_updates_pass_through(self):
        diode = make_diode()
        assert diode.limit_voltage("a", 0.62, 0.6) == 0.62

    def test_cathode_not_limited(self):
        diode = make_diode()
        assert diode.limit_voltage("c", 5.0, 0.0) == 5.0


class TestDiodeModelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DiodeModel(isat=0.0)
        with pytest.raises(ValueError):
            DiodeModel(n=-1.0)
        with pytest.raises(ValueError):
            DiodeModel(fc=1.5)

    @pytest.mark.parametrize("param, card, value", [
        ("m", "m", 1.0), ("m", "m", -0.5), ("vj", "vj", 0.0), ("vj", "vj", -1.0),
        ("cj0", "cjo", -1e-15), ("fc", "fc", 1.0), ("fc", "fc", 0.0),
    ])
    def test_rejects_out_of_range_junction_parameters(self, param, card, value):
        with pytest.raises(ValueError, match=param):
            DiodeModel(**{"cj0": 1e-15, param: value})
        params = " ".join(f"{k}={v}" for k, v in {"cjo": 1e-15, card: value}.items())
        text = f".model bad d ({params})\nD1 a 0 bad\nR1 a 0 1k\n"
        with pytest.raises(NetlistSyntaxError, match=param):
            parse_netlist(text)

    def test_extreme_bias_is_finite_without_warnings(self):
        diode = make_diode()
        for vd in (-1e3, -50.0, 5.0, 50.0, 1e3):
            assert all(math.isfinite(v) for v in diode.current_and_conductance(vd))
            assert all(math.isfinite(v) for v in diode.charge_and_capacitance(vd))

    def test_v_crit_positive(self):
        assert DiodeModel().v_crit > 0
