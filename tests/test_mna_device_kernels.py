"""MNA-level checks of the batched device kernels and the fixed G/C patterns.

``MNASystem.evaluate`` runs one NumPy kernel per device class and scatters
the result into CSC patterns fixed at construction.  These tests check the
assembled system as a whole: Jacobians against central differences of
``f``/``q``, agreement with the per-device scalar adapter, and a pattern
that is identical at every state and holds exactly the linear entries plus
the declared device stamp sets.
"""

import numpy as np
import pytest

from repro.circuit.devices.base import gather_params
from repro.circuit.devices.diode import Diode, DiodeModel
from repro.circuit.devices.mosfet import MOSFET, MOSFETModel
from repro.circuit.netlist import Circuit

# np.where evaluates every model branch: discarded ones must stay finite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def mixed_circuit():
    """NMOS/PMOS at levels 1 and 2, two diodes, grounded and shared terminals."""
    n1 = MOSFETModel(name="N1", level=1, vt0=0.4)
    n2 = MOSFETModel(name="N2", level=2, vt0=0.35)
    p1 = MOSFETModel(name="P1", mos_type="pmos", level=1, vt0=0.4, kp=1e-4)
    p2 = MOSFETModel(name="P2", mos_type="pmos", level=2, vt0=0.35, kp=1e-4, gamma=0.0)
    ckt = Circuit("mixed devices")
    ckt.add_vsource("Vdd", "vdd", "0", 1.0)
    ckt.add_resistor("Rin", "vdd", "in", 1e3)
    # level-2 inverter: gate and drain nodes shared, bulks tied to the rails
    ckt.add_mosfet("MP2", "out", "in", "vdd", "vdd", model=p2)
    ckt.add_mosfet("MN2", "out", "in", "0", "0", model=n2)
    # level-1 pair: a diode-connected NMOS and a PMOS with its own bulk node
    ckt.add_mosfet("MN1", "mid", "mid", "0", "0", model=n1)
    ckt.add_mosfet("MP1", "mid", "out", "vdd", "well", model=p1)
    ckt.add_resistor("Rwell", "well", "vdd", 1e4)
    # pass transistor: conducts drain->source or source->drain with the state
    ckt.add_mosfet("MX", "a", "in", "b", "0", model=n1)
    ckt.add_diode("D1", "a", "out", DiodeModel(name="DQ", cj0=1e-15, tt=1e-12))
    ckt.add_diode("D2", "b", "0", DiodeModel(name="DS", cj0=0.0))
    ckt.add_capacitor("Ca", "a", "0", 1e-15)
    ckt.add_resistor("Rb", "b", "mid", 5e3)
    return ckt


@pytest.fixture(scope="module")
def mna():
    return mixed_circuit().build()


def states(mna, count=6, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.2, 1.2, mna.n) for _ in range(count)]


class TestJacobians:
    def test_states_cover_both_conduction_directions(self, mna):
        signs = {np.sign(mna.voltage(x, "a") - mna.voltage(x, "b")) for x in states(mna)}
        assert signs == {-1.0, 1.0}

    def test_jacobians_match_central_differences(self, mna):
        h = 1e-6
        for x in states(mna):
            ev = mna.evaluate(x)
            G, C = ev.G.toarray(), ev.C.toarray()
            for j in range(mna.n):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                plus, minus = mna.evaluate(xp), mna.evaluate(xm)
                df = (plus.f - minus.f) / (2 * h)
                dq = (plus.q - minus.q) / (2 * h)
                np.testing.assert_allclose(G[:, j], df, rtol=1e-5, atol=1e-9 * np.abs(G).max())
                np.testing.assert_allclose(C[:, j], dq, rtol=1e-5, atol=1e-7 * np.abs(C).max())

    def test_kernels_equal_sum_of_per_device_adapter_stamps(self, mna):
        n = mna.n

        class Dense:
            def __init__(self, x):
                self.x = x
                self.f, self.q = mna.G_lin @ x, mna.C_lin @ x
                self.G, self.C = mna.G_lin.toarray(), mna.C_lin.toarray()

            def voltage(self, node):
                return mna.voltage(self.x, node)

            def _add(self, target, *nodes_and_value):
                *nodes, value = nodes_and_value
                idx = tuple(mna.node_index(node) for node in nodes)
                if min(idx) >= 0:
                    target[idx] += value

            def add_current(self, node, value):
                self._add(self.f, node, value)

            def add_charge(self, node, value):
                self._add(self.q, node, value)

            def add_jacobian(self, row, col, value):
                self._add(self.G, row, col, value)

            def add_capacitance(self, row, col, value):
                self._add(self.C, row, col, value)

        for x in states(mna):
            ref = Dense(x)
            for device in mna.devices:
                device.stamp_nonlinear(ref)
            ev = mna.evaluate(x)
            assert ev.f.shape == ev.q.shape == (n,)
            np.testing.assert_allclose(ev.f, ref.f, rtol=1e-12, atol=1e-25)
            np.testing.assert_allclose(ev.q, ref.q, rtol=1e-12, atol=1e-35)
            np.testing.assert_allclose(ev.G.toarray(), ref.G, rtol=1e-12, atol=1e-25)
            np.testing.assert_allclose(ev.C.toarray(), ref.C, rtol=1e-12, atol=1e-35)

    def test_extreme_states_stay_finite(self, mna):
        for scale in (50.0, 1e3):
            for sign in (1.0, -1.0):
                x = sign * scale * np.linspace(-1.0, 1.0, mna.n)
                ev = mna.evaluate(x)
                for values in (ev.f, ev.q, ev.G.data, ev.C.data):
                    assert np.all(np.isfinite(values))


class TestFixedPattern:
    def test_pattern_is_identical_across_states(self, mna):
        cutoff = np.zeros(mna.n)  # every level-1 device off: exact zero stamps
        evs = [mna.evaluate(x) for x in [cutoff] + states(mna)]
        assert np.any(evs[0].G.data == 0.0)
        for ev in evs[1:]:
            for name in ("G", "C"):
                a, b = getattr(evs[0], name), getattr(ev, name)
                assert np.array_equal(a.indptr, b.indptr), name
                assert np.array_equal(a.indices, b.indices), name

    @pytest.mark.parametrize("name", ["G", "C"])
    def test_pattern_is_linear_entries_plus_device_stamp_sets(self, mna, name):
        lin = getattr(mna, f"{name}_lin").tocoo()
        expected = set(zip(lin.row.tolist(), lin.col.tolist()))
        for device, terminals in zip(mna.devices, mna.device_terminals):
            for r, c in getattr(type(device), f"{name}_STAMPS"):
                if terminals[r] >= 0 and terminals[c] >= 0:
                    expected.add((terminals[r], terminals[c]))
        coo = getattr(mna.evaluate(states(mna)[0]), name).tocoo()
        entries = list(zip(coo.row.tolist(), coo.col.tolist()))
        assert len(entries) == len(set(entries))
        assert set(entries) == expected

    def test_returned_matrices_own_their_index_arrays(self, mna):
        x = states(mna)[0]
        expected = mna.evaluate(x)
        scratch = mna.evaluate(x)
        for matrix in (scratch.G, scratch.C):
            matrix.indices[:] = 0
            matrix.indptr[:] = 0
        again = mna.evaluate(x)
        np.testing.assert_array_equal(again.G.toarray(), expected.G.toarray())
        np.testing.assert_array_equal(again.C.toarray(), expected.C.toarray())

    @pytest.mark.parametrize("cls, device", [
        (MOSFET, MOSFET("M", "d", "g", "s", "b", MOSFETModel(level=2))),
        (MOSFET, MOSFET("M", "d", "g", "s", "b", MOSFETModel(mos_type="pmos"))),
        (Diode, Diode("D", "a", "c", DiodeModel(cj0=1e-15, tt=1e-12))),
    ])
    def test_kernel_blocks_vanish_outside_declared_stamps(self, cls, device):
        k = len(device.nodes)
        v = np.random.default_rng(5).uniform(-1.0, 1.5, (32, k))
        out = cls.evaluate_batch(gather_params([device] * len(v)), v)
        for name in ("G", "C"):
            declared = np.zeros((k, k), dtype=bool)
            declared[tuple(zip(*getattr(cls, f"{name}_STAMPS")))] = True
            assert np.all(getattr(out, name)[:, ~declared] == 0.0), name
