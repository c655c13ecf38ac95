"""The per-element linear MNA assembly that batched stamping replaced.

Test reference only: it walks the circuit in order, resolves every
terminal through ``Circuit.is_ground`` and a node dict, drops ground and
zero-valued entries one call at a time, and converts its COO lists with
``coo_matrix(...).tocsc()``.  ``MNASystem`` must match it bit for bit --
``indptr``, ``indices``, ``data`` and their dtypes -- with the ``B``
columns following the same waveform objects in the same order.
"""

import scipy.sparse as sp

from repro.circuit.elements import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit


class _ReferenceStamper:
    """Per-element COO accumulation with the ground/zero rules of the original assembler."""

    def __init__(self, circuit):
        self.index = {name: i for i, name in enumerate(circuit.node_names)}
        branch_elements = [el for el in circuit.elements if el.needs_branch_current]
        self.branches = {id(el): circuit.num_nodes + k for k, el in enumerate(branch_elements)}
        self.n = circuit.num_nodes + len(branch_elements)
        self.title = circuit.title
        self.G, self.C, self.inputs = ([], [], []), ([], [], []), []

    def node(self, name):
        if Circuit.is_ground(name):
            return -1
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r} in circuit {self.title!r}") from None

    def branch(self, element):
        return self.branches[id(element)]

    @staticmethod
    def _add(triplets, i, j, value):
        if i < 0 or j < 0 or value == 0.0:
            return
        for store, item in zip(triplets, (i, j, value)):
            store.append(item)

    def add_G(self, i, j, value):
        self._add(self.G, i, j, value)

    def add_C(self, i, j, value):
        self._add(self.C, i, j, value)

    def add_input(self, i, waveform, scale):
        if i < 0 or scale == 0.0:
            return
        self.inputs.append((i, waveform, scale))


def _stamp_pair(add, a, b, value):
    add(a, a, value)
    add(b, b, value)
    add(a, b, -value)
    add(b, a, -value)


def _stamp_incidence(st, a, b, k):
    st.add_G(a, k, 1.0)
    st.add_G(b, k, -1.0)
    st.add_G(k, a, 1.0)
    st.add_G(k, b, -1.0)


def _reference_stamp(el, st):
    nodes = [st.node(name) for name in el.nodes]
    if isinstance(el, Resistor):
        _stamp_pair(st.add_G, *nodes, el.conductance)
    elif isinstance(el, Capacitor):
        _stamp_pair(st.add_C, *nodes, el.capacitance)
    elif isinstance(el, Inductor):
        k = st.branch(el)
        _stamp_incidence(st, *nodes, k)
        st.add_C(k, k, -el.inductance)
    elif isinstance(el, VoltageSource):
        k = st.branch(el)
        _stamp_incidence(st, *nodes, k)
        st.add_input(k, el.waveform, 1.0)
    elif isinstance(el, CurrentSource):
        st.add_input(nodes[0], el.waveform, -1.0)
        st.add_input(nodes[1], el.waveform, 1.0)
    elif isinstance(el, VCCS):
        op, on, cp, cn = nodes
        st.add_G(op, cp, el.gm)
        st.add_G(op, cn, -el.gm)
        st.add_G(on, cp, -el.gm)
        st.add_G(on, cn, el.gm)
    elif isinstance(el, VCVS):
        op, on, cp, cn = nodes
        k = st.branch(el)
        _stamp_incidence(st, op, on, k)
        st.add_G(k, cp, -el.gain)
        st.add_G(k, cn, el.gain)
    else:
        raise TypeError(type(el).__name__)


def reference_assembly(circuit):
    """``(G_lin, C_lin, B, waveforms)`` assembled one element at a time."""
    st = _ReferenceStamper(circuit)
    for el in circuit.elements:
        _reference_stamp(el, st)
    n = st.n
    G = sp.coo_matrix((st.G[2], (st.G[0], st.G[1])), shape=(n, n)).tocsc()
    C = sp.coo_matrix((st.C[2], (st.C[0], st.C[1])), shape=(n, n)).tocsc()
    G.sum_duplicates()
    C.sum_duplicates()
    columns, waveforms, b = {}, [], ([], [], [])
    for row, waveform, scale in st.inputs:
        if id(waveform) not in columns:
            columns[id(waveform)] = len(waveforms)
            waveforms.append(waveform)
        for store, item in zip(b, (row, columns[id(waveform)], scale)):
            store.append(item)
    B = sp.coo_matrix((b[2], (b[0], b[1])), shape=(n, max(len(waveforms), 1))).tocsc()
    return G, C, B, waveforms


def assert_bitwise_equal(actual, expected, label):
    for field in ("indptr", "indices", "data"):
        a, e = getattr(actual, field), getattr(expected, field)
        assert a.dtype == e.dtype, (label, field, a.dtype, e.dtype)
        assert a.tobytes() == e.tobytes(), (label, field)
    assert actual.shape == expected.shape, label


def assert_matches_reference(circuit):
    mna = circuit.build()
    G, C, B, waveforms = reference_assembly(circuit)
    assert_bitwise_equal(mna.G_lin, G, "G_lin")
    assert_bitwise_equal(mna.C_lin, C, "C_lin")
    assert_bitwise_equal(mna.B, B, "B")
    assert mna.num_inputs == len(waveforms)
    assert all(a is b for a, b in zip(mna.waveforms, waveforms))
