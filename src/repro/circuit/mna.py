"""Modified nodal analysis (MNA) assembly.

:class:`MNASystem` turns a :class:`repro.circuit.netlist.Circuit` into the
sparse dynamical system the integrators operate on:

.. math::

    \\frac{d q(x)}{dt} + f(x) = B u(t)

with

* ``x`` -- node voltages followed by the branch currents of voltage
  sources, inductors and VCVS elements;
* ``q(x) = C_lin x + q_nl(x)`` -- charges/fluxes, ``C(x) = dq/dx``;
* ``f(x) = G_lin x + i_nl(x)`` -- static currents, ``G(x) = df/dx``;
* ``B u(t)`` -- the independent-source excitation, with one input column
  per independent source.

The capacitance matrix ``C`` is allowed to be singular (pure algebraic
rows), which is precisely the regime the paper targets: the invert Krylov
subspace method never needs ``C^{-1}``, whereas the standard Krylov
baseline requires a regularization pass
(:mod:`repro.linalg.regularization`).

The linear elements are stamped in one batch: every element class
declares its ``G``/``C``/``B`` entries as a table
(:class:`repro.circuit.elements.LinearStamps`), and all elements'
triplets are built at once with NumPy, in circuit order, so the matrices
equal those of stamping one element at a time bit for bit.

Nonlinear devices are evaluated by one NumPy kernel per device class
(:mod:`repro.circuit.devices.base`), prepared once at construction.  Their
stamps are scattered into ``C``/``G`` sparsity patterns that are fixed at
construction as well -- the linear entries plus each device's structural
stamp set -- so every evaluation returns matrices with identical
``indptr``/``indices``, zero-valued stamps included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.circuit.devices.base import NonlinearDevice, gather_params
from repro.circuit.netlist import Circuit
from repro.circuit.elements import CircuitElement, CouplingCapacitor
from repro.circuit.sources import Waveform

__all__ = ["MNASystem", "EvalResult", "StructureStats"]

_NODES = attrgetter("nodes")
_STAMP_VALUE = attrgetter("stamp_value")


@dataclass
class EvalResult:
    """Nonlinear evaluation of the circuit at a state ``x``.

    Attributes
    ----------
    C, G:
        Sparse CSC matrices ``dq/dx`` and ``df/dx`` at ``x``.
    f, q:
        Dense vectors ``f(x)`` and ``q(x)``.
    """

    C: sp.csc_matrix
    G: sp.csc_matrix
    f: np.ndarray
    q: np.ndarray


@dataclass
class StructureStats:
    """Structural statistics used in the paper's Table I and Fig. 1."""

    n: int
    num_nodes: int
    num_branches: int
    num_devices: int
    nnz_C: int
    nnz_G: int
    num_coupling_caps: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "#N": self.n,
            "#Dev": self.num_devices,
            "nnzC": self.nnz_C,
            "nnzG": self.nnz_G,
            "nodes": self.num_nodes,
            "branches": self.num_branches,
            "coupling_caps": self.num_coupling_caps,
        }


class _NodeLookup(dict):
    """Node name -> unknown index; each ground spelling resolves to -1 once."""

    def __init__(self, circuit: Circuit):
        super().__init__(zip(circuit.node_names, range(circuit.num_nodes)))
        self._title = circuit.title

    def __missing__(self, name: str) -> int:
        if not Circuit.is_ground(name):
            raise KeyError(f"unknown node {name!r} in circuit {self._title!r}")
        self[name] = -1
        return -1


class _Table(NamedTuple):
    """One matrix's entries of every element class, padded to one width.

    Row ``c`` lists class ``c``'s entries; their row and column terminals
    are columns of the per-element terminal matrix.  Padding entries name
    its ground column, so they are dropped with the ground entries.
    """

    #: whether class ``c`` has any entry
    has_entries: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    #: False for the unit incidence of a branch, which ``stamp_value`` does not scale
    scaled: np.ndarray


class _StampPlan(NamedTuple):
    """The stamp tables of a circuit's element classes.

    The per-element terminal matrix has ``width`` columns: the node
    unknowns, the branch unknown, the element's own position (the column
    of its ``B`` entries, mapped to its waveform later) and a column that
    always reads ground.
    """

    width: int
    has_branch: np.ndarray
    G: _Table
    C: _Table
    B: _Table


def _table(entries: List[List[tuple]], ground: int) -> _Table:
    """Pad the ``(row, col, sign, scaled)`` entries of every class to one width."""
    width = max(map(len, entries), default=0)
    padded = [row + [(ground, ground, 0.0, False)] * (width - len(row)) for row in entries]
    rows, cols, signs, scaled = (
        np.array([[entry[f] for entry in row] for row in padded], dtype=dtype)
        .reshape(len(entries), width)
        for f, dtype in enumerate((np.intp, np.intp, float, bool)))
    table = _Table(np.array([bool(row) for row in entries], dtype=bool),
                   rows, cols, signs, scaled)
    for array in table:  # shared by every build through the plan cache
        array.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _stamp_plan(classes: Tuple[type, ...], arities: Tuple[int, ...]) -> _StampPlan:
    """Stack the :class:`~repro.circuit.elements.LinearStamps` of ``classes``.

    An element with a branch current first stamps the unit incidence of
    its branch between its first two terminals, then its class's ``G``
    entries, which -- like all ``C`` and ``B`` entries -- are scaled by
    ``stamp_value``.
    """
    branch = max(arities, default=0)
    position, ground = branch + 1, branch + 2
    g_entries, c_entries, b_entries = [], [], []
    for cls, arity in zip(classes, arities):
        terminals = arity + cls.needs_branch_current

        def column(terminal: int) -> int:
            if not 0 <= terminal < terminals:
                raise TypeError(f"{cls.__name__} stamps terminal {terminal} of {terminals}")
            return branch if terminal == arity else terminal

        g = [(column(r), column(c), sign, True) for r, c, sign in cls.STAMPS.G]
        if cls.needs_branch_current:
            k = arity
            g = [(column(r), column(c), sign, False)
                 for r, c, sign in ((0, k, 1.0), (1, k, -1.0), (k, 0, 1.0), (k, 1, -1.0))] + g
        g_entries.append(g)
        c_entries.append([(column(r), column(c), sign, True) for r, c, sign in cls.STAMPS.C])
        b_entries.append([(column(r), position, sign, True) for r, sign in cls.STAMPS.B])
    has_branch = np.array([cls.needs_branch_current for cls in classes], dtype=bool)
    has_branch.flags.writeable = False
    return _StampPlan(
        width=branch + 3,
        has_branch=has_branch,
        G=_table(g_entries, ground),
        C=_table(c_entries, ground),
        B=_table(b_entries, ground),
    )


def _stamp_linear(elements: Sequence[CircuitElement], nodes: _NodeLookup, num_nodes: int):
    """COO triplets of ``G_lin``, ``C_lin`` and ``B``, and the waveforms of ``B``'s columns.

    All elements are stamped at once from their classes'
    :class:`~repro.circuit.elements.LinearStamps`, in circuit order and
    each element's entries in table order; ground and zero-valued entries
    are dropped.  That is the COO input of stamping one element at a time,
    so the summed matrices match it bit for bit.  ``B`` has one column per
    distinct waveform object, in order of its first entry.
    """
    m = len(elements)
    types = list(map(type, elements))
    #: one instance of every class, classes in order of first appearance
    instances = dict(zip(types, elements))
    classes = tuple(instances)
    for cls in classes:
        if cls.STAMPS is None:
            raise TypeError(f"{cls.__name__} declares no linear stamp table (STAMPS)")
    kind = np.fromiter(map({cls: c for c, cls in enumerate(classes)}.__getitem__, types),
                       dtype=np.intp, count=m)
    arities = tuple(len(el.nodes) for el in instances.values())
    arity = np.array(arities, dtype=np.intp).take(kind)
    names = list(chain.from_iterable(map(_NODES, elements)))
    if len(names) != arity.sum():
        raise TypeError("instances of one element class differ in their number of nodes")
    plan = _stamp_plan(classes, arities)
    width = plan.width

    # per element: its node unknowns, branch unknown, position, ground;
    # node ``j`` of element ``e`` lands at ``e * width + j``
    terminals = np.full((m, width), -1, dtype=np.intp)
    first = np.cumsum(arity) - arity
    terminals.ravel()[np.repeat(np.arange(m) * width - first, arity)
                      + np.arange(len(names))] = np.fromiter(
        map(nodes.__getitem__, names), dtype=np.intp, count=len(names))
    branches = np.flatnonzero(plan.has_branch.take(kind))
    terminals[branches, width - 3] = num_nodes + np.arange(len(branches))
    terminals[:, width - 2] = np.arange(m)
    flat = terminals.ravel()
    values = np.fromiter(map(_STAMP_VALUE, elements), dtype=float, count=m)

    def stamped(table: _Table):
        # ``take`` gathers whole table rows far faster than fancy indexing
        members = np.flatnonzero(table.has_entries.take(kind))
        own = kind.take(members)
        base = (members * width)[:, None]
        rows = flat.take(base + table.rows.take(own, axis=0))
        cols = flat.take(base + table.cols.take(own, axis=0))
        vals = np.where(table.scaled.take(own, axis=0), values.take(members)[:, None], 1.0) \
            * table.signs.take(own, axis=0)
        keep = (rows >= 0) & (cols >= 0) & (vals != 0.0)
        return rows[keep], cols[keep], vals[keep]

    b_rows, owners, b_vals = stamped(plan.B)
    sources = [elements[k].waveform for k in owners.tolist()]
    columns: Dict[int, int] = {}
    b_cols = np.array([columns.setdefault(id(w), len(columns)) for w in sources], dtype=np.intp)
    waveforms = list({id(w): w for w in sources}.values())
    return stamped(plan.G), stamped(plan.C), (b_rows, b_cols, b_vals), waveforms


def _csc(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: Tuple[int, int]):
    """The CSC matrix of COO triplets, duplicates summed.

    The computation of ``coo_matrix(...).tocsc()`` -- entries bucketed by
    column in input order, then SciPy's own duplicate summation -- without
    the per-call validation of the COO container, which dominates the
    build of a small circuit.
    """
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(shape[1] + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
    matrix = sp.csc_matrix((vals[order], rows[order], indptr), shape=shape)
    matrix.sum_duplicates()
    return matrix


class _FixedPattern:
    """A CSC sparsity pattern fixed at construction.

    The pattern is the union of a linear matrix's entries and a set of
    device stamp positions.  ``base`` holds the linear matrix scattered
    into the pattern; :meth:`positions` maps ``(row, col)`` stamps to
    data slots, with slot ``nnz`` the sink for stamps touching ground.
    """

    def __init__(self, lin: sp.csc_matrix, stamps: Sequence[Tuple[np.ndarray, np.ndarray]]):
        n = lin.shape[0]
        self.shape = lin.shape
        lin = lin.tocoo()
        rows = np.concatenate([r.ravel() for r, _ in stamps])
        cols = np.concatenate([c.ravel() for _, c in stamps])
        live = (rows >= 0) & (cols >= 0)
        # column-major keys sort exactly like CSC storage with sorted indices
        self._keys = np.unique(np.concatenate([lin.col.astype(np.int64) * n + lin.row,
                                               cols[live].astype(np.int64) * n + rows[live]]))
        self.nnz = len(self._keys)
        self.indices = (self._keys % n).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self._keys // n, minlength=n))]).astype(np.int32)
        self.base = np.zeros(self.nnz)
        self.base[self.positions(lin.row, lin.col)] = lin.data

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Data slots of the stamps ``(rows, cols)``; ground stamps map to ``nnz``."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        slots = np.searchsorted(self._keys, cols.astype(np.int64) * self.shape[0] + rows)
        return np.where((rows >= 0) & (cols >= 0), slots, self.nnz)

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


class _DeviceGroup:
    """All instances of one device class, prepared for its batch kernel.

    :meth:`weights` and :meth:`destinations` list the kernel's outputs in
    one order -- per-terminal currents, per-terminal charges, ``G`` stamps,
    ``C`` stamps, each device-major -- so that ``MNASystem.evaluate``
    scatters them all with a single ``np.bincount``.
    """

    def __init__(self, cls: type, devices: Sequence[NonlinearDevice],
                 terminals: np.ndarray, n: int):
        self.kernel = cls.evaluate_batch
        self.params = gather_params(devices)
        #: ``(m, k)`` terminal unknowns, -1 for ground
        self.terminals = terminals
        #: the same with ground mapped to the sentinel slot ``n`` (reads 0 V)
        self.slots = np.where(terminals < 0, n, terminals)
        k = terminals.shape[1]
        #: ``(rows, cols)`` unknowns of every ``G`` / ``C`` stamp, ``(m, #stamps)`` each
        self.g_stamps = tuple(terminals[:, list(ends)] for ends in zip(*cls.G_STAMPS))
        self.c_stamps = tuple(terminals[:, list(ends)] for ends in zip(*cls.C_STAMPS))
        self._g_flat = [r * k + c for r, c in cls.G_STAMPS]
        self._c_flat = [r * k + c for r, c in cls.C_STAMPS]

    def weights(self, x_ext: np.ndarray) -> np.ndarray:
        out = self.kernel(self.params, x_ext[self.slots])
        m = len(self.slots)
        return np.concatenate((
            out.f.ravel(), out.q.ravel(),
            out.G.reshape(m, -1)[:, self._g_flat].ravel(),
            out.C.reshape(m, -1)[:, self._c_flat].ravel(),
        ))

    def destinations(self, n: int, G: "_FixedPattern", g_offset: int,
                     C: "_FixedPattern", c_offset: int) -> np.ndarray:
        node = self.slots.ravel()
        return np.concatenate((
            node, node + n + 1,
            g_offset + G.positions(*self.g_stamps).ravel(),
            c_offset + C.positions(*self.c_stamps).ravel(),
        ))


class MNASystem:
    """Sparse modified nodal analysis view of a :class:`Circuit`."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._nodes = _NodeLookup(circuit)
        branch_elements = [el for el in circuit.elements if el.needs_branch_current]
        self._branch_elements = branch_elements
        self._branch_index: Dict[int, int] = {
            id(el): circuit.num_nodes + k for k, el in enumerate(branch_elements)
        }
        self._branch_by_name: Dict[str, int] = {
            el.name: circuit.num_nodes + k for k, el in enumerate(branch_elements)
        }
        self.num_nodes = circuit.num_nodes
        self.num_branches = len(branch_elements)
        self.n = self.num_nodes + self.num_branches
        if self.n == 0:
            raise ValueError(f"circuit {circuit.title!r} has no unknowns")

        self._assemble_linear()
        self._prepare_devices()

    # -- index resolution -----------------------------------------------------------

    def node_index(self, name: str) -> int:
        """Return the unknown index of node ``name``; -1 for ground."""
        return self._nodes[name]

    def branch_index(self, element: CircuitElement) -> int:
        """Return the branch-current unknown index of ``element``."""
        try:
            return self._branch_index[id(element)]
        except KeyError:
            raise KeyError(
                f"element {element.name!r} does not carry a branch current"
            ) from None

    def branch_index_by_name(self, name: str) -> int:
        try:
            return self._branch_by_name[name]
        except KeyError:
            raise KeyError(f"no branch-current unknown for element {name!r}") from None

    # -- linear assembly --------------------------------------------------------------

    def _assemble_linear(self) -> None:
        g, c, b, self._waveforms = _stamp_linear(self.circuit.elements, self._nodes,
                                                 self.num_nodes)
        n = self.n
        self.G_lin = _csc(*g, shape=(n, n))
        self.C_lin = _csc(*c, shape=(n, n))
        self.num_inputs = len(self._waveforms)
        self.B = _csc(*b, shape=(n, max(self.num_inputs, 1)))

        self._has_nonlinear = bool(self.circuit.devices)

    # -- device preparation -----------------------------------------------------------

    def _prepare_devices(self) -> None:
        """Group devices by class and fix the ``G``/``C`` patterns and scatter map.

        ``evaluate`` accumulates every device output into one vector laid
        out as ``[f | q | G data | C data]``, each block followed by one
        sink slot that absorbs stamps on the ground node.
        """
        #: the nonlinear devices, and per device its terminal unknowns (-1 for ground)
        self.devices: List[NonlinearDevice] = list(self.circuit.devices)
        self.device_terminals: List[Tuple[int, ...]] = [
            tuple(self.node_index(node) for node in dev.nodes) for dev in self.devices
        ]
        if not self.devices:
            return
        members: Dict[type, List[int]] = {}
        for k, dev in enumerate(self.devices):
            members.setdefault(type(dev), []).append(k)
        n = self.n
        self._groups = [
            _DeviceGroup(cls, [self.devices[k] for k in ks],
                         np.array([self.device_terminals[k] for k in ks], dtype=np.int64), n)
            for cls, ks in members.items()
        ]
        self._G_pattern = _FixedPattern(self.G_lin, [g.g_stamps for g in self._groups])
        self._C_pattern = _FixedPattern(self.C_lin, [g.c_stamps for g in self._groups])
        self._g_offset = 2 * (n + 1)
        self._c_offset = self._g_offset + self._G_pattern.nnz + 1
        self._accumulator_size = self._c_offset + self._C_pattern.nnz + 1
        self._scatter = np.concatenate([
            g.destinations(n, self._G_pattern, self._g_offset, self._C_pattern, self._c_offset)
            for g in self._groups
        ])

    # -- excitation -------------------------------------------------------------------

    @property
    def waveforms(self) -> List[Waveform]:
        return list(self._waveforms)

    def input_vector(self, t: float) -> np.ndarray:
        """Return ``u(t)`` (one entry per independent source)."""
        if self.num_inputs == 0:
            return np.zeros(1)
        return np.array([w.value(t) for w in self._waveforms])

    def source_vector(self, t: float) -> np.ndarray:
        """Return the dense RHS excitation ``B u(t)``."""
        return np.asarray(self.B @ self.input_vector(t)).ravel()

    def source_difference(self, t0: float, t1: float) -> np.ndarray:
        """Return ``B (u(t1) - u(t0))`` -- the numerator of Eq. (13)."""
        du = self.input_vector(t1) - self.input_vector(t0)
        return np.asarray(self.B @ du).ravel()

    def source_slope(self, t0: float, t1: float) -> np.ndarray:
        """Return the Eq. (13) excitation slope ``B du/dt`` for ``[t0, t1]``.

        ``du/dt`` is :meth:`input_slopes`.
        """
        return np.asarray(self.B @ self.input_slopes(t0, t1)).ravel()

    def input_slopes(self, t0: float, t1: float) -> np.ndarray:
        """Return the Eq. (13) slope ``du/dt`` of every input for ``[t0, t1]``.

        Piecewise-linear waveforms (PWL, PULSE, DC) contribute their exact
        analytic segment slope -- a constant, bit-identical value for every
        step inside one segment.  It is evaluated at the
        step *midpoint*: the time loop can land ``t0`` one ulp before a
        breakpoint it has already popped (the step then lies wholly in the
        next segment), so the left edge is the one point of the step whose
        segment classification is unreliable; the midpoint is always a
        half-step away from both boundaries.  Smooth waveforms (SIN, EXP)
        contribute the secant ``(u(t1) - u(t0)) / (t1 - t0)``, the correct
        piecewise-linear model of Eq. (13) over a finite step; the two
        coincide (up to rounding) for PWL inputs because the time loop
        never steps across a breakpoint by more than rounding.
        """
        if self.num_inputs == 0:
            return np.zeros(1)
        h = t1 - t0
        mid = 0.5 * (t0 + t1)
        return np.array([
            w.slope(mid) if w.is_piecewise_linear
            else (w.value(t1) - w.value(t0)) / h
            for w in self._waveforms
        ])

    def breakpoints(self, t_end: float) -> List[float]:
        """Sorted source breakpoints in ``(0, t_end)`` (see Eq. 13 discussion)."""
        pts: set = set()
        for w in self._waveforms:
            pts.update(w.breakpoints(t_end))
        return sorted(p for p in pts if 0.0 < p < t_end)

    # -- nonlinear evaluation ------------------------------------------------------------

    @property
    def has_nonlinear(self) -> bool:
        return self._has_nonlinear

    def evaluate(self, x: np.ndarray) -> EvalResult:
        """Evaluate ``C(x), G(x), f(x), q(x)`` at the state ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"state vector must have shape ({self.n},), got {x.shape}")

        f_lin = np.asarray(self.G_lin @ x).ravel()
        q_lin = np.asarray(self.C_lin @ x).ravel()
        if not self._has_nonlinear:
            return EvalResult(C=self.C_lin, G=self.G_lin, f=f_lin, q=q_lin)

        x_ext = np.append(x, 0.0)
        acc = np.bincount(
            self._scatter,
            weights=np.concatenate([group.weights(x_ext) for group in self._groups]),
            minlength=self._accumulator_size,
        )
        n, G, C = self.n, self._G_pattern, self._C_pattern
        g0, c0 = self._g_offset, self._c_offset
        return EvalResult(
            C=C.matrix(C.base + acc[c0:c0 + C.nnz]),
            G=G.matrix(G.base + acc[g0:g0 + G.nnz]),
            f=f_lin + acc[:n],
            q=q_lin + acc[n + 1:2 * n + 1],
        )

    # -- solution access -----------------------------------------------------------------

    def voltage(self, x: np.ndarray, node: str) -> float:
        """Return the voltage of ``node`` in the solution vector ``x``."""
        idx = self.node_index(node)
        return 0.0 if idx < 0 else float(x[idx])

    def branch_current(self, x: np.ndarray, element_name: str) -> float:
        """Return the branch current of a voltage source / inductor by name."""
        return float(x[self.branch_index_by_name(element_name)])

    def initial_state(self) -> np.ndarray:
        """Return a state vector seeded from the circuit's ``.ic`` entries."""
        x0 = np.zeros(self.n)
        for node, value in self.circuit.initial_conditions.items():
            idx = self.node_index(node)
            if idx >= 0:
                x0[idx] = value
        return x0

    # -- statistics ----------------------------------------------------------------------

    def structure_stats(self, x: Optional[np.ndarray] = None) -> StructureStats:
        """Return the structural counters reported in Table I.

        When ``x`` is given the nonlinear devices are evaluated there so the
        reported ``nnz`` include the device stamp sets of the fixed
        pattern (zero-valued stamps included); otherwise the linear
        matrices are reported.
        """
        if x is None:
            c_nnz = int(self.C_lin.nnz)
            g_nnz = int(self.G_lin.nnz)
        else:
            ev = self.evaluate(x)
            c_nnz = int(ev.C.nnz)
            g_nnz = int(ev.G.nnz)
        coupling = sum(
            1 for el in self.circuit.elements if isinstance(el, CouplingCapacitor)
        )
        return StructureStats(
            n=self.n,
            num_nodes=self.num_nodes,
            num_branches=self.num_branches,
            num_devices=self.circuit.num_devices,
            nnz_C=c_nnz,
            nnz_G=g_nnz,
            num_coupling_caps=coupling,
        )

    def __repr__(self) -> str:
        return (
            f"MNASystem(n={self.n}, nodes={self.num_nodes}, branches={self.num_branches}, "
            f"inputs={self.num_inputs}, nonlinear={self._has_nonlinear})"
        )
