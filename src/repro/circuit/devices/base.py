"""Base class and batch-kernel contract for nonlinear devices.

A nonlinear device contributes, at an operating point ``x``:

* static (resistive) currents into ``f(x)``;
* the Jacobian of those currents ``df/dx`` into ``G(x)``;
* stored charges into ``q(x)``;
* the Jacobian of those charges ``dq/dx`` into ``C(x)``.

The model equations of a device class exist once, as a NumPy kernel
that evaluates every instance of the class in one call.
:class:`repro.circuit.mna.MNASystem` prepares each class once, at
construction, and then runs one kernel call per class per evaluation.
Adding a device means subclassing :class:`NonlinearDevice` and providing:

* ``G_STAMPS`` / ``C_STAMPS`` -- class-level tuples of ``(row, col)``
  terminal positions: the exact structural set of ``G`` / ``C`` entries
  the device may ever stamp, zero-valued ones included.  ``MNASystem``
  builds one fixed CSC pattern per matrix from them, so keep the sets
  minimal: every listed entry is carried (and factorized) at every
  state, even where its value is zero.
* :meth:`NonlinearDevice.params` -- the instance's scalar model
  parameters as a ``name -> float`` dict.  :func:`gather_params` turns
  the dicts of all instances into one array per name.
* :meth:`NonlinearDevice.evaluate_batch` -- a static method taking those
  arrays and the terminal voltages ``v`` of shape ``(m, k)`` (ground
  terminals read 0 V) and returning :class:`DeviceStamps`: per-terminal
  currents and charges of shape ``(m, k)`` and dense ``(m, k, k)``
  Jacobian blocks, which must be zero outside the declared stamp sets.
  Kernels select between model regions with ``np.where``, which
  evaluates every branch, so arguments of ``exp``/``**`` must be clamped
  such that discarded branches stay finite and raise no floating-point
  warnings (the tests run with ``-W error::RuntimeWarning``).

Consistency requirement: the Jacobians must be the exact derivatives of
the currents/charges.  Both the Newton-Raphson loop of the BENR baseline
and the nonlinear error estimator of the exponential Rosenbrock-Euler
integrator (Eq. 15 of the paper) rely on this; the unit tests check it
by finite differences, per device through :meth:`stamp_nonlinear` (a
scalar adapter over the kernel) and per circuit through
``MNASystem.evaluate``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Dict, Mapping, NamedTuple, Protocol, Sequence, Tuple

import numpy as np

__all__ = [
    "DeviceStamps",
    "NonlinearStamper",
    "NonlinearDevice",
    "gather_params",
    "fd_check_stamps",
]

#: ``(row, col)`` terminal positions of a device's structural stamp set
StampSet = Tuple[Tuple[int, int], ...]


class DeviceStamps(NamedTuple):
    """Batch-kernel output for ``m`` instances of a ``k``-terminal device."""

    #: ``(m, k)`` static current leaving the circuit node at each terminal
    f: np.ndarray
    #: ``(m, k)`` charge stored at each terminal
    q: np.ndarray
    #: ``(m, k, k)`` ``G[:, r, c] = d f_r / d v_c``
    G: np.ndarray
    #: ``(m, k, k)`` ``C[:, r, c] = d q_r / d v_c``
    C: np.ndarray


def stamp_branch(y: np.ndarray, jac: np.ndarray, a: int, b: int,
                 value: np.ndarray, deriv: np.ndarray) -> None:
    """Accumulate a two-terminal branch from terminal ``a`` to ``b``.

    ``value`` (a current or charge) leaves at ``a`` and enters at ``b``;
    ``deriv`` is its derivative with respect to ``v_a - v_b``.
    """
    y[:, a] += value
    y[:, b] -= value
    jac[:, a, a] += deriv
    jac[:, b, b] += deriv
    jac[:, a, b] -= deriv
    jac[:, b, a] -= deriv


def gather_params(devices: Sequence["NonlinearDevice"]) -> Dict[str, np.ndarray]:
    """Gather the :meth:`NonlinearDevice.params` of ``devices`` into arrays."""
    rows = [dev.params() for dev in devices]
    return {key: np.array([row[key] for row in rows], dtype=float) for key in rows[0]}


class NonlinearStamper(Protocol):
    """Scalar stamping interface used by :meth:`NonlinearDevice.stamp_nonlinear`."""

    def voltage(self, node: str) -> float:
        """Return the voltage of ``node`` at the current solution (0 for ground)."""

    def add_current(self, node: str, value: float) -> None:
        """Add ``value`` to the static current ``f`` at ``node`` (current leaving)."""

    def add_jacobian(self, row: str, col: str, value: float) -> None:
        """Add ``value`` to ``G[row, col] = d f_row / d v_col``."""

    def add_charge(self, node: str, value: float) -> None:
        """Add ``value`` to the stored charge ``q`` at ``node``."""

    def add_capacitance(self, row: str, col: str, value: float) -> None:
        """Add ``value`` to ``C[row, col] = d q_row / d v_col``."""


class NonlinearDevice(ABC):
    """Base class for all nonlinear devices (see the module docstring)."""

    G_STAMPS: ClassVar[StampSet] = ()
    C_STAMPS: ClassVar[StampSet] = ()

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    @abstractmethod
    def params(self) -> Dict[str, float]:
        """Return this instance's scalar model parameters for the batch kernel."""

    @staticmethod
    @abstractmethod
    def evaluate_batch(p: Mapping[str, np.ndarray], v: np.ndarray) -> DeviceStamps:
        """Evaluate all instances described by ``p`` at terminal voltages ``v``."""

    def stamp_nonlinear(self, st: NonlinearStamper) -> None:
        """Evaluate this one device at the stamper's operating point and stamp it."""
        v = np.array([[st.voltage(node) for node in self.nodes]])
        out = self.evaluate_batch(gather_params([self]), v)
        for k, node in enumerate(self.nodes):
            st.add_current(node, float(out.f[0, k]))
            st.add_charge(node, float(out.q[0, k]))
        for r, c in self.G_STAMPS:
            st.add_jacobian(self.nodes[r], self.nodes[c], float(out.G[0, r, c]))
        for r, c in self.C_STAMPS:
            st.add_capacitance(self.nodes[r], self.nodes[c], float(out.C[0, r, c]))

    def limit_voltage(self, name: str, v_new: float, v_old: float) -> float:
        """Limit a controlling voltage update for Newton robustness.

        The default implementation performs no limiting.  Devices with
        exponential characteristics (diodes, MOSFET bulk junctions)
        override this to implement SPICE-style junction limiting, which
        the Newton solver applies between iterations.
        """
        del name, v_old
        return v_new

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


def fd_check_stamps(device: NonlinearDevice, voltages: dict, rel_step: float = 1e-7):
    """Return (analytic_G, numeric_G, analytic_C, numeric_C) as dict-of-dicts.

    Test helper: evaluates ``device`` at ``voltages`` (node name -> volts),
    collects the stamped Jacobians and compares them against central
    finite differences of the stamped currents/charges.  Exposed here so
    both the unit tests and downstream users adding custom devices can
    reuse it.
    """
    from collections import defaultdict

    class _Collector:
        def __init__(self, volts):
            self.volts = dict(volts)
            self.f = defaultdict(float)
            self.q = defaultdict(float)
            self.G = defaultdict(float)
            self.C = defaultdict(float)

        def voltage(self, node):
            return self.volts.get(node, 0.0)

        def add_current(self, node, value):
            self.f[node] += value

        def add_jacobian(self, row, col, value):
            self.G[(row, col)] += value

        def add_charge(self, node, value):
            self.q[node] += value

        def add_capacitance(self, row, col, value):
            self.C[(row, col)] += value

    base = _Collector(voltages)
    device.stamp_nonlinear(base)

    numeric_G = defaultdict(float)
    numeric_C = defaultdict(float)
    for col in device.nodes:
        v0 = voltages.get(col, 0.0)
        h = rel_step * max(1.0, abs(v0))
        plus = _Collector({**voltages, col: v0 + h})
        minus = _Collector({**voltages, col: v0 - h})
        device.stamp_nonlinear(plus)
        device.stamp_nonlinear(minus)
        rows = set(plus.f) | set(minus.f) | set(plus.q) | set(minus.q)
        for row in rows:
            numeric_G[(row, col)] = (plus.f[row] - minus.f[row]) / (2 * h)
            numeric_C[(row, col)] = (plus.q[row] - minus.q[row]) / (2 * h)

    return dict(base.G), dict(numeric_G), dict(base.C), dict(numeric_C)
