"""Linear circuit elements and independent sources.

Each element is a light-weight description object; its matrix entries
are class data, not code.  A class lists them in :attr:`CircuitElement.STAMPS`
over its terminals -- ``nodes`` in order, then, for an element with a
branch current, its branch unknown -- and every entry is scaled by one
per-instance number, :attr:`CircuitElement.stamp_value` (``1/R``, ``C``,
``-L``, ``gm``, ``gain``, or ``1.0`` for the independent sources).
:class:`repro.circuit.mna.MNASystem` stamps all elements of a class at
once from that table, so elements never deal with matrix indices.

Sign conventions (SPICE / MNA standard):

* the system solved is ``dq(x)/dt + f(x) = B u(t)``;
* a resistor/capacitor between nodes ``a`` and ``b`` stamps the usual
  symmetric 4-entry pattern into ``G`` / ``C``;
* an independent current source ``I`` from ``n+`` to ``n-`` removes the
  current from ``n+`` and injects it into ``n-`` (stamped into ``B``);
* voltage sources, inductors and VCVS elements introduce one extra
  branch-current unknown ``k`` each.  Ahead of its own ``G`` entries such
  an element stamps the unit incidence of that branch between its first
  two terminals ``a`` and ``b``: ``G[a, k] = G[k, a] = 1`` and
  ``G[b, k] = G[k, b] = -1`` (KCL rows, then the branch row).
"""

from __future__ import annotations

from typing import ClassVar, NamedTuple, Optional, Tuple

from repro.circuit.sources import DC, Waveform

__all__ = [
    "CircuitElement",
    "LinearStamps",
    "Resistor",
    "Capacitor",
    "CouplingCapacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCCS",
    "VCVS",
]


class LinearStamps(NamedTuple):
    """The matrix entries of one linear element class.

    Terminal positions index the element's ``nodes``, then its branch
    unknown.  An entry adds ``sign * stamp_value`` to its matrix; entries
    on the ground node and zero-valued ones are dropped.
    """

    #: ``(row, col, sign)`` entries of ``G``
    G: Tuple[Tuple[int, int, float], ...] = ()
    #: ``(row, col, sign)`` entries of ``C``
    C: Tuple[Tuple[int, int, float], ...] = ()
    #: ``(row, sign)`` entries of ``B`` in the column of the element's
    #: ``waveform`` (one column per distinct waveform object)
    B: Tuple[Tuple[int, float], ...] = ()


#: the symmetric two-terminal pattern of a resistor or capacitor
_SYMMETRIC_PAIR = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0))


class CircuitElement:
    """Base class for all elements; stores the name and terminal nodes."""

    #: True for elements that need an extra branch-current unknown.
    needs_branch_current: bool = False
    #: the class's matrix entries; a concrete element class must declare them
    STAMPS: ClassVar[Optional[LinearStamps]] = None
    #: the per-instance scale of every entry in :attr:`STAMPS`
    stamp_value: float = 1.0

    def __init__(self, name: str, nodes: tuple):
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


class _TwoTerminal(CircuitElement):
    def __init__(self, name: str, node_a: str, node_b: str, value: float):
        super().__init__(name, (node_a, node_b))
        if value < 0:
            raise ValueError(f"{type(self).__name__} {name}: value must be non-negative, got {value}")
        self.value = float(value)


class Resistor(_TwoTerminal):
    """Linear resistor; stamps ``1/R`` into the conductance matrix."""

    STAMPS = LinearStamps(G=_SYMMETRIC_PAIR)

    def __init__(self, name: str, node_a: str, node_b: str, resistance: float):
        if resistance <= 0:
            raise ValueError(f"Resistor {name}: resistance must be positive, got {resistance}")
        super().__init__(name, node_a, node_b, resistance)

    @property
    def resistance(self) -> float:
        return self.value

    @property
    def conductance(self) -> float:
        return 1.0 / self.value

    stamp_value = conductance


class Capacitor(_TwoTerminal):
    """Linear capacitor; stamps the capacitance into ``C``."""

    STAMPS = LinearStamps(C=_SYMMETRIC_PAIR)

    def __init__(self, name: str, node_a: str, node_b: str, capacitance: float):
        super().__init__(name, node_a, node_b, capacitance)

    @property
    def capacitance(self) -> float:
        return self.value

    stamp_value = capacitance


class CouplingCapacitor(Capacitor):
    """Parasitic coupling capacitor between two signal nets.

    Electrically identical to :class:`Capacitor`; kept as a distinct type
    so post-layout generators and statistics can distinguish grounded
    capacitance from inter-net coupling (the quantity the paper's Fig. 1
    and Table I vary through ``nnzC``).
    """


class Inductor(_TwoTerminal):
    """Linear inductor; adds one branch-current unknown.

    Row conventions for the branch unknown ``i_L`` (flowing a -> b):

    * KCL rows: ``+i_L`` leaves node ``a``, enters node ``b``;
    * branch row: ``v_a - v_b - L di_L/dt = 0`` i.e. ``q = -L i_L`` and
      ``f = v_a - v_b`` on that row.
    """

    needs_branch_current = True
    STAMPS = LinearStamps(C=((2, 2, 1.0),))

    def __init__(self, name: str, node_a: str, node_b: str, inductance: float):
        if inductance <= 0:
            raise ValueError(f"Inductor {name}: inductance must be positive, got {inductance}")
        super().__init__(name, node_a, node_b, inductance)

    @property
    def inductance(self) -> float:
        return self.value

    @property
    def stamp_value(self) -> float:
        return -self.value


class VoltageSource(CircuitElement):
    """Independent voltage source; adds one branch-current unknown.

    The branch current flows from ``n+`` through the source to ``n-``.
    """

    needs_branch_current = True
    STAMPS = LinearStamps(B=((2, 1.0),))

    def __init__(self, name: str, node_pos: str, node_neg: str, waveform: Waveform | float):
        super().__init__(name, (node_pos, node_neg))
        self.waveform: Waveform = DC(waveform) if isinstance(waveform, (int, float)) else waveform


class CurrentSource(CircuitElement):
    """Independent current source from ``n+`` to ``n-``.

    The current leaves ``n+`` and enters ``n-``; ``B u(t)`` sits on the RHS.
    """

    STAMPS = LinearStamps(B=((0, -1.0), (1, 1.0)))

    def __init__(self, name: str, node_pos: str, node_neg: str, waveform: Waveform | float):
        super().__init__(name, (node_pos, node_neg))
        self.waveform: Waveform = DC(waveform) if isinstance(waveform, (int, float)) else waveform


class VCCS(CircuitElement):
    """Voltage-controlled current source: ``i(out+ -> out-) = gm * v(c+ , c-)``."""

    STAMPS = LinearStamps(G=((0, 2, 1.0), (0, 3, -1.0), (1, 2, -1.0), (1, 3, 1.0)))

    def __init__(
        self,
        name: str,
        out_pos: str,
        out_neg: str,
        ctrl_pos: str,
        ctrl_neg: str,
        transconductance: float,
    ):
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.gm = float(transconductance)

    @property
    def stamp_value(self) -> float:
        return self.gm


class VCVS(CircuitElement):
    """Voltage-controlled voltage source: ``v(out+, out-) = gain * v(c+, c-)``."""

    needs_branch_current = True
    #: the branch row beyond the incidence: ``v_out - gain * v_ctrl = 0``
    STAMPS = LinearStamps(G=((4, 2, -1.0), (4, 3, 1.0)))

    def __init__(
        self,
        name: str,
        out_pos: str,
        out_neg: str,
        ctrl_pos: str,
        ctrl_neg: str,
        gain: float,
    ):
        super().__init__(name, (out_pos, out_neg, ctrl_pos, ctrl_neg))
        self.gain = float(gain)

    @property
    def stamp_value(self) -> float:
        return self.gain
