"""Junction diode model.

Static current follows the Shockley equation with a series-free ideal
junction; the exponential is linearized above a critical voltage so the
model never overflows and stays C1-continuous (the same device-level
safeguard SPICE uses in combination with junction limiting).

Charge storage combines a depletion (junction) capacitance with standard
forward-bias linearization above ``fc * vj`` and a diffusion charge
``tt * I(v)``; the stamped capacitance is the exact derivative of the
stamped charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.circuit.devices.base import DeviceStamps, NonlinearDevice, gather_params, stamp_branch

__all__ = ["DiodeModel", "Diode", "junction_depletion"]

#: Boltzmann constant times 300K over the electron charge (thermal voltage).
THERMAL_VOLTAGE = 0.02585

#: exponent above which the I-V curve is linearized to avoid overflow
_EXP_CLIP = 80.0


@dataclass
class DiodeModel:
    """Diode .model parameters (SPICE-compatible subset)."""

    name: str = "D"
    #: saturation current [A]
    isat: float = 1e-14
    #: emission coefficient
    n: float = 1.0
    #: transit time (diffusion charge) [s]
    tt: float = 0.0
    #: zero-bias junction capacitance [F]
    cj0: float = 0.0
    #: junction potential [V]
    vj: float = 1.0
    #: grading coefficient
    m: float = 0.5
    #: forward-bias depletion capacitance coefficient
    fc: float = 0.5
    #: minimum parallel conductance for numerical robustness [S]
    gmin: float = 1e-12

    def __post_init__(self):
        if self.isat <= 0:
            raise ValueError("diode saturation current must be positive")
        if self.n <= 0:
            raise ValueError("diode emission coefficient must be positive")
        if not (0.0 < self.fc < 1.0):
            raise ValueError("diode fc must lie in (0, 1)")
        if self.vj <= 0:
            raise ValueError("diode junction potential vj must be positive")
        if not (0.0 <= self.m < 1.0):
            raise ValueError("diode grading coefficient m must lie in [0, 1)")
        if self.cj0 < 0:
            raise ValueError("diode cj0 must be non-negative")

    @property
    def vte(self) -> float:
        """Effective thermal voltage ``n * kT/q``."""
        return self.n * THERMAL_VOLTAGE

    @property
    def v_crit(self) -> float:
        """Critical voltage for junction limiting (SPICE pnjlim)."""
        return self.vte * math.log(self.vte / (math.sqrt(2.0) * self.isat))


def junction_depletion(v, cj0, vj, m, fc):
    """Depletion charge and capacitance of a pn junction at bias ``v``.

    Shared by the diode and the MOSFET drain/source-bulk junctions.  Above
    ``fc * vj`` the charge continues as the C1-continuous quadratic
    extension; the power-law branch is evaluated at ``min(v, fc * vj)`` so
    that the discarded branch stays finite.
    """
    fcv = fc * vj
    below = v < fcv
    arg = 1.0 - np.minimum(v, fcv) / vj
    f1 = vj / (1.0 - m) * (1.0 - (1.0 - fc) ** (1.0 - m))
    f2 = (1.0 - fc) ** (1.0 + m)
    f3 = 1.0 - fc * (1.0 + m)
    dv = v - fcv
    q = np.where(below, cj0 * vj / (1.0 - m) * (1.0 - arg ** (1.0 - m)),
                 cj0 * (f1 + (f3 * dv + 0.5 * m / vj * dv * dv) / f2))
    c = np.where(below, cj0 * arg ** (-m), cj0 * (f3 + m * dv / vj) / f2)
    return q, c


def _junction(p: Mapping[str, np.ndarray], vd: np.ndarray):
    """Return ``(I, dI/dV, Q, dQ/dV)`` of diode junctions at bias ``vd``.

    The Shockley exponential is linearized beyond ``_EXP_CLIP``; the
    charge is the depletion charge plus the diffusion charge ``tt * I``.
    """
    arg = vd / p["vte"]
    e = np.exp(np.minimum(arg, _EXP_CLIP))
    i = p["isat"] * (e * (1.0 + np.maximum(arg - _EXP_CLIP, 0.0)) - 1.0) + p["gmin"] * vd
    g = p["isat"] * e / p["vte"] + p["gmin"]
    q, c = junction_depletion(vd, p["cj0"], p["vj"], p["m"], p["fc"])
    return i, g, q + p["tt"] * i, c + p["tt"] * g


class Diode(NonlinearDevice):
    """Two-terminal junction diode between ``anode`` and ``cathode``."""

    G_STAMPS = ((0, 0), (0, 1), (1, 0), (1, 1))
    C_STAMPS = G_STAMPS

    def __init__(self, name: str, anode: str, cathode: str, model: DiodeModel | None = None,
                 area: float = 1.0):
        super().__init__(name, (anode, cathode))
        self.model = model if model is not None else DiodeModel()
        if area <= 0:
            raise ValueError(f"Diode {name}: area must be positive")
        self.area = float(area)

    def params(self) -> Dict[str, float]:
        mdl = self.model
        return dict(isat=mdl.isat * self.area, vte=mdl.vte, gmin=mdl.gmin,
                    cj0=mdl.cj0 * self.area, vj=mdl.vj, m=mdl.m, fc=mdl.fc, tt=mdl.tt)

    @staticmethod
    def evaluate_batch(p: Mapping[str, np.ndarray], v: np.ndarray) -> DeviceStamps:
        vd = v[:, 0] - v[:, 1]
        m = len(vd)
        f, q = np.zeros((m, 2)), np.zeros((m, 2))
        G, C = np.zeros((m, 2, 2)), np.zeros((m, 2, 2))
        i, g, charge, cap = _junction(p, vd)
        stamp_branch(f, G, 0, 1, i, g)
        stamp_branch(q, C, 0, 1, charge, cap)
        return DeviceStamps(f, q, G, C)

    # -- scalar views of the kernel -----------------------------------------------

    def current_and_conductance(self, vd: float) -> tuple:
        """Return ``(I, dI/dV)`` of the junction at voltage ``vd``."""
        return self._scalar(vd)[:2]

    def charge_and_capacitance(self, vd: float) -> tuple:
        """Return ``(Q, dQ/dV)`` of the junction at voltage ``vd``."""
        return self._scalar(vd)[2:]

    def _scalar(self, vd: float) -> tuple:
        out = _junction(gather_params([self]), np.array([vd], dtype=float))
        return tuple(float(a[0]) for a in out)

    # -- Newton helpers ----------------------------------------------------------

    def limit_voltage(self, name: str, v_new: float, v_old: float) -> float:
        """SPICE pnjlim junction-voltage limiting for the anode node."""
        if name != self.nodes[0]:
            return v_new
        vte = self.model.vte
        v_crit = self.model.v_crit
        if v_new <= v_crit or abs(v_new - v_old) <= 2.0 * vte:
            return v_new
        if v_old > 0.0:
            arg = 1.0 + (v_new - v_old) / vte
            if arg > 0.0:
                return v_old + vte * math.log(arg)
            return v_crit
        return vte * math.log(v_new / vte) if v_new > 0.0 else v_crit
