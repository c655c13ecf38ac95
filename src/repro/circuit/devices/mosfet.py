"""MOSFET models.

Two static models are provided, selected by ``MOSFETModel.level``:

* ``level=1`` -- classic Shichman-Hodges (SPICE Level 1) square-law model
  with channel-length modulation and body effect.  Piecewise defined
  (cutoff / triode / saturation) exactly like the original model.
* ``level=2`` -- a smooth "BSIM-like" single-expression model based on the
  EKV forward/reverse interpolation.  It is C-infinity in the terminal
  voltages, includes subthreshold conduction and channel-length
  modulation, and is the model used by the stiff benchmark circuits
  because its smoothness stresses the nonlinear error estimator rather
  than Newton's region switching.

Charge storage uses constant gate overlap/intrinsic capacitances (cgs,
cgd, cgb) plus nonlinear drain/source-bulk junction depletion
capacitances.  All stamped Jacobians are the exact derivatives of the
stamped currents/charges (validated by finite differences in the tests),
which the exponential integrators rely on.

The paper evaluates devices with BSIM3 via a C/C++ MEX bridge; the
substitution is documented in DESIGN.md -- the integrators only observe
``C(x), G(x), f(x)``, and any smooth, stiff, strongly nonlinear MOSFET
model exercises the same algorithmic paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.circuit.devices.base import DeviceStamps, NonlinearDevice, gather_params, stamp_branch
from repro.circuit.devices.diode import junction_depletion

__all__ = ["MOSFETModel", "MOSFET"]

THERMAL_VOLTAGE = 0.02585

#: terminal positions
D, G, S, B = range(4)


@dataclass
class MOSFETModel:
    """MOSFET .model parameters (SPICE-compatible subset)."""

    name: str = "NMOS"
    #: "nmos" or "pmos"
    mos_type: str = "nmos"
    #: 1 = Shichman-Hodges, 2 = smooth EKV-style BSIM-like model
    level: int = 1
    #: zero-bias threshold voltage [V] (positive for NMOS enhancement)
    vt0: float = 0.5
    #: transconductance parameter kp = mu * Cox [A/V^2]
    kp: float = 2e-4
    #: channel-length modulation [1/V]
    lam: float = 0.02
    #: body-effect coefficient [sqrt(V)]
    gamma: float = 0.3
    #: surface potential [V]
    phi: float = 0.7
    #: gate-source overlap capacitance per channel width [F/m]
    cgso: float = 1e-10
    #: gate-drain overlap capacitance per channel width [F/m]
    cgdo: float = 1e-10
    #: gate-bulk overlap capacitance per channel length [F/m]
    cgbo: float = 1e-10
    #: gate-oxide capacitance per area [F/m^2]
    cox: float = 3.45e-3
    #: zero-bias bulk junction capacitance per area [F/m^2]
    cj: float = 1e-4
    #: bulk junction potential [V]
    pb: float = 0.8
    #: bulk junction grading coefficient
    mj: float = 0.5
    #: forward-bias depletion capacitance coefficient
    fc: float = 0.5
    #: minimum drain-source conductance [S]
    gmin: float = 1e-12
    #: subthreshold slope factor (level 2)
    nfactor: float = 1.3

    def __post_init__(self):
        mos_type = self.mos_type.lower()
        if mos_type not in ("nmos", "pmos"):
            raise ValueError(f"mos_type must be 'nmos' or 'pmos', got {self.mos_type!r}")
        self.mos_type = mos_type
        if self.level not in (1, 2):
            raise ValueError(f"unsupported MOSFET level {self.level}")
        if self.kp <= 0:
            raise ValueError("kp must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.nfactor <= 0:
            raise ValueError("nfactor must be positive")
        if self.pb <= 0:
            raise ValueError("bulk junction potential pb must be positive")
        if not (0.0 <= self.mj < 1.0):
            raise ValueError("bulk junction grading coefficient mj must lie in [0, 1)")
        if not (0.0 < self.fc < 1.0):
            raise ValueError("fc must lie in (0, 1)")
        if self.cj < 0:
            raise ValueError("cj must be non-negative")

    @property
    def polarity(self) -> float:
        """+1 for NMOS, -1 for PMOS."""
        return 1.0 if self.mos_type == "nmos" else -1.0


def _smooth_max(x: np.ndarray, floor: float):
    """Smooth approximation of ``max(x, floor)`` and its derivative."""
    d = x - floor
    s = np.sqrt(d * d + 4.0 * floor * floor)
    return floor + 0.5 * (d + s), 0.5 * (1.0 + d / s)


def _threshold(p: Mapping[str, np.ndarray], vbs: np.ndarray):
    """Return ``(vth, dvth/dvbs)`` with a smooth body-effect clamp."""
    s, ds = _smooth_max(p["phi"] - vbs, 1e-3)
    sq = np.sqrt(s)
    vth = p["vt0"] + p["gamma"] * (sq - np.sqrt(p["phi"]))
    return vth, -p["gamma"] * ds / (2.0 * sq)


def _level1(p, vgs, vds, vth, dvth):
    """Shichman-Hodges model: ``(ids, gm, gds, gmb)`` for vds >= 0, without gmin."""
    beta, lam = p["beta"], p["lam"]
    vgst = vgs - vth
    clm = 1.0 + lam * vds
    triode = vds < vgst
    body = vgst * vds - 0.5 * vds * vds
    ids = np.where(triode, beta * body * clm, 0.5 * beta * vgst * vgst * clm)
    gm = np.where(triode, beta * vds * clm, beta * vgst * clm)
    gds = np.where(triode, beta * (vgst - vds) * clm + beta * body * lam,
                   0.5 * beta * vgst * vgst * lam)
    cutoff = vgst <= 0.0
    ids, gm, gds = (np.where(cutoff, 0.0, a) for a in (ids, gm, gds))
    return ids, gm, gds, -gm * dvth


def _softplus_sq(v_over, two_nvt):
    """EKV ``log(1 + e^a)^2`` interpolation (a = v_over / 2nVt) and its derivative.

    Beyond ``|a| > 40`` the asymptotes replace the exact forms; the
    exponentials see clipped arguments so the discarded branches cannot
    overflow.
    """
    a = v_over / two_nvt
    e = np.exp(np.minimum(a, 40.0))
    logistic = 1.0 / (1.0 + np.exp(-np.clip(a, -40.0, 40.0)))
    sp = np.where(a > 40.0, a, np.where(a < -40.0, e, np.log1p(e)))
    sig = np.where(a > 40.0, 1.0, np.where(a < -40.0, e, logistic))
    return sp * sp, 2.0 * sp * sig / two_nvt


def _level2(p, vgs, vds, vth, dvth):
    """Smooth EKV-style model: ``(ids, gm, gds, gmb)`` for vds >= 0, without gmin."""
    beta, lam, n = p["beta"], p["lam"], p["nfactor"]
    vt = THERMAL_VOLTAGE
    i0 = 2.0 * n * beta * vt * vt
    clm = 1.0 + lam * vds
    two_nvt = 2.0 * n * vt
    i_f, di_f = _softplus_sq(vgs - vth, two_nvt)
    i_r, di_r = _softplus_sq(vgs - vth - n * vds, two_nvt)
    core = i0 * (i_f - i_r)
    gm = i0 * (di_f - di_r) * clm
    return core * clm, gm, i0 * (n * di_r) * clm + core * lam, gm * (-dvth)


def _channel(p: Mapping[str, np.ndarray], vgs, vds, vbs):
    """Forward-normalized drain current ``(ids, gm, gds, gmb)`` for vds >= 0."""
    vth, dvth = _threshold(p, vbs)
    level1 = p["level"] == 1
    if level1.all():
        ids, gm, gds, gmb = _level1(p, vgs, vds, vth, dvth)
    elif not level1.any():
        ids, gm, gds, gmb = _level2(p, vgs, vds, vth, dvth)
    else:
        ids, gm, gds, gmb = np.where(level1, np.array(_level1(p, vgs, vds, vth, dvth)),
                                     np.array(_level2(p, vgs, vds, vth, dvth)))
    return ids + p["gmin"] * vds, gm, gds + p["gmin"], gmb


class MOSFET(NonlinearDevice):
    """Four-terminal MOSFET (drain, gate, source, bulk)."""

    #: channel current: rows {d, s} x columns {d, g, s, b}
    G_STAMPS = tuple((r, c) for r in (D, S) for c in (D, G, S, B))
    #: gate and junction capacitors couple every terminal pair but drain-source
    C_STAMPS = tuple((r, c) for r in range(4) for c in range(4) if {r, c} != {D, S})

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        model: MOSFETModel | None = None,
        w: float = 1e-6,
        l: float = 1e-7,
    ):
        super().__init__(name, (drain, gate, source, bulk))
        self.model = model if model is not None else MOSFETModel()
        if w <= 0 or l <= 0:
            raise ValueError(f"MOSFET {name}: W and L must be positive")
        self.w = float(w)
        self.l = float(l)

    def params(self) -> Dict[str, float]:
        mdl, w, l = self.model, self.w, self.l
        # Gate capacitances: overlap plus a fraction of the intrinsic oxide
        # capacitance split between source and drain (Meyer-style constant
        # partition, 40/40/20).
        c_ox = mdl.cox * w * l
        return dict(
            polarity=mdl.polarity, level=mdl.level, vt0=mdl.vt0, beta=mdl.kp * w / l,
            lam=mdl.lam, gamma=mdl.gamma, phi=mdl.phi, nfactor=mdl.nfactor, gmin=mdl.gmin,
            cgs=mdl.cgso * w + 0.4 * c_ox, cgd=mdl.cgdo * w + 0.4 * c_ox,
            cgb=mdl.cgbo * l + 0.2 * c_ox,
            cj0=mdl.cj * w * l, pb=mdl.pb, mj=mdl.mj, fc=mdl.fc,
        )

    @staticmethod
    def evaluate_batch(p: Mapping[str, np.ndarray], v: np.ndarray) -> DeviceStamps:
        vd, vg, vs, vb = v.T
        pol = p["polarity"]
        m = len(vd)

        # Work in forward-normalized space: swap drain/source where the
        # device conducts in reverse, and flip polarity for PMOS.
        fwd = pol * (vd - vs) >= 0.0
        vns = np.where(fwd, vs, vd)
        vgs = pol * (vg - vns)
        vds = pol * (np.where(fwd, vd, vs) - vns)
        vbs = pol * (vb - vns)
        ids, gm, gds, gmb = _channel(p, vgs, vds, vbs)

        # Current pol*ids flows through the channel from the normalized
        # drain to the normalized source; the source row is the negated
        # drain row.
        sign = np.where(fwd, 1.0, -1.0)
        gss = gm + gds + gmb
        f = np.zeros((m, 4))
        Gm = np.zeros((m, 4, 4))
        f[:, D] = sign * pol * ids
        Gm[:, D, D] = np.where(fwd, gds, gss)
        Gm[:, D, G] = sign * gm
        Gm[:, D, S] = -np.where(fwd, gss, gds)
        Gm[:, D, B] = sign * gmb
        f[:, S] = -f[:, D]
        Gm[:, S] = -Gm[:, D]

        q = np.zeros((m, 4))
        Cm = np.zeros((m, 4, 4))
        for a, b, cap in ((G, S, p["cgs"]), (G, D, p["cgd"]), (G, B, p["cgb"])):
            stamp_branch(q, Cm, a, b, cap * (v[:, a] - v[:, b]), cap)
        # Drain- and source-bulk depletion junctions, reverse biased when
        # pol * (vb - vdiff) < 0; the (normalized) charge sits on the bulk.
        for diff in (D, S):
            qj, cj = junction_depletion(pol * (vb - v[:, diff]), p["cj0"], p["pb"],
                                        p["mj"], p["fc"])
            stamp_branch(q, Cm, B, diff, pol * qj, cj)
        return DeviceStamps(f, q, Gm, Cm)

    def _ids(self, vgs: float, vds: float, vbs: float) -> tuple:
        """Scalar view of the channel kernel: ``(ids, gm, gds, gmb)`` for vds >= 0."""
        volts = (np.array([x], dtype=float) for x in (vgs, vds, vbs))
        out = _channel(gather_params([self]), *volts)
        return tuple(float(a[0]) for a in out)

    # -- Newton helpers -----------------------------------------------------------

    def limit_voltage(self, name: str, v_new: float, v_old: float) -> float:
        """Limit gate and drain voltage updates (SPICE-style fetlim)."""
        if name not in (self.nodes[0], self.nodes[1]):
            return v_new
        step = v_new - v_old
        max_step = 2.0 if name == self.nodes[1] else 4.0
        if abs(step) > max_step:
            return v_old + math.copysign(max_step, step)
        return v_new
