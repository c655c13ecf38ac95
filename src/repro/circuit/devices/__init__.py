"""Nonlinear device models (diode, MOSFET).

These devices are evaluated once per Newton iteration (BENR) or once per
time step (exponential Rosenbrock-Euler), producing their contribution to
the static current vector ``f(x)``, charge vector ``q(x)`` and the
linearized matrices ``G(x) = df/dx`` and ``C(x) = dq/dx``.  Each device
class evaluates all of its instances in one NumPy kernel; see
:mod:`repro.circuit.devices.base` for the contract.
"""

from repro.circuit.devices.base import DeviceStamps, NonlinearDevice, NonlinearStamper
from repro.circuit.devices.diode import Diode, DiodeModel
from repro.circuit.devices.mosfet import MOSFET, MOSFETModel

__all__ = [
    "DeviceStamps",
    "NonlinearDevice",
    "NonlinearStamper",
    "Diode",
    "DiodeModel",
    "MOSFET",
    "MOSFETModel",
]
