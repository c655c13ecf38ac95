"""Numerical integration methods for the circuit DAE.

Baselines (low-order implicit / explicit schemes):

* :class:`repro.integrators.backward_euler.BackwardEulerNR` -- the BENR
  method the paper compares against (Eq. 2-3);
* :class:`repro.integrators.trapezoidal.TrapezoidalNR` and
  :class:`repro.integrators.gear2.Gear2NR` -- the other classic implicit
  companions mentioned in Sec. II-A;
* :class:`repro.integrators.forward_euler.ForwardEuler` -- the explicit
  scheme whose stability limits motivate implicit/exponential methods.

The three implicit baselines share one adaptive Newton step,
:class:`repro.integrators.implicit.ImplicitNR`: predictor, Newton solve
of ``a C/h + b G`` through the linearization cache, step rejection and
the asymptotic controller.  Each scheme supplies only its residual and
Jacobian, its error estimate and its controller exponent.

Exponential integrators:

* :class:`repro.integrators.exponential_rosenbrock.ExponentialRosenbrockEuler`
  -- the paper's ER / ER-C framework (Algorithm 2) built on the invert
  Krylov MEVP (Algorithm 1);
* :class:`repro.integrators.matrix_exp_standard.StandardKrylovExponential`
  -- the prior-work matrix-exponential integrator that uses the standard
  Krylov subspace and therefore needs a (regularized) factorization of C.
"""

from repro.integrators.base import (
    Integrator,
    IntegratorError,
    ConvergenceError,
    StepOutcome,
)
from repro.integrators.newton import NewtonSolver, NewtonResult
from repro.integrators.backward_euler import BackwardEulerNR
from repro.integrators.forward_euler import ForwardEuler
from repro.integrators.trapezoidal import TrapezoidalNR
from repro.integrators.gear2 import Gear2NR
from repro.integrators.exponential_rosenbrock import ExponentialRosenbrockEuler
from repro.integrators.matrix_exp_standard import StandardKrylovExponential

#: registry used by the :class:`repro.core.simulator.TransientSimulator` façade
INTEGRATOR_REGISTRY = {
    "benr": BackwardEulerNR,
    "be": BackwardEulerNR,
    "backward-euler": BackwardEulerNR,
    "fe": ForwardEuler,
    "forward-euler": ForwardEuler,
    "trap": TrapezoidalNR,
    "trapezoidal": TrapezoidalNR,
    "gear2": Gear2NR,
    "bdf2": Gear2NR,
    "er": ExponentialRosenbrockEuler,
    "er-c": ExponentialRosenbrockEuler,
    "erc": ExponentialRosenbrockEuler,
    "expm-std": StandardKrylovExponential,
    "matex-std": StandardKrylovExponential,
}

__all__ = [
    "Integrator",
    "IntegratorError",
    "ConvergenceError",
    "StepOutcome",
    "NewtonSolver",
    "NewtonResult",
    "BackwardEulerNR",
    "ForwardEuler",
    "TrapezoidalNR",
    "Gear2NR",
    "ExponentialRosenbrockEuler",
    "StandardKrylovExponential",
    "INTEGRATOR_REGISTRY",
]
