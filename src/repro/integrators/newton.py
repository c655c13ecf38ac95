"""Newton-Raphson solver for the implicit formulations and DC analysis.

This is the workhorse of the BENR / TR / Gear baselines (Eq. 3 of the
paper): every iteration linearizes the nonlinear residual, LU-factorizes
the Jacobian (the ``C/h + G`` combination for BENR) and solves for the
update.  SPICE-style device voltage limiting keeps the iteration robust on
exponential device characteristics.  The iteration limit and the
convergence tolerances are constants of :class:`NewtonSolver`.

All factorizations go through :func:`repro.linalg.sparse_lu.factorize` so
the LU counts and fill-in that drive the paper's cost comparison are
recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.linalg.sparse_lu import LUStats, SparseLU, factorize

__all__ = ["NewtonResult", "NewtonSolver"]

#: callback type: ``x -> (residual T(x), Jacobian dT/dx)``
ResidualJacobian = Callable[[np.ndarray], Tuple[np.ndarray, sp.spmatrix]]

#: callback type: ``(jacobian, label) -> SparseLU`` -- lets integrators route
#: factorizations through their :class:`repro.core.workspace.LinearizationCache`
Factorizer = Callable[[sp.spmatrix, str], "SparseLU"]


@dataclass
class NewtonResult:
    """Outcome of one Newton solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    update_norm: float


class NewtonSolver:
    """Newton-Raphson with SPICE-style device limiting."""

    #: maximum iterations per solve
    MAX_ITERATIONS = 50
    #: absolute convergence tolerance on the voltage update [V]
    ABSTOL = 1e-6
    #: relative convergence tolerance on the voltage update
    RELTOL = 1e-3
    #: absolute tolerance on the residual (KCL) [A]
    RESIDUAL_TOL = 1e-9

    def __init__(
        self,
        mna: MNASystem,
        lu_stats: Optional[LUStats] = None,
        max_factor_nnz: Optional[int] = None,
        factorizer: Optional[Factorizer] = None,
    ):
        self.mna = mna
        self.lu_stats = lu_stats
        self.max_factor_nnz = max_factor_nnz
        #: optional cache-aware factorization routine (defaults to a plain
        #: instrumented :func:`repro.linalg.sparse_lu.factorize`)
        self.factorizer = factorizer

    # -- device limiting ----------------------------------------------------------------

    def _apply_limiting(self, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        """Apply per-device junction/FET limiting to the proposed update."""
        if not self.mna.has_nonlinear:
            return x_new
        limited = np.array(x_new, copy=True)
        for device, terminals in zip(self.mna.devices, self.mna.device_terminals):
            for node, idx in zip(device.nodes, terminals):
                if idx >= 0:
                    limited[idx] = device.limit_voltage(node, limited[idx], float(x_old[idx]))
        return limited

    # -- the iteration -------------------------------------------------------------------

    def solve(
        self,
        x0: np.ndarray,
        residual_jacobian: ResidualJacobian,
        label: str = "Newton Jacobian",
    ) -> NewtonResult:
        """Solve ``T(x) = 0`` starting from ``x0``.

        Convergence requires the weighted update norm
        ``max_i |dx_i| / (ABSTOL + RELTOL |x_i|) <= 1`` -- the standard
        SPICE criterion -- or a residual below ``RESIDUAL_TOL``.
        """
        x = np.array(x0, dtype=float, copy=True)
        update_norm = np.inf
        residual_norm = np.inf

        for iteration in range(1, self.MAX_ITERATIONS + 1):
            residual, jacobian = residual_jacobian(x)
            residual = np.asarray(residual, dtype=float).ravel()
            residual_norm = float(np.max(np.abs(residual))) if residual.size else 0.0
            if residual_norm <= self.RESIDUAL_TOL:
                return NewtonResult(x, True, iteration, residual_norm, 0.0)

            if self.factorizer is not None:
                lu = self.factorizer(jacobian.tocsc(), label)
            else:
                lu = factorize(
                    jacobian.tocsc(), stats=self.lu_stats,
                    max_factor_nnz=self.max_factor_nnz, label=label,
                )
            dx = lu.solve(-residual)
            if not np.all(np.isfinite(dx)):
                return NewtonResult(x, False, iteration, residual_norm, np.inf)

            x_proposed = self._apply_limiting(x + dx, x)
            actual_dx = x_proposed - x
            x = x_proposed

            scale = self.ABSTOL + self.RELTOL * np.abs(x)
            update_norm = float(np.max(np.abs(actual_dx) / scale)) if actual_dx.size else 0.0
            if update_norm <= 1.0:
                return NewtonResult(x, True, iteration, residual_norm, update_norm)

        return NewtonResult(x, False, self.MAX_ITERATIONS, residual_norm, update_norm)
