"""DC operating point analysis.

The transient frameworks (Algorithm 2, line 2 of the paper) start from the
DC solution ``x(0)``.  The DC system is ``f(x) = B u(0)`` with Jacobian
``G(x)``; plain Newton-Raphson is tried first and, when it fails on
strongly nonlinear circuits, the classic homotopies are applied in order:

* **gmin stepping** -- a conductance ``gmin`` from every node to ground is
  added and progressively reduced to zero, each stage warm-starting the
  next;
* **source stepping** -- all excitations are scaled from a small fraction
  up to their full value.

Both ladders are constants of this module; the Newton solves use the
:class:`~repro.integrators.newton.NewtonSolver` tolerances.  A transient
that should start from the circuit's ``.ic`` vector instead of the DC
point passes it directly: ``simulator.run(x0=mna.initial_state())``.

The result keeps the ordering of the solve's last factorization
(:class:`~repro.linalg.sparse_lu.OrderingSeed`), so the transient's first
factorization of the same pattern need not order it again.  Jacobians with
an unsymmetric pattern (device transconductances) share one
:class:`~repro.linalg.sparse_lu.SymbolicCache` across the whole solve, so a
pattern is ordered once; a hit there is bit-identical to the one-pass
factorization.  Structurally symmetric (linear) Jacobians keep the
one-pass factorization, whose last bits the cached path would move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.integrators.newton import NewtonResult, NewtonSolver
from repro.linalg.sparse_lu import (
    LUStats,
    OrderingSeed,
    SparseLU,
    SymbolicCache,
    factorize,
    structurally_symmetric,
)

__all__ = ["DCResult", "dc_operating_point", "GMIN_STEPS", "SOURCE_STEPS"]

#: gmin stepping ladder (S), used when the plain Newton solve fails; it
#: ends at 0 so the last stage solves the unmodified system
GMIN_STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 0.0)
#: source stepping ladder (scaling of all excitations), the final fallback;
#: it ends at full scale
SOURCE_STEPS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class DCResult:
    """Outcome of the operating-point analysis."""

    x: np.ndarray
    converged: bool
    iterations: int
    strategy: str
    residual_norm: float
    #: the ordering of the last factorization, detached from its factor
    ordering: Optional[OrderingSeed] = None

    def voltage(self, mna: MNASystem, node: str) -> float:
        return mna.voltage(self.x, node)


def _solve_stage(
    mna: MNASystem,
    solver: NewtonSolver,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
) -> NewtonResult:
    """One Newton solve of the (possibly homotopy-modified) DC system."""
    identity = sp.identity(mna.n, format="csc")
    bu = mna.source_vector(0.0)

    def residual_jacobian(x):
        ev = mna.evaluate(x)
        residual = ev.f - source_scale * bu
        jacobian = ev.G
        if gmin:
            residual = residual + gmin * x
            jacobian = (jacobian + gmin * identity).tocsc()
        return residual, jacobian

    return solver.solve(x0, residual_jacobian, label="DC Jacobian")


def dc_operating_point(
    mna: MNASystem,
    lu_stats: Optional[LUStats] = None,
    max_factor_nnz: Optional[int] = None,
) -> DCResult:
    """Compute the DC operating point of the circuit.

    ``lu_stats`` and ``max_factor_nnz`` are forwarded to every
    factorization.
    """
    ordering: Optional[OrderingSeed] = None
    unsymmetric = SymbolicCache()

    def factorizer(jacobian: sp.csc_matrix, label: str) -> SparseLU:
        nonlocal ordering
        jacobian.sum_duplicates()
        symmetric = structurally_symmetric(jacobian)
        lu = factorize(jacobian, stats=lu_stats, max_factor_nnz=max_factor_nnz, label=label,
                       symbolic=None if symmetric else unsymmetric, symmetric=symmetric)
        ordering = lu.ordering_seed(jacobian)
        return lu

    def outcome(x, converged, strategy, residual_norm) -> DCResult:
        return DCResult(x, converged, total_iterations, strategy, residual_norm, ordering)

    solver = NewtonSolver(mna, factorizer=factorizer)
    x0 = mna.initial_state()
    total_iterations = 0

    # 1. plain Newton from the .ic seed (or zero)
    result = _solve_stage(mna, solver, x0, 0.0, 1.0)
    total_iterations += result.iterations
    if result.converged:
        return outcome(result.x, True, "newton", result.residual_norm)

    # 2. gmin stepping
    x = np.array(x0, copy=True)
    converged = True
    for gmin in GMIN_STEPS:
        stage = _solve_stage(mna, solver, x, gmin, 1.0)
        total_iterations += stage.iterations
        x = stage.x
        converged = stage.converged
        if not converged:
            break
    if converged:
        return outcome(x, True, "gmin-stepping", 0.0)

    # 3. source stepping
    x = np.array(x0, copy=True)
    converged = True
    for scale in SOURCE_STEPS:
        stage = _solve_stage(mna, solver, x, 0.0, scale)
        total_iterations += stage.iterations
        x = stage.x
        converged = stage.converged
        if not converged:
            break
    if converged:
        return outcome(x, True, "source-stepping", 0.0)

    return outcome(x, False, "failed", np.inf)
