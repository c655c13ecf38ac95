"""Standard Krylov subspace MEVP (the prior-work baseline, Eq. 5-6).

This is the matrix-exponential strategy used by the earlier
matrix-exponential circuit simulators the paper improves upon
(Weng et al. [20], Chen et al. [17]): the Krylov space of
``J = -C^{-1} G`` is built directly, which requires

* a factorization of the capacitance matrix ``C`` (expensive when ``C``
  carries post-layout coupling), and
* a *non-singular* ``C`` -- singular MNA capacitance matrices must first be
  regularized (:mod:`repro.linalg.regularization`).

Both costs are exactly what the paper's invert Krylov strategy avoids;
this module exists so the comparison (ablation benchmark A) can be run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.linalg.arnoldi import ArnoldiBreakdown, ArnoldiProcess
from repro.linalg.phi import expm_dense
from repro.linalg.sparse_lu import SparseLU

__all__ = ["KRYLOV_MAX_DIM", "MEVPStats", "KrylovResult", "StandardKrylovMEVP"]

#: hard cap on the subspace dimension of every Krylov MEVP (standard and
#: invert); a basis that reaches it without converging is reported as such
KRYLOV_MAX_DIM = 100


@dataclass
class MEVPStats:
    """Counters shared by all Krylov MEVP strategies.

    ``average_dimension`` is the ``#m_a`` column of the paper's Table I.
    """

    num_evaluations: int = 0
    total_dimension: int = 0
    num_operator_applications: int = 0
    num_nonconverged: int = 0
    #: largest subspace dimension of any evaluation
    max_dimension: int = 0
    #: evaluations served by a basis built earlier in the run (ER's linear
    #: superposition re-evaluates each input's basis at every later step);
    #: each is also one of ``num_evaluations``, so the bases actually built
    #: number ``num_evaluations - num_basis_reuses``
    num_basis_reuses: int = 0
    #: Eq. 22 residual evaluations of the invert-Krylov convergence sweep
    num_residual_checks: int = 0
    #: small dense exponentials ``expm(h H_m^{-1})`` of the invert-Krylov MEVP
    num_expm_calls: int = 0

    @property
    def average_dimension(self) -> float:
        if self.num_evaluations == 0:
            return 0.0
        return self.total_dimension / self.num_evaluations

    def record(self, m: int, converged: bool) -> None:
        self.num_evaluations += 1
        self.total_dimension += m
        self.max_dimension = max(self.max_dimension, m)
        if not converged:
            self.num_nonconverged += 1

    def merge(self, other: "MEVPStats") -> None:
        self.num_evaluations += other.num_evaluations
        self.total_dimension += other.total_dimension
        self.num_operator_applications += other.num_operator_applications
        self.num_nonconverged += other.num_nonconverged
        self.max_dimension = max(self.max_dimension, other.max_dimension)
        self.num_basis_reuses += other.num_basis_reuses
        self.num_residual_checks += other.num_residual_checks
        self.num_expm_calls += other.num_expm_calls

    def as_dict(self) -> dict:
        return {
            "num_evaluations": self.num_evaluations,
            "average_dimension": self.average_dimension,
            "max_dimension": self.max_dimension,
            "num_operator_applications": self.num_operator_applications,
            "num_nonconverged": self.num_nonconverged,
            "num_basis_reuses": self.num_basis_reuses,
            "num_residual_checks": self.num_residual_checks,
            "num_expm_calls": self.num_expm_calls,
        }


@dataclass
class KrylovResult:
    """Result of one MEVP evaluation ``e^{hJ} v``."""

    vector: np.ndarray
    dimension: int
    error_estimate: float
    converged: bool


class StandardKrylovMEVP:
    """MEVP via the standard Krylov subspace ``K_m(J, v)`` with ``J = -C^{-1}G``."""

    def __init__(
        self,
        C: sp.spmatrix,
        G: sp.spmatrix,
        lu_C: SparseLU,
        stats: Optional[MEVPStats] = None,
        max_dim: int = KRYLOV_MAX_DIM,
    ):
        self.C = C.tocsc()
        self.G = G.tocsc()
        self.lu_C = lu_C
        self.stats = stats
        self.max_dim = int(max_dim)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        if self.stats is not None:
            self.stats.num_operator_applications += 1
        return -self.lu_C.solve(np.asarray(self.G @ v).ravel())

    def expm_multiply(
        self,
        v: np.ndarray,
        h: float,
        tol: float = 1e-7,
        max_dim: Optional[int] = None,
    ) -> KrylovResult:
        """Approximate ``e^{hJ} v`` (Eq. 6) with a posterior error estimate.

        The error estimate combines the classic generalized-residual bound
        ``beta * h_{m+1,m} * |[e^{h H_m}]_{m,1}|`` (Saad 1992) with the norm
        difference between consecutive approximations.  The pure residual
        bound alone is unreliable on stiff Jacobians (it collapses to zero
        at tiny ``m`` during the "hump" phase), which is one symptom of the
        slow standard-Krylov convergence the paper discusses in Sec. IV.
        Iteration stops when the combined estimate drops below ``tol`` or
        the dimension limit is hit.
        """
        v = np.asarray(v, dtype=float).ravel()
        max_dim = self.max_dim if max_dim is None else int(max_dim)
        process = ArnoldiProcess(self._apply, v, max_dim=max_dim)
        beta = process.beta
        if beta == 0.0:
            result = KrylovResult(np.zeros_like(v), 0, 0.0, True)
            if self.stats is not None:
                self.stats.record(0, True)
            return result

        converged = False
        err = np.inf
        y = None
        previous_vector = None
        vector = np.zeros_like(v)
        min_dim = min(3, max_dim)
        while True:
            try:
                process.extend()
            except ArnoldiBreakdown:
                m = process.m
                y = expm_dense(h * process.hessenberg(m))[:, 0]
                vector = beta * process.basis(m) @ y[:m]
                err = 0.0
                converged = True
                break
            except RuntimeError:
                break
            m = process.m
            Hm = process.hessenberg(m)
            expHm = expm_dense(h * Hm)
            y = expHm[:, 0]
            vector = beta * process.basis(m) @ y[:m]
            residual_est = beta * abs(process.subdiagonal(m)) * abs(h) * abs(y[m - 1])
            if previous_vector is not None:
                diff_est = float(np.linalg.norm(vector - previous_vector))
            else:
                diff_est = np.inf
            previous_vector = vector
            err = max(residual_est, diff_est)
            if m >= min_dim and err <= tol:
                converged = True
                break
            if m >= max_dim:
                break

        m = process.m
        if self.stats is not None:
            self.stats.record(m, converged)
        return KrylovResult(vector=vector, dimension=m, error_estimate=float(err),
                            converged=converged)
