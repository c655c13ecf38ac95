"""Prior-work exponential integrator using the *standard* Krylov subspace.

This integrator represents the earlier matrix-exponential circuit
simulators the paper improves upon (Weng et al. [20], Chen et al. [17]):
the exponential Rosenbrock-Euler update is evaluated with MEVPs computed
in the standard Krylov subspace ``K_m(J, v)`` with ``J = -C^{-1} G``
(Eq. 5-6), which requires

* a factorization of the capacitance matrix ``C`` at every step (instead of
  the much sparser ``G``), and
* a non-singular ``C`` -- circuits with singular MNA capacitance matrices
  are epsilon-regularized first (the step the paper calls time-consuming
  and impractical for large designs).

The phi-function products are evaluated directly in the projected space,
``h^j phi_j(hJ) v  ≈  beta h^j V_m phi_j(h H_m) e_1``, so no ``G``
factorization is needed either; the cost profile is therefore a clean
mirror image of the ER method and the two can be compared head-to-head in
ablation benchmark A.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.linalg.arnoldi import ArnoldiBreakdown, ArnoldiProcess
from repro.linalg.krylov import KRYLOV_MAX_DIM
from repro.linalg.phi import expm_dense, phi_times_vector
from repro.linalg.regularization import epsilon_regularize
from repro.linalg.sparse_lu import SparseLU

__all__ = ["StandardKrylovExponential"]


class _StdKrylovPhi:
    """Projected ``h^j phi_j(hJ) v`` products in one standard Krylov basis."""

    def __init__(self, G, lu_C: SparseLU, v: np.ndarray, stats):
        self._G = G
        self._lu_C = lu_C
        self._stats = stats
        self._process = ArnoldiProcess(self._apply, v, max_dim=KRYLOV_MAX_DIM)
        self.beta = self._process.beta

    def _apply(self, w: np.ndarray) -> np.ndarray:
        if self._stats is not None:
            self._stats.num_operator_applications += 1
        return -self._lu_C.solve(np.asarray(self._G @ w).ravel())

    @property
    def dimension(self) -> int:
        return self._process.m

    def converge(self, h: float, tol: float) -> bool:
        """Grow the basis until the standard posterior estimate is below tol."""
        if self.beta == 0.0:
            return True
        process = self._process
        while True:
            try:
                process.extend()
            except ArnoldiBreakdown:
                return True
            except RuntimeError:
                return False
            m = process.m
            y = expm_dense(h * process.hessenberg(m))[:, 0]
            err = self.beta * abs(process.subdiagonal(m)) * abs(h) * abs(y[m - 1])
            if err <= tol:
                return True
            if m >= process.max_dim:
                return False

    def phi_product(self, h: float, order: int) -> np.ndarray:
        """Return ``h^order * phi_order(hJ) v``."""
        if self.beta == 0.0:
            return np.zeros(self._process.n)
        m = self._process.m
        e1 = np.zeros(m)
        e1[0] = 1.0
        small = phi_times_vector(h * self._process.hessenberg(m), e1, order)
        return (h ** order) * self.beta * (self._process.basis(m) @ small)


class StandardKrylovExponential(Integrator):
    """Exponential Rosenbrock-Euler update with standard-Krylov MEVPs."""

    name = "EXPM-STD"

    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        opts = self.options
        h_min = opts.resolved_h_min()

        ev = self.evaluate(x)
        self.stats.device_evaluations += 1
        f_k = ev.f

        # The standard Krylov subspace needs C^{-1}: regularize if singular
        # and factorize C (this is the per-step cost the paper removes).  The
        # pseudo-capacitance must be kept relatively large (1e-2 of the
        # largest capacitance): a smaller value leaves artificial modes so
        # fast that the projected matrix exponential overflows through its
        # non-normal transient hump.  The price is a visible perturbation of
        # the fast dynamics -- exactly the accuracy/robustness trade-off of
        # the regularization step the invert Krylov method removes (Sec. IV).
        def build_c_reg():
            eps = 1e-2 * float(np.abs(ev.C.data).max()) if ev.C.nnz else 1e-18
            return epsilon_regularize(ev.C, epsilon=eps)

        C_reg = self.cache.matrix(("C_reg",), build_c_reg)
        lu_C = self.cache.lu(("C_reg",), C_reg, stats=self.stats.lu,
                             max_factor_nnz=opts.max_factor_nnz,
                             label="C (regularized)")

        g_k = lu_C.solve(self.source(t) - f_k)
        slope = self.mna.source_difference(t, t + h) / h
        b_k = lu_C.solve(slope)

        basis_g = _StdKrylovPhi(ev.G, lu_C, g_k, self.stats.mevp)
        basis_b = _StdKrylovPhi(ev.G, lu_C, b_k, self.stats.mevp)

        rejections = 0
        h_try = h
        while True:
            converged = basis_g.converge(h_try, opts.mevp_tol)
            converged &= basis_b.converge(h_try, opts.mevp_tol)
            if not converged:
                raise ConvergenceError(
                    f"standard Krylov MEVP did not converge within "
                    f"{KRYLOV_MAX_DIM} dimensions at t={t:g} (stiff C); "
                    "this is the failure mode the invert Krylov subspace avoids"
                )
            term1 = basis_g.phi_product(h_try, 1)
            term2 = basis_b.phi_product(h_try, 2)
            x_new = x + term1 + term2
            if not np.all(np.isfinite(x_new)):
                raise ConvergenceError(
                    f"EXPM-STD step produced a non-finite state at t={t:g}"
                )

            ev_new = self.evaluate(x_new)
            self.stats.device_evaluations += 1
            delta_f = np.asarray(ev.G @ (x_new - x)).ravel() - (ev_new.f - f_k)
            if self.mna.has_nonlinear and np.linalg.norm(delta_f) > 0.0:
                basis_e = _StdKrylovPhi(ev.G, lu_C, lu_C.solve(delta_f),
                                        self.stats.mevp)
                basis_e.converge(h_try, opts.mevp_tol)
                err_vec = basis_e.phi_product(h_try, 1)
                err_norm = float(np.max(np.abs(err_vec)))
                self.stats.mevp.record(basis_e.dimension, True)
            else:
                err_norm = 0.0

            if err_norm <= opts.err_budget:
                break
            rejections += 1
            if rejections > self.MAX_REJECTIONS or h_try * self.ALPHA < h_min:
                raise ConvergenceError(
                    f"EXPM-STD error control rejected the step {rejections} times at t={t:g}"
                )
            h_try *= self.ALPHA

        self.stats.mevp.record(basis_g.dimension, True)
        self.stats.mevp.record(basis_b.dimension, True)

        if rejections < self.GROW_WHEN_REJECTIONS_BELOW:
            h_next = self.BETA * h_try
        else:
            h_next = h_try

        record = StepRecord(
            t=t + h_try, h=h_try, rejections=rejections,
            krylov_dimensions=[basis_g.dimension, basis_b.dimension],
            error_estimate=err_norm,
        )
        return StepOutcome(x=x_new, h_used=h_try, h_next=h_next, record=record)
