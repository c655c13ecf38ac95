"""Exponential Rosenbrock-Euler circuit integrator (ER and ER-C).

This is the paper's primary contribution (Sec. III + Algorithm 2), built on
the invert Krylov MEVP of Algorithm 1 (:mod:`repro.linalg.invert_krylov`).

One accepted step at state ``x_k``, time ``t``, step size ``h``:

1. evaluate the devices once: ``C_k, G_k, f_k`` (line 4 of Algorithm 2);
2. LU-factorize ``G_k`` -- the *only* factorization of the step (line 5);
3. form the two step vectors whose ``C_k^{-1}`` factors cancel against the
   phi-function denominators (the remark below Eq. 14 / Eq. 23):

   * ``p = G_k^{-1} (f_k - B u(t_k))`` giving
     ``h phi_1(hJ) g_k = (e^{hJ} - I) p``,
   * ``s = B du/dt|_{t_k}`` -- the analytic Eq. 13 slope, equal to
     ``B (u(t_k+h) - u(t_k)) / h`` for PWL inputs because the time loop
     never steps across a breakpoint, and bit-identical for every step
     inside one source segment -- ``g_s = G_k^{-1} s``,
     ``r = G_k^{-1} C_k g_s`` giving
     ``h^2 phi_2(hJ) b_k = (e^{hJ} - I) r + h g_s``;

   and build one invert-Krylov basis for each (line 6).  On linear
   circuits (the linearization cache's exact path) the slope terms
   ``(g_s, r)`` and the whole basis of ``r`` are reused for every further
   step inside the same source segment (the slope is constant there, per
   the remark below Eq. 14), evaluated at the Krylov dimension a fresh
   build would have picked so the reuse is bit-identical to rebuilding;
4. trial solution ``x_{k+1}(h) = x_k + (e^{hJ}-I) p + (e^{hJ}-I) r + h g_s``
   (Eq. 14, line 9);
5. evaluate the devices at ``x_{k+1}`` to get ``Delta F_k`` and the local
   nonlinear error estimator (Eq. 15/24)
   ``err = (e^{hJ} - I) w_e`` with ``w_e = -G_k^{-1} Delta F_k``
   (lines 10-11), requiring one more invert-Krylov basis;
6. optionally apply the phi_2 correction term (Eq. 16-17/25, lines 12-15)
   -- the ER-C variant -- which needs one further basis;
7. if ``||err||_inf`` exceeds the budget, shrink ``h`` by ``alpha`` and go
   back to step 4 *reusing the bases of step 3*: the step size only enters
   the small dense exponential ``e^{h H_m^{-1}}``, so no LU and no Arnoldi
   re-run is needed (lines 16-21) -- the property the paper contrasts with
   BENR, where every step-size change re-factorizes ``C/h + G``;
8. on acceptance, grow the next step by ``beta`` when the step needed no
   (or few) rejections (lines 22-25).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.linalg.invert_krylov import IKSBasis, InvertKrylovMEVP
from repro.linalg.sparse_lu import SparseLU

__all__ = ["ExponentialRosenbrockEuler"]


class ExponentialRosenbrockEuler(Integrator):
    """The ER / ER-C method of Algorithm 2 (correction selected via options)."""

    name = "ER"

    def __init__(self, mna, options=None):
        super().__init__(mna, options)
        if self.options.correction:
            self.name = "ER-C"
            self.stats.method = self.name
        #: (slope, g_s, r, basis_r, lu_G) of the current PWL source segment
        self._slope_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                          IKSBasis, SparseLU]] = None

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        self._slope_cache = None

    # -- helpers ------------------------------------------------------------------------

    def _build_basis(self, iks: InvertKrylovMEVP, vector: np.ndarray, h: float) -> IKSBasis:
        return iks.build(vector, h, tol=self.options.mevp_tol,
                         max_dim=self.options.krylov_max_dim)

    def _cached_slope_terms(self, slope: np.ndarray, lu_G: SparseLU):
        """Return the cached ``(g_s, r, basis_r)`` when still valid.

        Valid means: the linearization is a run constant (the cache's
        ``reuse_exact`` path, so ``lu_G`` is the same factorization
        object), and the slope vector is *bit-identical* to
        the cached one -- true for every step inside one PWL source
        segment because :meth:`~repro.circuit.mna.MNASystem.source_slope`
        is a constant of the segment.  Bit-identity plus deterministic
        Arnoldi makes the reuse produce exactly the vectors a fresh
        rebuild would.
        """
        if not self.cache.reuse_exact or self._slope_cache is None:
            return None
        c_slope, g_s, r, basis_r, c_lu = self._slope_cache
        if c_lu is not lu_G or not np.array_equal(slope, c_slope):
            return None
        return g_s, r, basis_r

    @staticmethod
    def _propagated_difference(basis: IKSBasis, vector: np.ndarray, h: float,
                               m: Optional[int] = None) -> np.ndarray:
        """Return ``(e^{hJ} - I) vector`` using the basis built from ``vector``."""
        if basis.is_zero:
            return np.zeros_like(vector)
        return basis.mevp(h, m) - vector

    # -- the step ----------------------------------------------------------------------------

    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        opts = self.options
        h_min = opts.resolved_h_min()

        # Line 4: linearize the circuit at x_k.
        ev = self.evaluate(x)
        self.stats.device_evaluations += 1
        f_k = ev.f

        # Line 5: the single LU factorization of the step -- G only, never C,
        # never C/h + G.  On linear circuits the cache makes this a reuse of
        # the one factorization of the run.
        lu_G = self.cache.lu(("G",), ev.G, stats=self.stats.lu,
                             max_factor_nnz=opts.max_factor_nnz, label="G")
        iks = InvertKrylovMEVP(ev.C, ev.G, lu_G, stats=self.stats.mevp,
                               max_dim=opts.krylov_max_dim)

        # Line 6: step vectors and their Krylov bases (reusable across h).
        p = lu_G.solve(f_k - self.source(t))
        basis_p = self._build_basis(iks, p, h)

        # The Eq. 13 slope of the excitation: for piecewise-linear sources
        # this is the analytic segment slope, constant (bit-identical)
        # inside one segment -- which the segment-slope basis reuse below
        # depends on; smooth sources contribute the per-step secant.
        slope = self.mna.source_slope(t, t + h)
        reused_r = False
        if np.linalg.norm(slope) > 0.0:
            cached = self._cached_slope_terms(slope, lu_G)
            if cached is not None:
                # Same PWL segment: the slope vector is constant, so g_s, r
                # and the whole invert-Krylov basis of r carry over.
                g_s, r, basis_r = cached
                reused_r = True
                self.stats.mevp.num_basis_reuses += 1
            else:
                g_s = lu_G.solve(slope)
                r = lu_G.solve(np.asarray(ev.C @ g_s).ravel())
                basis_r = self._build_basis(iks, r, h)
                if self.cache.reuse_exact:
                    self._slope_cache = (slope, g_s, r, basis_r, lu_G)
        else:
            g_s = np.zeros_like(x)
            r = np.zeros_like(x)
            basis_r = None

        krylov_dims = [basis_p.dimension]
        if basis_r is not None and not reused_r:
            krylov_dims.append(basis_r.dimension)
        reused_m: Optional[int] = None
        reused_conv = True

        rejections = 0
        h_try = h
        while True:
            # Line 9: Eq. 14 evaluated at the current step size, reusing the
            # bases (only the small dense exponential depends on h).
            basis_p.ensure_converged(h_try, opts.mevp_tol, max_dim=opts.krylov_max_dim)
            term1 = self._propagated_difference(basis_p, p, h_try)
            if basis_r is not None:
                if reused_r:
                    # Evaluate at the dimension a fresh build would have
                    # chosen for this (h, tol): with a bit-identical start
                    # vector the reuse is then bit-identical to rebuilding.
                    m_r = basis_r.minimal_converged_dimension(
                        h_try, opts.mevp_tol, max_dim=opts.krylov_max_dim)
                    reused_m = m_r
                    # mirror what a fresh build would have reported
                    reused_conv = basis_r.residual_norm(h_try, m_r) <= opts.mevp_tol
                    term2 = self._propagated_difference(basis_r, r, h_try, m_r) \
                        + h_try * g_s
                else:
                    basis_r.ensure_converged(h_try, opts.mevp_tol,
                                             max_dim=opts.krylov_max_dim)
                    term2 = self._propagated_difference(basis_r, r, h_try) + h_try * g_s
            else:
                term2 = np.zeros_like(x)
            x_new = x + term1 + term2

            if not np.all(np.isfinite(x_new)):
                raise ConvergenceError(
                    f"ER step produced a non-finite state at t={t:g}"
                )

            # Lines 10-11: Delta F and the nonlinear error estimator (Eq. 24).
            # Linear fast path: f is linear, so Delta F is *identically*
            # zero -- the estimator, the Eq. 25 correction and the device
            # re-evaluation they would consume are skipped outright.
            if self.mna.has_nonlinear:
                ev_new = self.evaluate(x_new)
                self.stats.device_evaluations += 1
                delta_f = np.asarray(ev.G @ (x_new - x)).ravel() - (ev_new.f - f_k)
            else:
                delta_f = np.zeros_like(x)
            if self.mna.has_nonlinear and np.linalg.norm(delta_f) > 0.0:
                w_e = -lu_G.solve(delta_f)
                basis_e = self._build_basis(iks, w_e, h_try)
                krylov_dims.append(basis_e.dimension)
                err_vec = self._propagated_difference(basis_e, w_e, h_try)
                err_norm = float(np.max(np.abs(err_vec)))
            else:
                w_e = np.zeros_like(x)
                err_norm = 0.0

            # Lines 12-15: ER-C correction term (Eq. 25), reusing Delta F.
            if opts.correction and np.linalg.norm(delta_f) > 0.0:
                c = -lu_G.solve(np.asarray(ev.C @ w_e).ravel())
                basis_c = self._build_basis(iks, c, h_try)
                krylov_dims.append(basis_c.dimension)
                # phi2_term equals h * phi_2(hJ) C^{-1} Delta F, so the
                # correction D_k of Eq. 16 is gamma * phi2_term.
                phi2_term = (self._propagated_difference(basis_c, c, h_try) / h_try) - w_e
                x_new = x_new - opts.gamma * phi2_term

            # Line 16: accept or shrink.
            if err_norm <= opts.err_budget:
                break
            rejections += 1
            if rejections > opts.max_rejections or h_try * opts.alpha < h_min:
                raise ConvergenceError(
                    f"ER error control rejected the step {rejections} times at t={t:g} "
                    f"(last error {err_norm:.3e}, budget {opts.err_budget:.3e})"
                )
            h_try *= opts.alpha

        if reused_r and reused_m is not None:
            # one MEVP evaluation was served from the reused basis this
            # step: record the dimension actually used (not the cached
            # basis's accumulated size) with the fresh-build convergence
            # verdict, so statistics match an uncached run
            self.stats.mevp.record(reused_m, reused_conv)
            krylov_dims.insert(1, reused_m)

        # Lines 22-25: grow the next step after easy steps.  On top of the
        # paper's rejection-count test we require the error to sit well below
        # the budget (grow_error_fraction) so the controller does not
        # oscillate between growing and rejecting every other step.
        if (rejections < opts.grow_when_rejections_below
                and err_norm <= opts.grow_error_fraction * opts.err_budget):
            h_next = opts.beta * h_try
        else:
            h_next = h_try

        record = StepRecord(
            t=t + h_try, h=h_try, rejections=rejections,
            krylov_dimensions=krylov_dims, error_estimate=err_norm,
        )
        return StepOutcome(x=x_new, h_used=h_try, h_next=h_next, record=record)
