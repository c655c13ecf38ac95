"""Exponential Rosenbrock-Euler circuit integrator (ER and ER-C).

This is the paper's primary contribution (Sec. III + Algorithm 2), built on
the invert Krylov MEVP of Algorithm 1 (:mod:`repro.linalg.invert_krylov`).

One accepted step at state ``x_k``, time ``t``, step size ``h``:

1. evaluate the devices once: ``C_k, G_k, f_k`` (line 4 of Algorithm 2);
2. LU-factorize ``G_k`` -- the *only* factorization of the step (line 5);
3. form the step vectors whose ``C_k^{-1}`` factors cancel against the
   phi-function denominators (the remark below Eq. 14 / Eq. 23):

   * ``p = G_k^{-1} (f_k - B u(t_k))`` giving
     ``h phi_1(hJ) g_k = (e^{hJ} - I) p``,
   * ``s = B du/dt|_{t_k}`` -- the analytic Eq. 13 slope, equal to
     ``B (u(t_k+h) - u(t_k)) / h`` for PWL inputs because the time loop
     never steps across a breakpoint -- ``g_s = G_k^{-1} s``,
     ``r = G_k^{-1} C_k g_s`` giving
     ``h^2 phi_2(hJ) b_k = (e^{hJ} - I) r + h g_s``;

   both ``p`` and ``r`` are propagated by the same ``e^{hJ} - I``, so one
   invert-Krylov basis is built for their sum ``q = p + r`` (line 6).
   Its convergence sweep -- like that of the error basis below -- is
   warm-started two dimensions below the dimension the same vector's
   basis converged at on the previous build, and checks every dimension
   from there (the first build of a run sweeps cold, see
   :meth:`IKSBasis.ensure_converged`);
4. trial solution ``x_{k+1}(h) = x_k + (e^{hJ}-I) q + h g_s``
   (Eq. 14, line 9);
5. evaluate the devices at ``x_{k+1}`` to get ``Delta F_k`` and the local
   nonlinear error estimator (Eq. 15/24)
   ``err = (e^{hJ} - I) w_e`` with ``w_e = -G_k^{-1} Delta F_k``
   (lines 10-11), requiring one more invert-Krylov basis;
6. for ER-C (method ``"er-c"``) add the phi_2 correction term
   (Eq. 16-17/25, lines 12-15) from the error basis of step 5 -- no
   further solve and no further basis (derivation below);
7. if ``||err||_inf`` exceeds the budget, shrink ``h`` by ``alpha`` and go
   back to step 4 *reusing the basis of step 3*: the step size only enters
   the small dense exponential ``e^{h H_m^{-1}}``, so no LU and no Arnoldi
   re-run is needed (lines 16-21) -- the property the paper contrasts with
   BENR, where every step-size change re-factorizes ``C/h + G``;
8. on acceptance, grow the next step by ``beta`` when the step needed no
   (or few) rejections (lines 22-25).

The ER-C correction.  With the nonlinear remainder
``Delta F(x) = G_k (x - x_k) - (f(x) - f_k)`` (Eq. 16) the circuit
equation ``C x' = -f(x) + B u`` reads exactly

    x' = J (x - x_k) + C^{-1} (B u - f_k) + C^{-1} Delta F(x).

ER drops the last term.  ER-C takes it as linear in time over the step,
``Delta F(t_k + s) ~ (s / h) Delta F_k`` with
``Delta F_k = Delta F(x_{k+1})`` (Eq. 17), and variation of constants
adds

    int_0^h e^{(h-s)J} C^{-1} (s/h) Delta F_k ds = h phi_2(hJ) C^{-1} Delta F_k

to the ER solution -- with a plus sign, as the remainder enters the
equation above.  The vector ``w_e = -G_k^{-1} Delta F_k`` of the error
estimate satisfies ``J w_e = C^{-1} Delta F_k`` (``J = -C^{-1} G_k``),
and ``phi_1(z) = 1 + z phi_2(z)`` gives

    h phi_2(hJ) C^{-1} Delta F_k = (phi_1(hJ) - I) w_e
                                 = h phi_1(hJ) w_e / h - w_e,

where ``h phi_1(hJ) w_e`` comes from the error basis built on ``w_e`` in
the projected space (:meth:`IKSBasis.phi1_times`).  So one vector, one
basis, gives both the Eq. 24 estimate and the Eq. 25 correction, applied
as ``x_{k+1} += gamma * phi2_term`` (``gamma = 0.1`` in the paper).  The
sign and the phi_2 weight are those of the exponential Rosenbrock
schemes of Hochbruck, Ostermann & Schweitzer (SIAM J. Numer. Anal. 2009).

Linear circuits with piecewise-linear inputs: superposition.  With no
nonlinear device and every input piecewise linear (PWL, PULSE, DC) the
solution is known in closed form -- the MATEX decomposition of the
paper's linear predecessor (Zhuang, Weng, Lin & Cheng, DAC 2014):

    x(t) = G^{-1} B u(t0) + e^{(t - t0) J} d
           + sum_i sum_j ds_ij R_i(t - tau_ij),

with ``d = x0 - G^{-1} B u(t0)`` (zero up to rounding after a DC
solve, the ``.ic`` offset of a UIC start), ``ds_ij`` the change of input
``i``'s Eq. 13 slope at ``tau_ij`` and ``R_i(t) = (e^{tJ} - I) r_i + t g_i``
its unit-ramp response, ``g_i = G^{-1} b_i`` and ``r_i = G^{-1} C g_i``.
Every term of input ``i`` is propagated by one invert-Krylov basis on
``r_i``, built at the input's first nonzero slope and extended only when
a later time needs more dimensions; ``d`` gets one more when
``max|d|`` exceeds ``mevp_tol``, the state-units tolerance every basis
converges to (after a DC start ``d`` is solver rounding, far below it).
The step loop, its time points and lines 4-5 of Algorithm 2 are those
of stepping ER (``Delta F`` is identically zero, so every step is
accepted and the next one grows by ``beta``); only ``x(t + h)`` comes
from the sum instead of from Eq. 14.  Each input's basis converges on
the Eq. 22 residual of its combined response
(:class:`~repro.linalg.invert_krylov.Lags`), in state units against
``mevp_tol``.  The exact ``J`` of a passive circuit has no
growing mode, so a basis accepted with one (``Re lambda(H_m^{-1}) > 0``)
carries a projection artefact that a long lag would amplify: the run
then continues from its current state with Eq. 14 stepping, as it does
when a basis reaches the dimension cap unconverged.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.linalg.invert_krylov import IKSBasis, InvertKrylovMEVP, Lags

__all__ = ["ExponentialRosenbrockEuler"]


class _Response:
    """One propagated vector of the superposition and its lag set."""

    def __init__(self, vector: np.ndarray):
        #: the vector until its basis is built (then ``beta V_m e_1``)
        self.vector: Optional[np.ndarray] = vector
        self.lags = Lags()
        #: invert-Krylov basis on the vector, built at its first evaluation
        #: (never for a zero vector, whose propagation is zero)
        self.basis: Optional[IKSBasis] = None
        self.is_zero = not np.any(vector)


class _Superposition:
    """The closed-form linear PWL solution of the module docstring.

    Built at the first step from that step's ``G`` factorization.
    :meth:`advance` returns ``x(t + h)`` and the dimensions of the bases it
    evaluated, or None when a basis cannot serve ``t + h`` (the caller
    then steps).
    """

    def __init__(self, mna, iks: InvertKrylovMEVP, x0: np.ndarray, t0: float,
                 tol: float):
        self.mna = mna
        self.iks = iks
        self.tol = tol
        self.x_dc = iks.lu_G.solve(mna.source_vector(t0))
        #: per input: the Eq. 13 slope of the last step, and
        #: ``sum_j ds_j (t - tau_j)`` over its ramp terms
        self.slopes = np.zeros(max(mna.num_inputs, 1))
        self.ramps = np.zeros_like(self.slopes)
        #: per input, from its first nonzero slope on: ``(g_i, response on r_i)``
        self.inputs: Dict[int, Tuple[np.ndarray, _Response]] = {}
        #: ``e^{(t - t0) J} d``; None when ``max|d| <= tol`` (after a DC
        #: start ``d`` is solver rounding)
        self.offset: Optional[_Response] = None
        #: largest basis dimension so far: the initial storage of the next
        #: basis, and the storage every basis is trimmed to at most
        self.capacity = 0
        d = np.asarray(x0, dtype=float) - self.x_dc
        if np.max(np.abs(d), initial=0.0) > tol:
            self.offset = _Response(d)
            self.offset.lags.add(t0, 1.0)

    def _evaluate(self, response: _Response, t: float) -> Optional[np.ndarray]:
        """Return ``sum_j w_j e^{(t - tau_j) J} v`` for ``response``; None
        when its basis is accepted unconverged or with a growing mode."""
        lags = response.lags.at(t)
        basis = response.basis
        if basis is None:
            # the inputs of one circuit converge at similar dimensions: the
            # sweep starts near the largest basis so far, and storage for
            # it spares most growth copies (and the later extensions of the
            # smaller ones)
            start = max(1, self.capacity - ExponentialRosenbrockEuler.WARM_START_BACKOFF)
            basis = response.basis = self.iks.build(
                response.vector, lags, tol=self.tol, start=start,
                capacity=self.capacity)
            response.vector = None
            self.capacity = max(self.capacity, basis.dimension)
        else:
            basis.ensure_converged(lags, self.tol, start=basis.dimension)
            self.iks.stats.record(basis.dimension, basis.converged)
            self.iks.stats.num_basis_reuses += 1
        basis.trim(self.capacity)
        if not basis.converged or basis.has_growing_mode():
            return None
        return basis.mevp(lags)

    def advance(self, t: float, h: float):
        t_new = t + h
        lu_G = self.iks.lu_G
        slopes = self.mna.input_slopes(t, t_new)
        for i in np.flatnonzero(slopes != self.slopes):
            if i not in self.inputs:
                g = lu_G.solve(self.mna.B[:, [i]].toarray().ravel())
                r = lu_G.solve(np.asarray(self.iks.C @ g).ravel())
                self.inputs[i] = (g, _Response(r))
            self.inputs[i][1].lags.add(t, slopes[i] - self.slopes[i])
        self.slopes = slopes
        self.ramps = self.ramps + slopes * h

        x = self.x_dc.copy()
        dims = []
        responses = [] if self.offset is None else [(0.0, self.offset)]
        for i, (g, response) in self.inputs.items():
            x += self.ramps[i] * g
            responses.append((slopes[i], response))
        for slope, response in responses:
            if response.is_zero:
                continue
            propagated = self._evaluate(response, t_new)
            if propagated is None:
                return None
            x += propagated
            if slope:
                # the -I of sum_j ds_j (e^{(t - tau_j) J} - I) r_i
                x -= slope * response.basis.start_vector()
            dims.append(response.basis.dimension)
        return x, dims


class ExponentialRosenbrockEuler(Integrator):
    """The ER / ER-C method of Algorithm 2.

    ``correction=True`` selects ER-C; :class:`TransientSimulator` sets it
    from the method name (``"er-c"`` / ``"erc"``).
    """

    name = "ER"

    #: a warm sweep starts this many dimensions below the previous build's
    #: converged dimension, so a basis that converges at its first check
    #: lowers the next start and an overshoot corrects itself
    WARM_START_BACKOFF = 2

    def __init__(self, mna, options=None, correction: bool = False):
        super().__init__(mna, options)
        #: apply the Eq. 25 correction term (the ER-C method)
        self.correction = correction
        if correction:
            self.name = "ER-C"
            self.stats.method = self.name
        #: converged dimension of the last basis built per step vector:
        #: ``q`` (Eq. 14) and ``e`` (Eq. 24 error, also the Eq. 25 correction)
        self._last_dim: dict = {}
        #: whether the run is still solved by superposition (module
        #: docstring), and its state once the first step has built it
        self._superpose = False
        self._superposition: Optional[_Superposition] = None

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        self._last_dim = {}
        self._superpose = not self.mna.has_nonlinear and all(
            w.is_piecewise_linear for w in self.mna.waveforms)
        self._superposition = None

    # -- helpers ------------------------------------------------------------------------

    def _build_basis(self, iks: InvertKrylovMEVP, role: str, vector: np.ndarray,
                     h: float) -> IKSBasis:
        start = max(1, self._last_dim.get(role, 1) - self.WARM_START_BACKOFF)
        basis = iks.build(vector, h, tol=self.options.mevp_tol, start=start)
        self._last_dim[role] = basis.dimension
        return basis

    @staticmethod
    def _propagated_difference(basis: IKSBasis, vector: np.ndarray, h: float) -> np.ndarray:
        """Return ``(e^{hJ} - I) vector`` using the basis built from ``vector``."""
        if basis.is_zero:
            return np.zeros_like(vector)
        return basis.mevp(h) - vector

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
        iks = InvertKrylovMEVP(ev.C, ev.G, lu_G, stats=self.stats.mevp)

        if self._superpose:
            if self._superposition is None:
                self._superposition = _Superposition(self.mna, iks, x, t, opts.mevp_tol)
            superposed = self._superposition.advance(t, h)
            if superposed is not None:
                x_new, krylov_dims = superposed
                if not np.all(np.isfinite(x_new)):
                    raise ConvergenceError(
                        f"ER superposition produced a non-finite state at t={t:g}"
                    )
                # Delta F is identically zero: no rejection, and the step
                # grows by beta exactly as a stepping ER step would
                record = StepRecord(t=t + h, h=h, krylov_dimensions=krylov_dims)
                return StepOutcome(x=x_new, h_used=h, h_next=self.BETA * h,
                                   record=record)
            # a basis cannot serve t + h: Eq. 14 stepping from x on
            self._superpose = False
            self._superposition = None

        # Line 6: the step vector q = p + r and its Krylov basis (reusable
        # across h).  The Eq. 13 slope of the excitation: for piecewise-linear
        # sources this is the analytic segment slope; smooth sources
        # contribute the per-step secant.
        q = lu_G.solve(f_k - self.source(t))
        slope = self.mna.source_slope(t, t + h)
        if np.linalg.norm(slope) > 0.0:
            g_s = lu_G.solve(slope)
            q += lu_G.solve(np.asarray(ev.C @ g_s).ravel())
        else:
            g_s = np.zeros_like(x)
        basis_q = self._build_basis(iks, "q", q, h)
        krylov_dims = [basis_q.dimension]

        rejections = 0
        h_try = h
        while True:
            # Line 9: Eq. 14 evaluated at the current step size, reusing the
            # basis (only the small dense exponential depends on h).
            x_new = x + self._propagated_difference(basis_q, q, h_try) + h_try * g_s

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
                basis_e = self._build_basis(iks, "e", w_e, h_try)
                krylov_dims.append(basis_e.dimension)
                err_vec = self._propagated_difference(basis_e, w_e, h_try)
                err_norm = float(np.max(np.abs(err_vec)))
            else:
                w_e = np.zeros_like(x)
                err_norm = 0.0

            # Lines 12-15: ER-C correction term (Eq. 25) from the error
            # basis: phi2_term equals h * phi_2(hJ) C^{-1} Delta F (module
            # docstring), added with the sign of its derivation.
            if self.correction and np.linalg.norm(delta_f) > 0.0:
                phi2_term = basis_e.phi1_times(h_try, w_e) / h_try - w_e
                x_new = x_new + opts.gamma * phi2_term

            # Line 16: accept or shrink.
            if err_norm <= opts.err_budget:
                break
            rejections += 1
            if rejections > self.MAX_REJECTIONS or h_try * self.ALPHA < h_min:
                raise ConvergenceError(
                    f"ER error control rejected the step {rejections} times at t={t:g} "
                    f"(last error {err_norm:.3e}, budget {opts.err_budget:.3e})"
                )
            h_try *= self.ALPHA
            # The basis converged at the old h; check it at the new one from
            # its current dimension on, extending only if it falls short.
            basis_q.ensure_converged(h_try, opts.mevp_tol, start=basis_q.dimension)

        # Lines 22-25: grow the next step after easy steps.  On top of the
        # paper's rejection-count test we require the error to sit well below
        # the budget (GROW_ERROR_FRACTION) so the controller does not
        # oscillate between growing and rejecting every other step.
        if (rejections < self.GROW_WHEN_REJECTIONS_BELOW
                and err_norm <= self.GROW_ERROR_FRACTION * opts.err_budget):
            h_next = self.BETA * h_try
        else:
            h_next = h_try

        record = StepRecord(
            t=t + h_try, h=h_try, rejections=rejections,
            krylov_dimensions=krylov_dims, error_estimate=err_norm,
        )
        return StepOutcome(x=x_new, h_used=h_try, h_next=h_next, record=record)
