"""The implicit Newton step shared by BENR, TR and Gear2.

The three classic implicit baselines (paper Sec. II-A) differ only in the
discretization of ``dq/dt``.  Everything the paper's cost argument is
about (Eq. 2-3) is common to them and lives here once:

* a linear-extrapolation predictor from the previous accepted step;
* a Newton-Raphson solve whose Jacobian ``a C/h + b G`` is factorized
  through the :class:`~repro.core.workspace.LinearizationCache` -- on every
  Newton iteration and every step-size change;
* a Newton failure shrinks ``h`` by ``ALPHA`` and retries, an LTE failure
  shrinks it by the asymptotic controller, both snapped onto the step
  ladder when it is on (:meth:`Integrator.snap_retry`);
* the next-step proposal ``h * SAFETY * err**EXPONENT`` bounded by
  ``MIN_FACTOR`` / ``MAX_FACTOR``.

A scheme supplies its Newton system (:meth:`ImplicitNR._newton_system`),
its error estimate (:meth:`ImplicitNR._error_ratio`, by default the
predictor-corrector difference) and its controller ``EXPONENT``.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, Optional

import numpy as np

from repro.circuit.mna import EvalResult
from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.integrators.newton import NewtonSolver

__all__ = ["ImplicitNR"]


class ImplicitNR(Integrator):
    """Adaptive implicit step: predictor, Newton solve, LTE control."""

    #: safety factor of the asymptotic step controller
    SAFETY = 0.9
    #: bounds on the per-step growth/shrink ratio
    MIN_FACTOR = 0.2
    MAX_FACTOR = 2.0
    #: controller exponent ``-1/(order+1)`` of the scheme's error estimate
    EXPONENT: float

    def __init__(self, mna, options=None):
        super().__init__(mna, options)
        self._x_prev: Optional[np.ndarray] = None
        self._q_prev: Optional[np.ndarray] = None
        self._h_prev: Optional[float] = None

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        self._x_prev = None
        self._q_prev = None
        self._h_prev = None

    # -- the scheme --------------------------------------------------------------------

    @abstractmethod
    def _newton_system(self, ev_k: EvalResult, t: float) -> Callable:
        """Return ``system(h)`` for steps of size ``h`` from ``(t, x_k)``.

        ``system(h)`` gives ``(jac_key, label, residual, jacobian)``: the
        cache key and label of the Jacobian, and the residual and Jacobian
        of the implicit equation as functions of an evaluation ``ev``.
        ``ev_k`` is the evaluation at ``x_k``; the previous accepted step
        is in ``_x_prev`` / ``_q_prev`` / ``_h_prev`` (None on the first).
        """

    def _error_ratio(self, x: np.ndarray, x_new: np.ndarray,
                     predictor: np.ndarray, h: float) -> float:
        """Predictor-corrector difference in tolerance units (<= 1 accepts).

        The first step of a run has no predictor history and is accepted.
        """
        if self._x_prev is None:
            return 0.0
        opts = self.options
        return self.weighted_norm(
            x_new - predictor, x_new, opts.lte_abstol, opts.lte_reltol
        )

    # -- one Newton solve ----------------------------------------------------------------

    def _solve(self, system: tuple, guess: np.ndarray):
        jac_key, label, residual, jacobian = system

        def residual_jacobian(y):
            ev = self.evaluate(y)
            self.stats.device_evaluations += 1
            # linear circuits: the a C/h + b G combination is a constant of
            # the key, assembled (and factorized) once per distinct step size
            return residual(ev), self.cache.matrix(jac_key, lambda: jacobian(ev))

        solver = NewtonSolver(
            self.mna, lu_stats=self.stats.lu,
            max_factor_nnz=self.options.max_factor_nnz,
            factorizer=self.cached_factorizer(jac_key),
        )
        return solver.solve(guess, residual_jacobian, label=label)

    # -- the step ----------------------------------------------------------------------------

    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        opts = self.options
        h_min = opts.resolved_h_min()
        ev_k = self.evaluate(x)
        self.stats.device_evaluations += 1
        system = self._newton_system(ev_k, t)

        rejections = 0
        newton_total = 0
        h_try = h
        while True:
            # predictor: linear extrapolation when history exists
            if self._x_prev is not None and self._h_prev:
                predictor = x + h_try * (x - self._x_prev) / self._h_prev
            else:
                predictor = np.array(x, copy=True)

            newton = self._solve(system(h_try), predictor)
            newton_total += newton.iterations
            if not newton.converged:
                rejections += 1
                h_try = self.snap_retry(h_try * self.ALPHA)
                if h_try < h_min or rejections > self.MAX_REJECTIONS:
                    raise ConvergenceError(
                        f"{self.name} Newton iteration failed to converge at t={t:g} "
                        f"(h reduced to {h_try:g})"
                    )
                continue

            x_new = newton.x
            error_ratio = self._error_ratio(x, x_new, predictor, h_try)
            if error_ratio <= 1.0:
                break
            rejections += 1
            if rejections > self.MAX_REJECTIONS:
                raise ConvergenceError(
                    f"{self.name} step control rejected the step {rejections} "
                    f"times at t={t:g}"
                )
            factor = max(self.MIN_FACTOR, self.SAFETY * error_ratio ** self.EXPONENT)
            h_try = self.snap_retry(max(h_try * factor, h_min))

        # next-step suggestion from the asymptotic controller
        if error_ratio > 0.0:
            factor = min(self.MAX_FACTOR,
                         max(self.MIN_FACTOR, self.SAFETY * error_ratio ** self.EXPONENT))
        else:
            factor = self.MAX_FACTOR
        h_next = h_try * factor

        self._x_prev = np.array(x, copy=True)
        self._q_prev = np.array(ev_k.q, copy=True)
        self._h_prev = h_try

        record = StepRecord(
            t=t + h_try, h=h_try, rejections=rejections,
            newton_iterations=newton_total, error_estimate=float(error_ratio),
        )
        return StepOutcome(x=x_new, h_used=h_try, h_next=h_next, record=record)
