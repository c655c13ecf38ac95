"""Backward Euler with Newton-Raphson (BENR) -- the paper's baseline.

One accepted step solves the implicit system (paper Eq. 2)

.. math::

    \\frac{q(x_{k+1}) - q(x_k)}{h_k} + f(x_{k+1}) = B u(t_{k+1})

by Newton-Raphson, where every iteration LU-factorizes the combination
``C(x)/h + G(x)`` (Eq. 3).  This is exactly the cost structure the paper
argues against for strongly coupled post-layout circuits:

* at least one factorization of ``C/h + G`` per Newton iteration, so two or
  more per step;
* the step size ``h`` is baked into the factored matrix, so every step-size
  change (local truncation error control) forces a refactorization;
* the fill-in of ``C/h + G`` is driven by the coupling pattern of ``C``.

Local truncation error is controlled with the classic divided-difference
estimate of ``x''`` and the standard asymptotic step controller
(:class:`~repro.integrators.implicit.ImplicitNR`).
"""

from __future__ import annotations

import numpy as np

from repro.integrators.implicit import ImplicitNR

__all__ = ["BackwardEulerNR"]


class BackwardEulerNR(ImplicitNR):
    """Backward Euler + Newton-Raphson with LTE-based adaptive stepping."""

    name = "BENR"
    EXPONENT = -0.5

    # own class body: the perfbench tracer wraps each registry class's advance
    advance = ImplicitNR.advance

    def _newton_system(self, ev_k, t):
        q_k = ev_k.q

        def system(h):
            bu = self.source(t + h)
            return (("benr", h), "C/h+G",
                    lambda ev: (ev.q - q_k) / h + ev.f - bu,
                    lambda ev: (ev.C / h + ev.G).tocsc())
        return system

    def _error_ratio(self, x: np.ndarray, x_new: np.ndarray,
                     predictor: np.ndarray, h: float) -> float:
        """Weighted LTE of backward Euler: ``(h^2/2) x''`` by divided differences.

        Returns the error measured in units of the tolerance (<= 1 accepts).
        On the very first step there is no history and the step is accepted.
        """
        if self._x_prev is None or self._h_prev is None:
            return 0.0
        dxdt_new = (x_new - x) / h
        dxdt_old = (x - self._x_prev) / self._h_prev
        second_derivative = 2.0 * (dxdt_new - dxdt_old) / (h + self._h_prev)
        lte = 0.5 * h * h * second_derivative
        return self.weighted_norm(lte, x_new, self.options.lte_abstol, self.options.lte_reltol)
