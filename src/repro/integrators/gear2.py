"""Gear's second-order method (BDF2) with Newton-Raphson.

The third low-order implicit scheme of Sec. II-A.  Variable-step BDF2
coefficients are used: with the step ratio ``rho = h_k / h_{k-1}``,

.. math::

    \\dot q(t_{k+1}) \\approx \\frac{1}{h_k}\\Big(
        \\frac{1+2\\rho}{1+\\rho} q_{k+1}
        - (1+\\rho) q_k
        + \\frac{\\rho^2}{1+\\rho} q_{k-1}\\Big),

which reduces to the familiar ``(3 q_{k+1} - 4 q_k + q_{k-1}) / (2h)``
for constant steps.  The first step of a run falls back to backward Euler.
The Jacobian is ``a0 * C/h + G`` -- again a combined matrix that embeds
both ``C`` and the step size, re-factorized on every Newton iteration and
every step-size change.  Step control uses the predictor-corrector
difference (:class:`~repro.integrators.implicit.ImplicitNR`).
"""

from __future__ import annotations

import numpy as np

from repro.integrators.implicit import ImplicitNR

__all__ = ["Gear2NR"]


class Gear2NR(ImplicitNR):
    """Variable-step BDF2 + Newton-Raphson."""

    name = "Gear2"
    EXPONENT = -1.0 / 3.0

    # own class body: the perfbench tracer wraps each registry class's advance
    advance = ImplicitNR.advance

    def _newton_system(self, ev_k, t):
        q_k, q_prev, h_prev = ev_k.q, self._q_prev, self._h_prev

        def system(h):
            bu_new = self.source(t + h)
            if q_prev is None:
                # first step: backward Euler coefficients
                a0, a1, a2 = 1.0, -1.0, 0.0
                history = (a1 * q_k + a2 * np.zeros_like(q_k)) / h
            else:
                rho = h / h_prev
                a0 = (1.0 + 2.0 * rho) / (1.0 + rho)
                a1 = -(1.0 + rho)
                a2 = rho * rho / (1.0 + rho)
                history = (a1 * q_k + a2 * q_prev) / h
            return (("gear2", h, a0), "a0*C/h+G",
                    lambda ev: a0 * ev.q / h + history + ev.f - bu_new,
                    lambda ev: (a0 * ev.C / h + ev.G).tocsc())
        return system
