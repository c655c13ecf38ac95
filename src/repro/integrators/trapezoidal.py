"""Trapezoidal rule with Newton-Raphson (TRNR).

The second classic implicit companion mentioned in Sec. II-A of the paper.
One step solves

.. math::

    \\frac{q(x_{k+1}) - q(x_k)}{h} +
    \\tfrac12\\big(f(x_{k+1}) + f(x_k)\\big) =
    \\tfrac12\\big(B u(t_{k+1}) + B u(t_k)\\big)

with the Jacobian ``C/h + G/2`` -- the same structural cost as BENR (the
combined matrix embeds both ``C`` and the step size).  Step control uses
the predictor-corrector difference with the third-order exponent
(:class:`~repro.integrators.implicit.ImplicitNR`).
"""

from __future__ import annotations

from repro.integrators.implicit import ImplicitNR

__all__ = ["TrapezoidalNR"]


class TrapezoidalNR(ImplicitNR):
    """Trapezoidal rule + Newton-Raphson with adaptive stepping."""

    name = "TRNR"
    EXPONENT = -1.0 / 3.0

    # own class body: the perfbench tracer wraps each registry class's advance
    advance = ImplicitNR.advance

    def _newton_system(self, ev_k, t):
        q_k, f_k = ev_k.q, ev_k.f
        bu_k = self.source(t)

        def system(h):
            bu_new = self.source(t + h)
            rhs_const = 0.5 * (bu_new + bu_k) - 0.5 * f_k
            return (("tr", h), "C/h+G/2",
                    lambda ev: (ev.q - q_k) / h + 0.5 * ev.f - rhs_const,
                    lambda ev: (ev.C / h + 0.5 * ev.G).tocsc())
        return system
