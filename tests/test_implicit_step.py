"""The implicit Newton step shared by BENR, TR and Gear2: its give-ups.

Both failure branches of :class:`repro.integrators.implicit.ImplicitNR`
end the run cleanly (``completed=False``) with a reason that names the
method, the branch and what the controller did.
"""

import pytest

from repro.benchcircuits.inverter_chain import inverter_chain
from repro.benchcircuits.rc_networks import rc_ladder
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.integrators.base import Integrator
from repro.integrators.newton import NewtonSolver

METHODS = [("benr", "BENR"), ("trap", "TRNR"), ("gear2", "Gear2")]


@pytest.mark.parametrize("method, name", METHODS)
def test_newton_give_up_reports_the_reduced_step(method, name, monkeypatch):
    # one Newton iteration cannot follow the inverters switching (the DC
    # operating point is solved first, with the full iteration budget)
    options = SimOptions(t_stop=0.6e-9, h_init=1e-12)
    simulator = TransientSimulator(inverter_chain(3), method=method, options=options)
    assert simulator.run_dc().converged
    monkeypatch.setattr(NewtonSolver, "MAX_ITERATIONS", 1)
    result = simulator.run()
    reason = result.stats.failure_reason
    assert not result.stats.completed
    assert reason.startswith(f"ConvergenceError: {name} Newton iteration failed")
    assert "h reduced to" in reason


@pytest.mark.parametrize("method, name", METHODS)
def test_step_control_give_up_reports_the_rejection_count(method, name, monkeypatch):
    # the first step has no history and is accepted; the second is
    # rejected once, which already exceeds MAX_REJECTIONS = 0
    monkeypatch.setattr(Integrator, "MAX_REJECTIONS", 0)
    options = SimOptions(t_stop=1e-9, h_init=2e-12,
                         lte_abstol=1e-15, lte_reltol=1e-15)
    result = TransientSimulator(rc_ladder(10), method=method,
                                options=options).run()
    assert not result.stats.completed
    assert result.stats.failure_reason.startswith(
        f"ConvergenceError: {name} step control rejected the step 1 times at t=")
