"""Integrator accuracy tests on linear circuits with analytic references."""

import math

import numpy as np
import pytest

from repro.benchcircuits.rc_networks import rc_mesh
from repro.circuit.netlist import Circuit
from repro.circuit.sources import DC, PWL
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator, simulate
from repro.integrators.base import IntegratorError
from repro.integrators.forward_euler import ForwardEuler
from repro.linalg.invert_krylov import InvertKrylovMEVP
from repro.verify.reference import reference_simulator


def rc_step_circuit(r=1000.0, c=1e-12):
    """Series R feeding a grounded C, driven by a fast ramp to 1 V at t=0.1ns."""
    ckt = Circuit("rc_step")
    ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
    ckt.add_resistor("R1", "in", "out", r)
    ckt.add_capacitor("C1", "out", "0", c)
    return ckt


def rc_analytic(t, r=1000.0, c=1e-12, t_ramp=0.1e-9):
    """Exact response of the RC low-pass to the ramp input."""
    tau = r * c
    if t <= 0.0:
        return 0.0
    if t <= t_ramp:
        # response to a ramp of slope 1/t_ramp
        return (t - tau * (1.0 - math.exp(-t / tau))) / t_ramp
    v_ramp_end = (t_ramp - tau * (1.0 - math.exp(-t_ramp / tau))) / t_ramp
    dt = t - t_ramp
    return 1.0 + (v_ramp_end - 1.0) * math.exp(-dt / tau)


LINEAR_METHODS = ["benr", "trap", "gear2", "er", "er-c"]


class TestRCStepAccuracy:
    @pytest.mark.parametrize("method", LINEAR_METHODS)
    def test_final_value_matches_analytic(self, method):
        ckt = rc_step_circuit()
        result = simulate(ckt, method, t_stop=3e-9, h_init=2e-11)
        assert result.stats.completed, result.stats.failure_reason
        v_end = result.voltage("out")[-1]
        # first-order methods (BENR) carry visible damping error at the default
        # LTE tolerances, hence the generous bound; the ER-specific tests below
        # check the exponential methods much more tightly
        assert v_end == pytest.approx(rc_analytic(3e-9), abs=2e-2)

    @pytest.mark.parametrize("method", ["er", "er-c"])
    def test_exponential_methods_track_the_whole_waveform(self, method):
        ckt = rc_step_circuit()
        result = simulate(ckt, method, t_stop=3e-9, h_init=2e-11)
        times = result.time_array
        values = result.voltage("out")
        exact = np.array([rc_analytic(t) for t in times])
        assert np.max(np.abs(values - exact)) < 2e-3

    def test_er_is_exact_for_linear_circuits_with_pwl_input(self):
        """For linear circuits the ER update is the exact variation-of-constants
        formula, so the error is set by the MEVP tolerance, not the step size."""
        ckt = rc_step_circuit()
        result = simulate(ckt, "er", t_stop=3e-9, h_init=0.5e-9, mevp_tol=1e-10)
        times = result.time_array
        values = result.voltage("out")
        exact = np.array([rc_analytic(t) for t in times])
        assert np.max(np.abs(values - exact)) < 1e-6
        # and it takes far fewer steps than the step-limited implicit methods
        assert result.stats.num_steps <= 12


class TestRLCircuit:
    def test_inductor_current_reaches_dc_limit(self):
        ckt = Circuit("rl")
        ckt.add_vsource("Vin", "in", "0", DC(1.0))
        ckt.add_resistor("R1", "in", "a", 100.0)
        ckt.add_inductor("L1", "a", "0", 10e-9)
        result = simulate(ckt, "benr", t_stop=2e-9, h_init=1e-12)
        assert result.stats.completed
        i_l = result.branch_current("L1")[-1]
        assert i_l == pytest.approx(1.0 / 100.0, rel=0.02)

    def test_er_matches_benr_on_rl(self):
        ckt = Circuit("rl2")
        ckt.add_vsource("Vin", "in", "0", PWL([(0, 0), (0.1e-9, 1.0)]))
        ckt.add_resistor("R1", "in", "a", 100.0)
        ckt.add_inductor("L1", "a", "0", 10e-9)
        r_be = simulate(ckt, "benr", t_stop=1e-9, h_init=1e-12)
        r_er = simulate(ckt, "er", t_stop=1e-9, h_init=1e-11)
        assert r_er.voltage("a")[-1] == pytest.approx(r_be.voltage("a")[-1], abs=1e-3)


class TestERMergedStepVector:
    """Eq. 14 propagates ``p`` and ``r`` through the same ``e^{hJ} - I``:
    ER's one basis on ``q = p + r`` must reproduce the two separate bases."""

    def split_step(self, t, h):
        """ER's step from the zero state, and the same Eq. 14 update
        assembled from separate invert-Krylov bases of ``p`` and ``r``."""
        drive = PWL([(0.0, 0.0), (0.5e-9, 1.0), (1e-9, 1.0)])
        ckt = rc_mesh(rows=4, cols=4, coupling_fraction=0.5, drive=drive)
        options = SimOptions(t_stop=1e-9, h_init=h)
        integrator = TransientSimulator(ckt, method="er", options=options).integrator
        x = np.zeros(integrator.mna.n)
        outcome = integrator.advance(x, t, h)
        assert outcome.h_used == h

        ev = integrator.evaluate(x)
        lu_G = integrator.cache.lu(("G",), ev.G)  # the step's cached factors
        iks = InvertKrylovMEVP(ev.C, ev.G, lu_G)
        tol = options.mevp_tol
        p = lu_G.solve(ev.f - integrator.source(t))
        g_s = lu_G.solve(integrator.mna.source_slope(t, t + h))
        r = lu_G.solve(ev.C @ g_s)
        parts = [iks.build(v, h, tol=tol) for v in (p, r)]
        diffs = [np.zeros_like(v) if b.is_zero else b.mevp(h) - v
                 for b, v in zip(parts, (p, r))]
        return outcome.x, x + diffs[0] + diffs[1] + h * g_s, r

    def test_one_basis_matches_two_on_a_ramp(self):
        merged, split, r = self.split_step(t=0.2e-9, h=20e-12)
        assert np.max(np.abs(r)) > 0.0
        np.testing.assert_allclose(merged, split, rtol=0.0,
                                   atol=SimOptions().mevp_tol)

    def test_zero_slope_builds_the_basis_of_p(self):
        merged, split, r = self.split_step(t=0.6e-9, h=20e-12)
        assert not np.any(r)
        np.testing.assert_array_equal(merged, split)


class TestStepCounts:
    def test_er_takes_fewer_steps_than_benr(self):
        ckt = rc_step_circuit()
        r_er = simulate(ckt, "er", t_stop=3e-9, h_init=1e-11)
        r_be = simulate(ckt, "benr", t_stop=3e-9, h_init=1e-12)
        assert r_er.stats.num_steps < r_be.stats.num_steps

    def test_er_one_lu_per_step(self):
        """Algorithm 2: exactly one LU factorization of G per accepted step
        (the DC solve may add one more) on a linear circuit with no rejections.
        The uncached reference run exposes the raw cost model."""
        ckt = rc_step_circuit()
        result = reference_simulator(
            ckt, "er", SimOptions(t_stop=3e-9, h_init=2e-11)).run()
        assert result.stats.num_rejections == 0
        extra = result.stats.num_lu_factorizations - result.stats.num_steps
        assert extra in (0, 1)

    def test_er_one_lu_per_run_with_cache(self):
        """With the linearization cache (the default), a linear run factorizes
        G exactly once; every further step is a counted cache hit."""
        ckt = rc_step_circuit()
        result = simulate(ckt, "er", t_stop=3e-9, h_init=2e-11)
        assert result.stats.num_rejections == 0
        # one LU for G plus at most one for the DC operating point
        assert result.stats.num_lu_factorizations <= 2
        assert result.stats.lu.num_reused >= result.stats.num_steps - 1

    def test_benr_needs_at_least_one_lu_per_newton_iteration(self):
        ckt = rc_step_circuit()
        result = reference_simulator(
            ckt, "benr", SimOptions(t_stop=3e-9, h_init=1e-11)).run()
        assert result.stats.num_lu_factorizations >= result.stats.num_steps


class TestForwardEuler:
    def test_stable_when_step_small(self):
        # forward Euler needs a regular C: give every node a capacitor and
        # avoid voltage sources by driving with a current source
        ckt = Circuit("fe")
        ckt.add_isource("I1", "0", "a", DC(1e-3))
        ckt.add_resistor("R1", "a", "0", 1000.0)
        ckt.add_capacitor("C1", "a", "0", 1e-12)
        options = SimOptions(t_stop=5e-9, h_init=1e-12, h_max=1e-12, h_min=1e-12)
        result = simulate(ckt, "fe", options=options)
        assert result.stats.completed
        assert result.voltage("a")[-1] == pytest.approx(1.0, rel=0.02)

    def test_unstable_when_step_exceeds_limit(self):
        ckt = Circuit("fe_unstable")
        ckt.add_isource("I1", "0", "a", DC(1e-3))
        ckt.add_resistor("R1", "a", "0", 1000.0)
        ckt.add_capacitor("C1", "a", "0", 1e-12)
        mna = ckt.build()
        # tau = 1 ns, stability limit 2 ns; a 10 ns step amplifies the error by
        # |1 - h/tau| = 9 every step.  Start away from the DC equilibrium so
        # there is an error to amplify: the run must either abort on a
        # non-finite state or produce an absurdly large voltage.
        options = SimOptions(t_stop=200e-9, h_init=10e-9, h_max=10e-9, h_min=10e-9)
        result = simulate(mna, "fe", options=options, x0=np.zeros(mna.n))
        diverged = (not result.stats.completed) or abs(result.voltage("a")[-1]) > 100.0
        assert diverged

    def test_singular_c_rejected_with_helpful_error(self):
        ckt = rc_step_circuit()  # voltage source branch row has no capacitance
        mna = ckt.build()
        integrator = ForwardEuler(mna, SimOptions(t_stop=1e-9, h_init=1e-12))
        with pytest.raises(IntegratorError, match="non-singular"):
            integrator.advance(np.zeros(mna.n), 0.0, 1e-12)


class TestStandardKrylovExponential:
    """The prior-work integrator [20]: works on regular C, struggles on MNA
    systems with singular C -- which is exactly why the paper's test cases
    avoid it (Sec. V, first paragraph)."""

    def test_accurate_on_regular_capacitance_matrix(self):
        # current-source drive + a capacitor on every node -> C is non-singular
        ckt = Circuit("regular_c")
        ckt.add_isource("I1", "0", "a", PWL([(0.0, 0.0), (0.1e-9, 1e-3)]))
        ckt.add_resistor("R1", "a", "b", 500.0)
        ckt.add_capacitor("Ca", "a", "0", 1e-12)
        ckt.add_resistor("R2", "b", "0", 500.0)
        ckt.add_capacitor("Cb", "b", "0", 1e-12)
        reference = simulate(ckt, "benr", t_stop=2e-9, h_init=1e-12)
        result = simulate(ckt, "expm-std", t_stop=2e-9, h_init=2e-11)
        assert result.stats.completed, result.stats.failure_reason
        assert result.voltage("b")[-1] == pytest.approx(reference.voltage("b")[-1], abs=5e-3)

    def test_singular_capacitance_is_the_documented_weakness(self):
        """On a singular-C MNA system the method either survives through the
        epsilon regularization or fails cleanly -- it must never silently
        produce a wrong finite answer."""
        ckt = rc_step_circuit()
        result = simulate(ckt, "expm-std", t_stop=3e-9, h_init=2e-11)
        if result.stats.completed:
            assert result.voltage("out")[-1] == pytest.approx(rc_analytic(3e-9), abs=5e-2)
        else:
            assert result.stats.failure_reason is not None


class TestGearAndTrapezoidalAgreement:
    def test_higher_order_implicit_methods_match_analytic(self):
        """TR and Gear-2 are second order: they should land much closer to the
        analytic value than first-order BENR at the same tolerances."""
        ckt = rc_step_circuit()
        exact = rc_analytic(2e-9)
        for method in ("trap", "gear2"):
            result = simulate(ckt, method, t_stop=2e-9, h_init=1e-12)
            assert result.voltage("out")[-1] == pytest.approx(exact, abs=2e-3), method


class TestManyBreakpointPWL:
    """Regression guard for the time loop's breakpoint handling.

    The loop used to pop consumed breakpoints from the head of a Python
    list -- O(n) per step, O(n^2) per run -- which made densely sampled
    PWL drives (measured waveforms replayed as sources) quadratically
    expensive.  The cursor-based loop must honor the exact same stepping
    contract: no accepted step may straddle a slope discontinuity
    (the Eq. 13 piecewise-linear input assumption)."""

    NUM_POINTS = 400

    def build(self, t_stop):
        # a sawtooth sampled at NUM_POINTS points: every interior point is
        # a genuine slope discontinuity the controller must land on
        pts = [(i * t_stop / self.NUM_POINTS,
                float(i % 2))
               for i in range(self.NUM_POINTS + 1)]
        ckt = Circuit("many_bp")
        ckt.add_vsource("Vin", "in", "0", PWL(pts))
        ckt.add_resistor("R1", "in", "out", 1000.0)
        ckt.add_capacitor("C1", "out", "0", 1e-12)
        return ckt

    @pytest.mark.parametrize("method", ["benr", "er"])
    def test_no_step_straddles_a_breakpoint(self, method):
        t_stop = 2e-9
        ckt = self.build(t_stop)
        mna = ckt.build()
        breakpoints = mna.breakpoints(t_stop)
        assert len(breakpoints) >= self.NUM_POINTS - 1
        result = simulate(ckt, method, t_stop=t_stop, h_init=1e-11)
        assert result.stats.completed, result.stats.failure_reason
        times = result.time_array
        assert times[-1] == pytest.approx(t_stop, rel=1e-9)
        # every breakpoint must coincide with an accepted time point --
        # a step interval strictly containing one would violate the
        # piecewise-linear stepping contract the old code enforced
        eps = 1e-12 * t_stop
        inside = np.searchsorted(times, np.asarray(breakpoints))
        for bp, idx in zip(breakpoints, inside):
            nearest = min(abs(times[max(idx - 1, 0)] - bp),
                          abs(times[min(idx, len(times) - 1)] - bp))
            assert nearest <= eps, f"breakpoint {bp:g} not hit (method {method})"

    def test_breakpoint_consumption_is_linear_time(self):
        """The loop touches each breakpoint O(1) times: the number of
        accepted steps stays within a small multiple of the breakpoint
        count (the quadratic version still passed this, but the step
        count is the observable that would explode if the cursor ever
        re-scanned consumed breakpoints and re-clipped against them)."""
        t_stop = 2e-9
        ckt = self.build(t_stop)
        result = simulate(ckt, "er", t_stop=t_stop, h_init=1e-11)
        assert result.stats.completed
        assert result.stats.num_steps <= 3 * self.NUM_POINTS
