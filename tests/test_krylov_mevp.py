"""Tests for the three Krylov MEVP strategies (standard, invert, rational).

The accuracy oracle is the dense matrix exponential of ``J = -C^{-1} G``
computed with scipy on small systems.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.benchcircuits.inverter_chain import inverter_chain
from repro.benchcircuits.large_scale import pdn_multilayer
from repro.benchcircuits.rlc_networks import rlc_line
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PULSE, PWL
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.linalg import invert_krylov
from repro.linalg.invert_krylov import IKSBasis, InvertKrylovMEVP, Lags
from repro.linalg.krylov import MEVPStats, StandardKrylovMEVP
from repro.linalg.rational_krylov import RationalKrylovMEVP
from repro.linalg.sparse_lu import factorize
from repro.verify.circuits import driven_family
from repro.verify.matrix import MATRIX_FAMILIES


def rc_line_system(n=60, stiff=False, seed=0):
    """A 1-D RC line: G tridiagonal, C diagonal (optionally widely spread)."""
    rng = np.random.default_rng(seed)
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    G = sp.diags([off, main, off], [-1, 0, 1]).tocsc() * 1e-3
    if stiff:
        caps = 10.0 ** rng.uniform(-15, -11, size=n)
    else:
        caps = 1e-12 * rng.uniform(0.5, 2.0, size=n)
    C = sp.diags(caps).tocsc()
    return C, G


def dense_expm_reference(C, G, v, h):
    J = -np.linalg.solve(C.toarray(), G.toarray())
    return sla.expm(h * J) @ v


class TestInvertKrylov:
    def test_matches_dense_reference(self):
        C, G = rc_line_system()
        v = np.random.default_rng(1).standard_normal(C.shape[0])
        h = 1e-10
        iks = InvertKrylovMEVP(C, G, factorize(G))
        approx = iks.expm_multiply(v, h, tol=1e-10)
        exact = dense_expm_reference(C, G, v, h)
        np.testing.assert_allclose(approx, exact, rtol=1e-6, atol=1e-9)

    def test_stiff_system_converges_in_small_dimension(self):
        C, G = rc_line_system(stiff=True, seed=3)
        v = np.random.default_rng(2).standard_normal(C.shape[0])
        stats = MEVPStats()
        iks = InvertKrylovMEVP(C, G, factorize(G), stats=stats)
        basis = iks.build(v, 1e-10, tol=1e-8)
        exact = dense_expm_reference(C, G, v, 1e-10)
        np.testing.assert_allclose(basis.mevp(1e-10), exact, rtol=1e-4, atol=1e-7)
        assert basis.dimension < C.shape[0]
        assert stats.num_evaluations == 1
        assert stats.average_dimension == basis.dimension

    def test_residual_decreases_with_dimension(self):
        C, G = rc_line_system(seed=4)
        v = np.random.default_rng(3).standard_normal(C.shape[0])
        iks = InvertKrylovMEVP(C, G, factorize(G))
        basis = iks.build(v, 1e-10, tol=1e-14, max_dim=30)
        h = 1e-10
        residuals = [basis.residual_norm(h, m) for m in range(2, basis.dimension + 1)]
        # not strictly monotone step by step, but must drop by orders of magnitude
        assert residuals[-1] < 1e-3 * residuals[0]

    def test_basis_reuse_across_step_sizes(self):
        """The same basis evaluates correctly for a smaller h (no rebuild)."""
        C, G = rc_line_system(seed=5)
        v = np.random.default_rng(4).standard_normal(C.shape[0])
        iks = InvertKrylovMEVP(C, G, factorize(G))
        basis = iks.build(v, 2e-10, tol=1e-10)
        for h in (2e-10, 1e-10, 0.5e-10, 0.25e-10):
            exact = dense_expm_reference(C, G, v, h)
            np.testing.assert_allclose(basis.mevp(h), exact, rtol=1e-5, atol=1e-8)

    def test_singular_capacitance_matrix_supported(self):
        """The key structural advantage: C may be singular."""
        C, G = rc_line_system(n=40)
        C = C.tolil()
        for idx in (0, 7, 23):
            C[idx, idx] = 0.0
        C = C.tocsc()
        v = np.random.default_rng(5).standard_normal(40)
        iks = InvertKrylovMEVP(C, G, factorize(G))
        basis = iks.build(v, 1e-10, tol=1e-8)
        result = basis.mevp(1e-10)
        assert np.all(np.isfinite(result))

    def test_zero_vector_short_circuits(self):
        C, G = rc_line_system(n=20)
        iks = InvertKrylovMEVP(C, G, factorize(G))
        basis = iks.build(np.zeros(20), 1e-10)
        assert basis.is_zero
        np.testing.assert_array_equal(basis.mevp(1e-10), np.zeros(20))
        assert basis.residual_norm(1e-10) == 0.0

    def test_phi1_times_identity(self):
        """h*phi1(hJ)v computed in the subspace matches the dense evaluation."""
        C, G = rc_line_system(n=30, seed=6)
        v = np.random.default_rng(6).standard_normal(30)
        h = 1e-10
        iks = InvertKrylovMEVP(C, G, factorize(G))
        basis = iks.build(v, h, tol=1e-12, max_dim=30)
        J = -np.linalg.solve(C.toarray(), G.toarray())
        dense = h * (np.linalg.solve(h * J, sla.expm(h * J) - np.eye(30)) @ v)
        np.testing.assert_allclose(basis.phi1_times(h, v), dense, rtol=1e-4, atol=1e-8)

    def test_lag_set_is_the_weighted_sum_of_single_lags(self, monkeypatch):
        """A :class:`Lags` set evaluates ``sum_j w_j e^{t_j J} v`` -- through
        the eigen-decomposition of ``H_m``, folding terms added later into
        the same modal weights, or lag by lag when the eigenvectors are
        ill-conditioned -- and one lag of weight 1 is the step size."""
        C, G = rc_line_system(n=40, seed=4)
        v = np.random.default_rng(4).standard_normal(40)
        iks = InvertKrylovMEVP(C, G, factorize(G))
        lags = Lags()
        for tau, weight in ((0.0, 2.0), (3e-11, -1.5), (8e-11, 0.5)):
            lags.add(tau, weight)
        basis = iks.build(v, lags.at(2e-10), tol=1e-10)

        def exact():
            return sum(w * dense_expm_reference(C, G, v, t) for t, w in lags.terms())

        np.testing.assert_allclose(basis.mevp(lags), exact(), rtol=1e-6, atol=1e-9)
        lags.add(2e-10, 1.0)
        assert basis.ensure_converged(lags.at(3e-10), 1e-10, start=basis.dimension)
        np.testing.assert_allclose(basis.mevp(lags), exact(), rtol=1e-6, atol=1e-9)
        single = Lags()
        single.add(0.0, 1.0)
        assert basis.residual_norm(single.at(1e-10)) == pytest.approx(
            basis.residual_norm(1e-10), rel=1e-6)
        monkeypatch.setattr(invert_krylov._Modes, "well_conditioned",
                            property(lambda modes: False))
        np.testing.assert_allclose(basis.mevp(lags), exact(), rtol=1e-6, atol=1e-9)

    def test_stats_operator_application_counting(self):
        C, G = rc_line_system(n=25)
        stats = MEVPStats()
        iks = InvertKrylovMEVP(C, G, factorize(G), stats=stats)
        basis = iks.build(np.ones(25), 1e-10, tol=1e-8)
        assert stats.num_operator_applications >= basis.dimension


def dense_dae_expm(C, G, v, h):
    """``e^{hJ} v`` by eigen-decomposition of ``J^{-1} = -G^{-1} C``, with the
    algebraic (C-null) modes relaxing instantly (``e^{h/mu} -> 0``)."""
    mu, W = np.linalg.eig(-np.linalg.solve(G.toarray(), C.toarray()))
    algebraic = np.abs(mu) <= 1e-10 * np.max(np.abs(mu))
    f = np.where(algebraic, 0.0, np.exp(h / np.where(algebraic, 1.0, mu)))
    return np.real(W @ (f * np.linalg.solve(W, v.astype(complex))))


def dense_lagged_expm(C, G, v, lags):
    """``sum_j w_j e^{t_j J} v`` for a step size or a :class:`Lags` set."""
    if not isinstance(lags, Lags):
        return dense_dae_expm(C, G, v, lags)
    return sum(w * dense_dae_expm(C, G, v, t) for t, w in lags.terms())


def dense_exact_states(mna, times, x0):
    """The exact trajectory of a linear circuit through ``times``.

    Eq. 14 with the dense exponential, interval by interval: exact for
    piecewise-linear inputs whose breakpoints are among ``times``, which
    the time loop guarantees."""
    C, G = mna.C_lin, mna.G_lin
    x = np.array(x0, dtype=float)
    states = [x]
    for t0, t1 in zip(times[:-1], times[1:]):
        g_s = sla.solve(G.toarray(), mna.source_slope(t0, t1))
        q = (x - sla.solve(G.toarray(), mna.source_vector(t0))
             + sla.solve(G.toarray(), C @ g_s))
        x = x + dense_dae_expm(C, G, q, t1 - t0) - q + (t1 - t0) * g_s
        states.append(x)
    return np.array(states)


class TestConvergenceSweep:
    @staticmethod
    def er_run(monkeypatch, family, size, t_stop, source="ramp"):
        """Run ER on a driven verify-matrix scenario; return the result,
        its error against the dense exact trajectory, every basis' max
        error against the dense exponential at its build, and the step
        sizes of the bases that stopped at m = 1 without an Arnoldi
        breakdown."""
        config = MATRIX_FAMILIES[family]
        mna = driven_family(family=family, source=source, t_stop=t_stop,
                            **config[size]).build()
        errors, one_dimensional = [], []
        build = InvertKrylovMEVP.build

        def checked_build(self, v, h, **kw):
            basis = build(self, v, h, **kw)
            if not basis.is_zero:
                exact = dense_lagged_expm(self.C, self.G, v, h)
                errors.append(float(np.max(np.abs(basis.mevp(h) - exact))))
                if basis.dimension == 1 and not basis._process.breakdown:
                    one_dimensional.append(h)
            return basis

        monkeypatch.setattr(InvertKrylovMEVP, "build", checked_build)
        options = SimOptions(t_stop=t_stop, h_init=config["h_init"],
                             h_max=config["h_max"])
        result = TransientSimulator(mna, method="er", options=options).run()
        assert result.stats.completed
        states = result.state_array
        exact = dense_exact_states(mna, result.times, states[0])
        return result, float(np.max(np.abs(states - exact))), errors, one_dimensional

    def test_no_basis_stops_on_an_isolated_residual_dip(self, monkeypatch):
        """On the ringing RLC line the Eq. 22 residual scalar can pass near
        zero at one isolated dimension (a 2.5e-3 MEVP error was accepted at
        m = 11 with residual 9e-8).  Under the SIN drive ER steps, one basis
        per step, and every basis must match the dense exponential at its
        returned dimension.  Under the ramp the superposition's projection
        has a growing mode, so the run steps from its first step on; the
        whole trajectory must match the dense solution."""
        result, _, errors, _ = self.er_run(monkeypatch, "rlc_line", "full", 0.5e-9,
                                           source="sin")
        assert len(errors) == result.stats.num_steps
        assert max(errors) <= 1e-4
        result, state_error, errors, _ = self.er_run(monkeypatch, "rlc_line", "full",
                                                     0.5e-9)
        # the superposition's one build, then one per stepped step
        assert len(errors) == result.stats.num_steps + 1
        assert max(errors) <= 1e-4
        assert state_error <= 1e-4

    def test_linear_ramp_bases_match_dense_exponential(self, monkeypatch):
        """On the rc_ladder/ramp smoke scenario, bases accepted at m = 1 on
        one small Eq. 22 residual carried MEVP errors up to 1.04e-5 V into
        a linear circuit.  Only an Arnoldi breakdown may end a basis at
        m = 1, and the superposed trajectory must match the dense one."""
        result, state_error, errors, one_dimensional = self.er_run(
            monkeypatch, "rc_ladder", "smoke", 0.25e-9)
        assert one_dimensional == []
        assert max(errors) <= 2e-6
        assert state_error <= 2e-6

    @staticmethod
    def inverter_simulator():
        """ER-C on a 3-stage inverter chain: q and e bases every step."""
        options = SimOptions(t_stop=0.5e-9, err_budget=5e-4, store_states=False)
        return TransientSimulator(inverter_chain(3).build(), method="er-c",
                                  options=options)

    def test_warm_sweep_checks_every_dimension_from_start(self):
        C, G = rc_line_system(n=60, seed=3)
        v = np.random.default_rng(3).standard_normal(60)
        h = 2e-10
        iks = InvertKrylovMEVP(C, G, factorize(G), max_dim=60)
        cold = iks.build(v, h, tol=1e-8)
        assert cold.dimension > 4
        exact = dense_dae_expm(C, G, v, h)
        warm = iks.build(v, h, tol=1e-8, start=cold.dimension - 2)
        assert cold.dimension - 2 <= warm.dimension <= cold.dimension
        assert np.max(np.abs(warm.mevp(h) - exact)) <= 1e-4 * np.max(np.abs(exact))
        # past the converged dimension nothing below start is checked
        start = cold.dimension + 2 + cold.dimension % 2
        late = iks.build(v, h, tol=1e-8, start=start)
        assert late.dimension == start
        # a retry checks the (even) current dimension at once, where the
        # cold schedule would extend it first
        assert late.ensure_converged(h, 1e-8, start=late.dimension)
        assert late.dimension == start
        assert late.ensure_converged(h, 1e-8)
        assert late.dimension == start + 1

    def test_nonlinear_bases_match_dense_exponential(self, monkeypatch):
        """ER-C warm-starts the q (Eq. 14) and e (Eq. 24, also the Eq. 25
        correction) sweeps from the previous build; every basis must still
        match the dense exponential at its returned dimension."""
        errors = []
        build = InvertKrylovMEVP.build

        def checked_build(self, v, h, **kw):
            basis = build(self, v, h, **kw)
            if not basis.is_zero:
                exact = dense_dae_expm(self.C, self.G, v, h)
                errors.append(float(np.max(np.abs(basis.mevp(h) - exact))))
            return basis

        monkeypatch.setattr(InvertKrylovMEVP, "build", checked_build)
        result = self.inverter_simulator().run()
        assert result.stats.completed
        assert result.stats.num_rejections > 0
        assert len(errors) > 2 * result.stats.num_steps
        assert max(errors) <= 1e-4

    def test_er_c_builds_no_correction_basis(self):
        """The Eq. 25 correction comes from the error basis, so a step holds
        the q basis plus one e basis per trial step size: two bases when
        its first trial is accepted, never a third for the correction."""
        result = self.inverter_simulator().run()
        assert result.stats.method == "ER-C"
        assert result.stats.num_rejections > 0
        for step in result.steps:
            assert len(step.krylov_dimensions) <= 2 + step.rejections

    def test_warm_starts_reset_between_runs(self):
        simulator = self.inverter_simulator()
        first, second = simulator.run(), simulator.run()
        assert ([s.krylov_dimensions for s in first.steps]
                == [s.krylov_dimensions for s in second.steps])

    def test_warm_sweep_halves_residual_checks(self, monkeypatch):
        """The cold sweep from m = 1 on every basis, re-checked after the
        build at the same h, made 2420 Eq. 22 residual checks on this run
        (486 bases, when ER-C still built a separate correction basis);
        the warm sweep must stay below half of that."""
        calls = {"residual": 0, "expm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(IKSBasis, "residual_norm",
                            counted("residual", IKSBasis.residual_norm))
        monkeypatch.setattr(invert_krylov, "expm_dense",
                            counted("expm", invert_krylov.expm_dense))
        stats = self.inverter_simulator().run().stats.mevp
        assert stats.num_evaluations == 310
        assert stats.num_residual_checks == calls["residual"]
        assert stats.num_expm_calls == calls["expm"] > 0
        assert stats.num_residual_checks <= 2420 / 2


def multi_input_circuit(uic=False):
    """An RC ladder with coupling caps and four inputs: a PWL supply, a
    PULSE and a PWL current load switching at different times, and a DC
    bias that never ramps."""
    ckt = Circuit("multi_input")
    ckt.add_vsource("Vdd", "in", "0", PWL([(0.0, 0.0), (60e-12, 1.0)]))
    previous = "in"
    for k in range(1, 41):
        ckt.add_resistor(f"R{k}", previous, f"n{k}", 50.0 + 5.0 * k)
        ckt.add_capacitor(f"C{k}", f"n{k}", "0", (0.5 + 0.05 * k) * 1e-14)
        if k > 1:
            ckt.add_coupling_capacitor(f"Cc{k}", f"n{k}", f"n{k - 1}", 2e-14)
        previous = f"n{k}"
    ckt.add_isource("Ipulse", "n12", "0",
                    PULSE(0.0, 5e-4, 30e-12, 20e-12, 25e-12, 40e-12, 300e-12))
    ckt.add_isource("Iload", "n33", "0",
                    PWL([(70e-12, 0.0), (90e-12, 1e-3), (150e-12, 1e-3), (160e-12, 0.0)]))
    ckt.add_isource("Ibias", "n20", "0", 2e-4)
    if uic:
        ckt.set_initial_condition("n15", 0.3)
        ckt.set_initial_condition("n30", -0.2)
    return ckt


class TestLinearSuperposition:
    """ER on linear circuits with piecewise-linear inputs: one basis per
    input, the state from the closed-form sum (exponential_rosenbrock)."""

    @staticmethod
    def run(mna, x0=None, **overrides):
        options = SimOptions(**{"t_stop": 0.3e-9, "h_init": 1e-12, **overrides})
        result = TransientSimulator(mna, method="er", options=options).run(x0=x0)
        assert result.stats.completed
        states = result.state_array
        exact = dense_exact_states(mna, result.times, states[0])
        return result.stats, float(np.max(np.abs(states - exact)))

    @staticmethod
    def builds(stats):
        return stats.mevp.num_evaluations - stats.mevp.num_basis_reuses

    def test_multi_input_matches_dense_exact_solution(self):
        mna = multi_input_circuit().build()
        stats, error = self.run(mna)
        assert error <= 1e-6
        # three inputs ramp (the DC bias never does); the DC start leaves
        # a rounding-sized offset, below mevp_tol, so it gets no basis
        assert self.builds(stats) == 3
        assert stats.mevp.num_basis_reuses > 2 * stats.num_steps

    def test_uic_start_is_superposed_through_the_offset(self):
        mna = multi_input_circuit(uic=True).build()
        x0 = mna.initial_state()
        assert np.any(x0)
        stats, error = self.run(mna, x0=x0)
        assert error <= 1e-6
        assert self.builds(stats) == 4
        assert stats.mevp.num_basis_reuses > 3 * (stats.num_steps - 1)

    def test_dc_start_builds_no_offset_basis(self):
        """The PDN's DC supply sets a nonzero operating point.  Started
        from it, ``d = x0 - G^{-1} B u(t0)`` is solver rounding (5.7e-14
        here: the DC Newton solve takes a second, rounding-sized update),
        so the run builds the PWL load's basis and no basis on ``d``."""
        ckt = pdn_multilayer(4, 4, layers=2, coupling_fraction=0.5,
                             num_loads=0, seed=0)
        ckt.add_isource("Iload", "m1_2_2", "0",
                        PWL([(20e-12, 0.0), (60e-12, 2e-3)]))
        mna = ckt.build()
        stats, error = self.run(mna)
        assert error <= 1e-6
        assert self.builds(stats) == 1
        assert stats.mevp.num_basis_reuses == stats.mevp.num_evaluations - 1

    def test_max_dimension_is_the_largest_evaluated_dimension(self):
        mna = multi_input_circuit().build()
        options = SimOptions(t_stop=0.3e-9, h_init=1e-12)
        result = TransientSimulator(mna, method="er", options=options).run()
        largest = max(m for step in result.steps for m in step.krylov_dimensions)
        assert result.stats.mevp.max_dimension == largest
        merged, other = MEVPStats(), MEVPStats()
        merged.record(largest + 5, True)
        other.merge(result.stats.mevp)
        other.merge(merged)
        assert other.max_dimension == largest + 5
        merged.merge(result.stats.mevp)
        assert merged.max_dimension == largest + 5

    def test_growing_projection_falls_back_to_stepping_mid_run(self):
        """On the 16-segment RLC line every basis on the delayed ramp's
        ``r`` is accepted with a projected eigenvalue ``Re lambda > 0``
        (the exact ones are all <= -2.5e9).  The quiet first 0.1 ns is
        superposed, then the run steps on from the state it reached."""
        mna = rlc_line(16, drive=PWL([(0.1e-9, 0.0), (0.3e-9, 1.0)])).build()
        stats, error = self.run(mna, t_stop=0.5e-9, h_max=2e-12)
        assert error <= 1e-4
        # the one superposition build, then one basis per stepped step
        assert 1 < self.builds(stats) < stats.num_steps
        assert stats.mevp.num_basis_reuses == 0

    def test_sin_drive_still_builds_one_basis_per_step(self):
        mna = driven_family(family="rc_ladder", source="sin", t_stop=0.25e-9,
                            num_segments=20).build()
        stats, error = self.run(mna, t_stop=0.25e-9, h_max=4e-12)
        assert self.builds(stats) == stats.mevp.num_evaluations == stats.num_steps
        assert stats.mevp.num_basis_reuses == 0


class TestStandardKrylov:
    def test_matches_dense_reference(self):
        C, G = rc_line_system()
        v = np.random.default_rng(7).standard_normal(C.shape[0])
        h = 1e-10
        sk = StandardKrylovMEVP(C, G, factorize(C))
        result = sk.expm_multiply(v, h, tol=1e-10)
        exact = dense_expm_reference(C, G, v, h)
        np.testing.assert_allclose(result.vector, exact, rtol=1e-6, atol=1e-9)
        assert result.converged

    def test_error_estimate_reported(self):
        C, G = rc_line_system()
        sk = StandardKrylovMEVP(C, G, factorize(C))
        result = sk.expm_multiply(np.ones(C.shape[0]), 1e-10, tol=1e-9)
        assert result.error_estimate <= 1e-9

    def test_zero_vector(self):
        C, G = rc_line_system(n=15)
        sk = StandardKrylovMEVP(C, G, factorize(C))
        result = sk.expm_multiply(np.zeros(15), 1e-10)
        assert result.dimension == 0
        np.testing.assert_array_equal(result.vector, np.zeros(15))

    def test_stiff_c_needs_more_dimensions_than_invert(self):
        """Sec. IV's motivation: stiff C inflates the standard subspace."""
        C, G = rc_line_system(n=80, stiff=True, seed=11)
        v = np.random.default_rng(8).standard_normal(80)
        h = 2e-10
        std_stats, iks_stats = MEVPStats(), MEVPStats()
        sk = StandardKrylovMEVP(C, G, factorize(C), stats=std_stats, max_dim=80)
        iks = InvertKrylovMEVP(C, G, factorize(G), stats=iks_stats, max_dim=80)
        sk.expm_multiply(v, h, tol=1e-7)
        iks.build(v, h, tol=1e-7)
        assert iks_stats.average_dimension <= std_stats.average_dimension


class TestRationalKrylov:
    def test_matches_dense_reference(self):
        C, G = rc_line_system()
        v = np.random.default_rng(9).standard_normal(C.shape[0])
        h = 1e-10
        rk = RationalKrylovMEVP(C, G, gamma=h)
        result = rk.expm_multiply(v, h, tol=1e-9)
        exact = dense_expm_reference(C, G, v, h)
        np.testing.assert_allclose(result.vector, exact, rtol=1e-4, atol=1e-7)

    def test_requires_positive_gamma(self):
        C, G = rc_line_system(n=10)
        with pytest.raises(ValueError):
            RationalKrylovMEVP(C, G, gamma=0.0)

    def test_converges_in_few_dimensions_on_stiff_system(self):
        C, G = rc_line_system(n=80, stiff=True, seed=13)
        v = np.random.default_rng(10).standard_normal(80)
        h = 2e-10
        stats = MEVPStats()
        rk = RationalKrylovMEVP(C, G, gamma=h, stats=stats, max_dim=80)
        result = rk.expm_multiply(v, h, tol=1e-8)
        assert result.converged
        assert result.dimension <= 40
