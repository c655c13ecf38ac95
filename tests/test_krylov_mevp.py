"""Tests for the three Krylov MEVP strategies (standard, invert, rational).

The accuracy oracle is the dense matrix exponential of ``J = -C^{-1} G``
computed with scipy on small systems.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.benchcircuits.inverter_chain import inverter_chain
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.linalg import invert_krylov
from repro.linalg.invert_krylov import IKSBasis, InvertKrylovMEVP
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


class TestConvergenceSweep:
    @staticmethod
    def er_basis_errors(monkeypatch, family, size, t_stop):
        """Run ER on a driven verify-matrix ramp scenario; return every
        basis' max error against the dense exponential at its returned
        dimension, and the step sizes of the bases that stopped at m = 1
        without an Arnoldi breakdown."""
        config = MATRIX_FAMILIES[family]
        mna = driven_family(family=family, source="ramp", t_stop=t_stop,
                            **config[size]).build()
        errors, one_dimensional = [], []
        build = InvertKrylovMEVP.build

        def checked_build(self, v, h, **kw):
            basis = build(self, v, h, **kw)
            if not basis.is_zero:
                exact = dense_dae_expm(self.C, self.G, v, h)
                errors.append(float(np.max(np.abs(basis.mevp(h) - exact))))
                if basis.dimension == 1 and not basis._process.breakdown:
                    one_dimensional.append(h)
            return basis

        monkeypatch.setattr(InvertKrylovMEVP, "build", checked_build)
        options = SimOptions(t_stop=t_stop, h_init=config["h_init"],
                             h_max=config["h_max"], store_states=False)
        result = TransientSimulator(mna, method="er", options=options).run()
        assert result.stats.completed
        assert len(errors) == result.stats.num_steps
        return errors, one_dimensional

    def test_no_basis_stops_on_an_isolated_residual_dip(self, monkeypatch):
        """On the ringing RLC line the Eq. 22 residual scalar can pass near
        zero at one isolated dimension (a 2.5e-3 MEVP error was accepted at
        m = 11 with residual 9e-8); every basis of a full-size ER run must
        instead match the dense exponential at its returned dimension."""
        errors, _ = self.er_basis_errors(monkeypatch, "rlc_line", "full", 0.5e-9)
        assert max(errors) <= 1e-4

    def test_linear_ramp_bases_match_dense_exponential(self, monkeypatch):
        """On the rc_ladder/ramp smoke scenario, bases accepted at m = 1 on
        one small Eq. 22 residual carried MEVP errors up to 1.04e-5 V into
        a linear circuit.  Only an Arnoldi breakdown may end a basis at
        m = 1."""
        errors, one_dimensional = self.er_basis_errors(
            monkeypatch, "rc_ladder", "smoke", 0.25e-9)
        assert one_dimensional == []
        assert max(errors) <= 2e-6

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
