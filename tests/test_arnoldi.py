"""Unit tests for the shared Arnoldi process (repro.linalg.arnoldi)."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.linalg.arnoldi import ArnoldiBreakdown, ArnoldiProcess


def random_operator(n=30, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = A - 1.5 * n ** 0.5 * np.eye(n)
    return A, (lambda v: A @ v)


class TestArnoldiRelation:
    def test_basis_orthonormal(self):
        A, apply_A = random_operator()
        v0 = np.random.default_rng(1).standard_normal(30)
        process = ArnoldiProcess(apply_A, v0, max_dim=12)
        for _ in range(10):
            process.extend()
        assert process.orthogonality_defect() < 1e-10

    def test_arnoldi_recurrence(self):
        """A V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T (Eq. 19 of the paper)."""
        A, apply_A = random_operator()
        v0 = np.random.default_rng(2).standard_normal(30)
        process = ArnoldiProcess(apply_A, v0, max_dim=15)
        for _ in range(8):
            process.extend()
        m = process.m
        Vm = process.basis(m)
        Hm = process.hessenberg(m)
        lhs = A @ Vm
        rhs = Vm @ Hm
        rhs[:, -1] += process.subdiagonal(m) * process.next_basis_vector(m)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_beta_is_initial_norm(self):
        _, apply_A = random_operator()
        v0 = 3.0 * np.ones(30)
        process = ArnoldiProcess(apply_A, v0)
        assert process.beta == pytest.approx(np.linalg.norm(v0))
        np.testing.assert_allclose(process.V[:, 0], v0 / np.linalg.norm(v0))

    def test_hessenberg_structure(self):
        A, apply_A = random_operator()
        v0 = np.random.default_rng(3).standard_normal(30)
        process = ArnoldiProcess(apply_A, v0, max_dim=10)
        for _ in range(6):
            process.extend()
        H = process.hessenberg()
        # entries below the first subdiagonal must be zero
        for i in range(H.shape[0]):
            for j in range(H.shape[1]):
                if i > j + 1:
                    assert H[i, j] == 0.0


class TestBreakdown:
    def test_invariant_subspace_breaks_down(self):
        # A v0 = 2 v0: the Krylov space is one-dimensional
        n = 10
        A = 2.0 * np.eye(n)
        v0 = np.ones(n)
        process = ArnoldiProcess(lambda v: A @ v, v0, max_dim=5)
        with pytest.raises(ArnoldiBreakdown):
            process.extend()
        assert process.breakdown
        assert process.m == 1

    def test_zero_start_vector_flags_breakdown(self):
        process = ArnoldiProcess(lambda v: v, np.zeros(5))
        assert process.breakdown
        assert process.beta == 0.0
        with pytest.raises(ArnoldiBreakdown):
            process.extend()

    def test_extension_after_breakdown_raises(self):
        n = 6
        process = ArnoldiProcess(lambda v: 3.0 * v, np.ones(n), max_dim=4)
        with pytest.raises(ArnoldiBreakdown):
            process.extend()
        with pytest.raises(ArnoldiBreakdown):
            process.extend()

    def test_picosecond_scale_invariant_subspace_breaks_down(self):
        """The invert-Krylov operator has units of seconds (``||J^{-1}v||``
        ~ 1e-12): an invariant start vector must still break down."""
        process = ArnoldiProcess(lambda v: 2e-12 * v, np.ones(8), max_dim=5)
        with pytest.raises(ArnoldiBreakdown):
            process.extend()
        assert process.m == 1

    def test_picosecond_scale_small_relative_growth_is_not_breakdown(self):
        """``h_21 / ||A v_1|| ~ 1e-4`` is a genuinely new direction, however
        small the operator's absolute scale; the MEVP of the resulting
        two-dimensional space matches the dense exponential."""
        lam = np.array([-1e-12, -2e-12, -4e-12, -8e-12])  # eigenvalues of J^{-1}
        A = np.diag(lam)
        v0 = np.array([1.0, 1e-4, 0.0, 0.0])
        process = ArnoldiProcess(lambda v: A @ v, v0, max_dim=4)
        process.extend()
        assert not process.breakdown
        ratio = process.subdiagonal(1) / np.linalg.norm(A @ process.basis(1)[:, 0])
        assert 1e-5 < ratio < 1e-3
        # the space {e_1, e_2} is invariant: the second extension is the
        # happy breakdown
        with pytest.raises(ArnoldiBreakdown):
            process.extend()
        assert process.m == 2

        h = 1e-12
        Hm = process.hessenberg()
        small = expm(h * np.linalg.inv(Hm))[:, 0]
        approx = process.beta * (process.basis() @ small)
        exact = expm(h * np.diag(1.0 / lam)) @ v0
        np.testing.assert_allclose(approx, exact, rtol=1e-10, atol=1e-14)


def reference_modified_gram_schmidt(apply_A, v0, steps):
    """Classic per-vector modified Gram-Schmidt Arnoldi (the pre-blocked
    implementation), kept as the correctness oracle for the BLAS-2 path."""
    v0 = np.asarray(v0, dtype=float)
    n = v0.shape[0]
    beta = np.linalg.norm(v0)
    V = np.zeros((n, steps + 1))
    H = np.zeros((steps + 1, steps))
    V[:, 0] = v0 / beta
    for j in range(steps):
        w = np.asarray(apply_A(V[:, j]), dtype=float)
        for i in range(j + 1):
            hij = float(np.dot(w, V[:, i]))
            H[i, j] += hij
            w -= hij * V[:, i]
        for i in range(j + 1):  # re-orthogonalization pass
            corr = float(np.dot(w, V[:, i]))
            H[i, j] += corr
            w -= corr * V[:, i]
        H[j + 1, j] = np.linalg.norm(w)
        V[:, j + 1] = w / H[j + 1, j]
    return V[:, :steps], H[:steps, :steps]


class TestBlockedGramSchmidt:
    """The blocked (BLAS-2) CGS2 orthogonalization must match the old
    modified Gram-Schmidt to rounding -- the satellite micro-test."""

    def stiff_operator(self, n=40, seed=7):
        # eigenvalues spread over 8 decades: a stiff circuit-like spectrum
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = -np.logspace(0, 8, n)
        A = Q @ np.diag(lam) @ Q.T
        return A, (lambda v: A @ v)

    def test_matches_modified_gram_schmidt_to_rounding(self):
        A, apply_A = self.stiff_operator()
        v0 = np.random.default_rng(8).standard_normal(40)
        steps = 15
        process = ArnoldiProcess(apply_A, v0, max_dim=30)
        for _ in range(steps):
            process.extend()
        V_ref, H_ref = reference_modified_gram_schmidt(apply_A, v0, steps)
        scale = np.abs(H_ref).max()
        np.testing.assert_allclose(process.hessenberg(steps), H_ref,
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(process.basis(steps), V_ref, atol=1e-10)

    def test_orthogonality_defect_on_stiff_matrix(self):
        A, apply_A = self.stiff_operator()
        v0 = np.random.default_rng(9).standard_normal(40)
        process = ArnoldiProcess(apply_A, v0, max_dim=40)
        for _ in range(25):
            process.extend()
        assert process.orthogonality_defect() <= 1e-10

    def test_storage_growth_preserves_basis(self):
        """The geometric storage growth must not disturb earlier columns."""
        A, apply_A = self.stiff_operator(n=60)
        v0 = np.random.default_rng(10).standard_normal(60)
        process = ArnoldiProcess(apply_A, v0, max_dim=50)
        snapshots = {}
        for _ in range(40):  # crosses the initial 16-column capacity twice
            m = process.extend()
            snapshots[m] = process.basis(m).copy()
        final = process.basis(40)
        for m, snap in snapshots.items():
            np.testing.assert_array_equal(final[:, :m], snap)
        assert process.orthogonality_defect() <= 1e-10


    def test_trim_keeps_the_basis_extendable(self):
        """A trimmed basis holds only its used columns and extends exactly
        like one that kept the spare storage."""
        A, apply_A = self.stiff_operator(n=60)
        v0 = np.random.default_rng(11).standard_normal(60)
        kept = ArnoldiProcess(apply_A, v0, max_dim=50)
        trimmed = ArnoldiProcess(apply_A, v0, max_dim=50, capacity=4)
        for _ in range(20):
            kept.extend()
            trimmed.extend()
        trimmed.trim()
        assert trimmed.V.shape == (60, 21) and trimmed.H.shape == (21, 20)
        trimmed.trim(capacity=30)  # never grows
        assert trimmed.V.shape == (60, 21)
        for _ in range(5):
            kept.extend()
            trimmed.extend()
        np.testing.assert_allclose(trimmed.basis(), kept.basis(), atol=1e-12)
        np.testing.assert_allclose(trimmed.hessenberg(), kept.hessenberg(),
                                   rtol=1e-12, atol=1e-12 * np.abs(A).max())


class TestLimitsAndValidation:
    def test_dimension_limit_enforced(self):
        _, apply_A = random_operator()
        process = ArnoldiProcess(apply_A, np.random.default_rng(4).standard_normal(30),
                                 max_dim=3)
        for _ in range(3):
            process.extend()
        with pytest.raises(RuntimeError):
            process.extend()

    def test_max_dim_capped_by_problem_size(self):
        _, apply_A = random_operator(5)
        process = ArnoldiProcess(apply_A, np.ones(5), max_dim=100)
        assert process.max_dim == 5

    def test_invalid_max_dim(self):
        with pytest.raises(ValueError):
            ArnoldiProcess(lambda v: v, np.ones(4), max_dim=0)

    def test_operator_with_wrong_length_rejected(self):
        process = ArnoldiProcess(lambda v: np.ones(3), np.ones(5))
        with pytest.raises(ValueError):
            process.extend()
