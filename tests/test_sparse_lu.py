"""Unit tests for the instrumented LU wrapper (repro.linalg.sparse_lu)."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from _factories import build_small, circuit_factory_names

from repro.benchcircuits import inverter_chain, make_ckt, pdn_multilayer, rlc_line
from repro.linalg import sparse_lu
from repro.linalg.sparse_lu import (
    DENSE_FILL_PER_COLUMN,
    SYMMETRIC_PIVOT_THRESHOLD,
    FactorizationBudgetExceeded,
    LUStats,
    RefinedLU,
    SymbolicCache,
    factorize,
    panel_size,
    structurally_symmetric,
)


def spd_matrix(n=20, seed=0):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.2, random_state=np.random.RandomState(seed)).tocsc()
    return (A + A.T + n * sp.identity(n)).tocsc()


class TestFactorizeSolve:
    def test_solve_matches_dense(self):
        A = spd_matrix()
        lu = factorize(A)
        b = np.arange(A.shape[0], dtype=float)
        x = lu.solve(b)
        np.testing.assert_allclose(A @ x, b, atol=1e-10)

    def test_solve_many(self):
        A = spd_matrix()
        lu = factorize(A)
        B = np.random.default_rng(1).standard_normal((A.shape[0], 3))
        X = lu.solve_many(B)
        np.testing.assert_allclose(A @ X, B, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            factorize(sp.random(4, 5, density=0.5).tocsc())

    def test_singular_matrix_raises_linalgerror(self):
        A = sp.csc_matrix((5, 5))
        with pytest.raises(np.linalg.LinAlgError):
            factorize(A)

    def test_nnz_factors_positive(self):
        lu = factorize(spd_matrix())
        n = spd_matrix().shape[0]
        assert lu.nnz_factors >= n
        # the storage count includes supernodal padding, so it dominates
        # the exact (lazily materialized) per-factor split
        assert n <= lu.nnz_L + lu.nnz_U
        assert lu.nnz_factors >= max(lu.nnz_L, lu.nnz_U)


class TestStats:
    def test_counters_accumulate(self):
        stats = LUStats()
        A = spd_matrix()
        lu = factorize(A, stats=stats)
        lu.solve(np.ones(A.shape[0]))
        lu.solve(np.ones(A.shape[0]))
        factorize(A, stats=stats)
        assert stats.num_factorizations == 2
        assert stats.num_solves == 2
        assert len(stats.factor_nnz) == 2
        assert stats.peak_factor_nnz == max(stats.factor_nnz)
        assert stats.total_factor_nnz == sum(stats.factor_nnz)
        assert stats.factor_time >= 0.0

    def test_merge(self):
        a, b = LUStats(), LUStats()
        factorize(spd_matrix(), stats=a)
        factorize(spd_matrix(), stats=b)
        a.merge(b)
        assert a.num_factorizations == 2
        assert len(a.factor_nnz) == 2

    def test_as_dict_keys(self):
        stats = LUStats()
        factorize(spd_matrix(), stats=stats)
        d = stats.as_dict()
        assert set(d) == {
            "num_factorizations", "num_solves", "factor_time", "solve_time",
            "peak_factor_nnz", "total_factor_nnz", "num_reused", "num_bypassed",
            "num_orderings", "num_symbolic_reuses",
            "num_stale_reuses", "num_refinement_fallbacks",
        }

    def test_empty_stats(self):
        stats = LUStats()
        assert stats.peak_factor_nnz == 0
        assert stats.total_factor_nnz == 0


class TestSymbolicCache:
    """Pattern-keyed ordering reuse must be invisible numerically."""

    def test_reuse_produces_bit_identical_factors_and_solutions(self):
        A = spd_matrix(40, seed=3)
        # same pattern, different values: scale the non-zeros
        B = A.copy()
        B.data = B.data * 1.7 + 0.1

        cache = SymbolicCache()
        stats = LUStats()
        # reference: a fresh ordering through the cached path (for a
        # symmetric pattern the one-shot path is a different, one-pass
        # computation)
        lu_fresh_b = factorize(B, stats=stats, symbolic=SymbolicCache())
        lu_a = factorize(A, stats=stats, symbolic=cache)  # analyzes + stores
        lu_b = factorize(B, stats=stats, symbolic=cache)  # reuses the ordering

        assert not lu_a.reused_symbolic
        assert lu_b.reused_symbolic
        # identical fill: a hit runs the same numeric pass on the same
        # permuted matrix as a miss
        assert lu_b.nnz_factors == lu_fresh_b.nnz_factors

        b = np.arange(A.shape[0], dtype=float)
        np.testing.assert_array_equal(lu_b.solve(b), lu_fresh_b.solve(b))
        rhs = np.random.default_rng(7).standard_normal((A.shape[0], 3))
        np.testing.assert_array_equal(lu_b.solve_many(rhs),
                                      lu_fresh_b.solve_many(rhs))

    def test_accounting_counters(self):
        cache = SymbolicCache()
        stats = LUStats()
        A = spd_matrix(25, seed=4)
        for _ in range(4):
            factorize(A, stats=stats, symbolic=cache)
        assert stats.num_factorizations == 4
        assert stats.num_orderings == 1
        assert stats.num_symbolic_reuses == 3
        assert stats.num_factorizations == \
            stats.num_orderings + stats.num_symbolic_reuses

    def test_different_pattern_misses(self):
        cache = SymbolicCache()
        stats = LUStats()
        factorize(spd_matrix(25, seed=4), stats=stats, symbolic=cache)
        factorize(spd_matrix(25, seed=5), stats=stats, symbolic=cache)
        assert stats.num_orderings == 2
        assert stats.num_symbolic_reuses == 0
        assert len(cache) == 2

    def test_lru_eviction_bounds_the_cache(self, monkeypatch):
        monkeypatch.setattr(SymbolicCache, "MAX_ENTRIES", 2)
        cache = SymbolicCache()
        stats = LUStats()
        matrices = [spd_matrix(20, seed=s) for s in range(3)]
        for A in matrices:
            factorize(A, stats=stats, symbolic=cache)
        assert len(cache) == 2
        # the oldest pattern was evicted: factorizing it again re-analyzes
        factorize(matrices[0], stats=stats, symbolic=cache)
        assert stats.num_orderings == 4
        assert stats.num_symbolic_reuses == 0

    def test_clear(self):
        cache = SymbolicCache()
        factorize(spd_matrix(20), symbolic=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


def mna_matrices(circuit, state=0.0, h=1e-12):
    """``G`` and ``C/h + G`` of a circuit, evaluated at a constant state."""
    system = circuit.build()
    ev = system.evaluate(np.full(system.n, state))
    G = ev.G.tocsc()
    return G, (ev.C / h + ev.G).tocsc()


def symmetric_mna_cases():
    rlc_G, rlc_ChG = mna_matrices(rlc_line(12))
    pdn_G, _ = mna_matrices(pdn_multilayer(6, 6, layers=2, coupling_fraction=0.2,
                                           num_loads=2, seed=1))
    return [("rlc_line G", rlc_G), ("rlc_line C/h+G", rlc_ChG),
            ("pdn_multilayer G", pdn_G)]


def relative_residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


class TestOrderingChoice:
    """The SuperLU ordering follows the structural symmetry of the pattern."""

    def test_structural_symmetry_compares_the_pattern_not_the_counts(self):
        # a cycle has one entry per row and per column, yet is unsymmetric
        cycle = sp.csc_matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3))
        assert not structurally_symmetric((cycle + sp.identity(3)).tocsc())
        symmetric = (cycle + cycle.T + sp.identity(3)).tocsc()
        assert structurally_symmetric(symmetric)
        # stored zeros are pattern entries: values do not matter
        symmetric.data[:] = [0.0 if i == 1 else 1.0 for i in range(symmetric.nnz)]
        assert structurally_symmetric(symmetric)

    @pytest.mark.parametrize("case", range(3))
    def test_symmetric_mna_miss_and_hit_agree_and_fill_less(self, case):
        label, A = symmetric_mna_cases()[case]
        assert structurally_symmetric(A)
        # inductor and voltage-source branch rows carry a zero diagonal
        assert np.any(A.diagonal() == 0.0), label

        cache = SymbolicCache()
        miss = factorize(A, symbolic=cache)
        B = A.copy()
        B.data = B.data * 1.3
        hit = factorize(B, symbolic=cache)
        fresh_b = factorize(B, symbolic=SymbolicCache())
        assert not miss.reused_symbolic and hit.reused_symbolic
        assert miss.ordering is not None and miss.ordering.symmetric

        b = np.random.default_rng(5).standard_normal(A.shape[0])
        np.testing.assert_array_equal(hit.solve(b), fresh_b.solve(b))
        assert hit.nnz_factors == miss.nnz_factors
        assert miss.nnz_factors <= spla.splu(A.copy()).nnz
        assert factorize(A).nnz_factors <= spla.splu(A.copy()).nnz
        for lu, M in ((miss, A), (hit, B), (factorize(A), A)):
            assert relative_residual(M, lu.solve(b), b) <= 1e-12

    def test_unsymmetric_inverter_g_matches_default_splu(self):
        G, _ = mna_matrices(inverter_chain(4), state=0.5)
        assert not structurally_symmetric(G)
        reference = spla.splu(G.copy())
        cache = SymbolicCache()
        one_shot = factorize(G)
        miss = factorize(G, symbolic=cache)
        hit = factorize(G, symbolic=cache)
        assert hit.reused_symbolic and not hit.ordering.symmetric
        b = np.random.default_rng(2).standard_normal(G.shape[0])
        expected = reference.solve(b)
        for lu in (one_shot, miss, hit):
            assert lu.nnz_factors == reference.nnz
            np.testing.assert_array_equal(lu.solve(b), expected)

    def test_solve_many_and_refined_lu_match_column_solves(self):
        _, A = symmetric_mna_cases()[1]
        cache = SymbolicCache()
        factorize(A, symbolic=cache)
        lu = factorize(A, symbolic=cache)
        assert lu.ordering.symmetric
        rhs = np.random.default_rng(3).standard_normal((A.shape[0], 4))
        columns = np.stack([lu.solve(rhs[:, j]) for j in range(rhs.shape[1])], axis=1)
        np.testing.assert_array_equal(lu.solve_many(rhs), columns)

        # a stale factor of a nearby operator, refined against the exact one
        nearby = A.copy()
        nearby.data = nearby.data * (1.0 + 1e-4)
        refined = RefinedLU(lu, nearby, stats=None, rtol=1e-12)
        refined_columns = np.stack([refined.solve(rhs[:, j]) for j in range(rhs.shape[1])],
                                   axis=1)
        np.testing.assert_array_equal(refined.solve_many(rhs), refined_columns)
        assert not refined.fell_back
        for j in range(rhs.shape[1]):
            assert relative_residual(nearby, refined_columns[:, j], rhs[:, j]) <= 1e-12

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_gather_map_hit_equals_fancy_index_permutation(self, symmetric):
        if symmetric:
            A = symmetric_mna_cases()[2][1]
        else:
            A, _ = mna_matrices(inverter_chain(4), state=0.5)
        cache = SymbolicCache()
        factorize(A, symbolic=cache)
        hit = factorize(A, symbolic=cache)
        order = hit.ordering.order
        permuted = (A[order][:, order] if symmetric else A[:, order]).tocsc()
        permuted.sort_indices()
        width = panel_size(hit.ordering.fill)
        if symmetric:
            raw = spla.splu(permuted, permc_spec="NATURAL",
                            diag_pivot_thresh=SYMMETRIC_PIVOT_THRESHOLD,
                            panel_size=width, options={"SymmetricMode": True})
        else:
            raw = spla.splu(permuted, permc_spec="NATURAL", panel_size=width)
        np.testing.assert_array_equal(hit.ordering.permute(A).toarray(), permuted.toarray())
        b = np.random.default_rng(4).standard_normal(A.shape[0])
        y = raw.solve(b[order] if symmetric else b)
        expected = np.empty_like(y)
        expected[order] = y
        np.testing.assert_array_equal(hit.solve(b), expected)


class TestPanelWidth:
    """SuperLU's panel width follows the fill a pattern's first factor stored."""

    def test_rule_is_width_one_unless_the_fill_is_known_dense(self):
        assert panel_size(None) == 1
        assert panel_size(0.0) == 1
        assert panel_size(DENSE_FILL_PER_COLUMN) == 1
        assert panel_size(DENSE_FILL_PER_COLUMN + 1) is None  # SuperLU's default

    @pytest.mark.parametrize("name", circuit_factory_names())
    def test_fill_is_equal_at_both_widths(self, name):
        # lu.nnz is the Fig.-1 and Table-I quantity: the width may only
        # change the order of the updates, never what is stored
        system = build_small(name).build()
        ev = system.evaluate(np.full(system.n, 0.5))
        for A in (ev.G.tocsc(), (ev.C / 1e-12 + ev.G).tocsc()):
            A.sum_duplicates()
            symmetric = structurally_symmetric(A)
            narrow = sparse_lu._splu(A, symmetric)
            default = sparse_lu._splu(A, symmetric, width=None)
            assert narrow.nnz == default.nnz
            # a symmetric miss reads its ordering off a default-width pass
            np.testing.assert_array_equal(narrow.perm_c, default.perm_c)

    def test_factorizations_pass_the_rule_width(self, monkeypatch):
        widths = []
        splu = spla.splu

        def spy(matrix, **kwargs):
            widths.append(kwargs.get("panel_size"))
            return splu(matrix, **kwargs)

        monkeypatch.setattr(sparse_lu.spla, "splu", spy)
        A = symmetric_mna_cases()[2][1]
        factorize(A)  # an unknown pattern counts as sparse
        cache = SymbolicCache()
        # a miss: the throwaway ordering pass at SuperLU's default width,
        # then the numeric pass at the rule's
        miss = factorize(A, symbolic=cache)
        assert 0.0 < miss.ordering.fill < DENSE_FILL_PER_COLUMN
        factorize(A, symbolic=cache)
        assert widths == [1, None, 1, 1]

        # the same pattern, recorded as dense
        key = SymbolicCache.pattern_key(A)
        cache.store(key, dataclasses.replace(cache.lookup(key),
                                             fill=DENSE_FILL_PER_COLUMN + 1.0))
        hit = factorize(A, symbolic=cache)
        assert hit.reused_symbolic and widths[-1] is None
        assert hit.nnz_factors == miss.nnz_factors

        # the DC seed carries the fill into the transient's cache
        widths.clear()
        seed = factorize(A).ordering_seed(A)
        assert seed.fill == miss.ordering.fill
        dense_seed = dataclasses.replace(seed, fill=DENSE_FILL_PER_COLUMN + 1.0)
        transient = SymbolicCache()
        dense_seed.install(transient)
        assert factorize(A, symbolic=transient).reused_symbolic
        assert widths == [1, None]

    def test_dense_pattern_runs_the_default_width_from_its_first_numeric_pass(
            self, monkeypatch):
        widths = []
        splu = spla.splu

        def spy(matrix, **kwargs):
            widths.append(kwargs.get("panel_size"))
            return splu(matrix, **kwargs)

        monkeypatch.setattr(sparse_lu.spla, "splu", spy)
        A = spd_matrix(400, seed=3)
        cache = SymbolicCache()
        miss = factorize(A, symbolic=cache)
        assert miss.ordering.fill > DENSE_FILL_PER_COLUMN
        hit = factorize(A, symbolic=cache)
        # the miss's ordering pass and numeric pass both run the default
        # width, as before the rule; the numeric pass matches every later hit
        assert widths == [None, None, None]
        b = np.random.default_rng(7).standard_normal(A.shape[0])
        np.testing.assert_array_equal(hit.solve(b), miss.solve(b))

    def test_unsymmetric_hit_is_bit_identical_to_plain_factorize(self):
        mna = make_ckt("ckt4", scale=0.4).circuit.build()
        G = mna.evaluate(np.full(mna.n, 0.5)).G.tocsc()
        assert not structurally_symmetric(G)
        cache = SymbolicCache()
        factorize(G, symbolic=cache)
        B = G.copy()
        B.data = B.data * np.linspace(0.9, 1.1, B.nnz)
        hit = factorize(B, symbolic=cache)
        plain = factorize(B)
        assert hit.reused_symbolic and hit.nnz_factors == plain.nnz_factors
        b = np.random.default_rng(6).standard_normal(G.shape[0])
        np.testing.assert_array_equal(hit.solve(b), plain.solve(b))


class TestBudget:
    def test_budget_exceeded_raises(self):
        A = spd_matrix(50, seed=2)
        with pytest.raises(FactorizationBudgetExceeded) as info:
            factorize(A, max_factor_nnz=10, label="C/h+G")
        assert info.value.budget == 10
        assert info.value.nnz_factors > 10
        assert "C/h+G" in str(info.value)

    def test_budget_not_exceeded_passes(self):
        A = spd_matrix(10)
        lu = factorize(A, max_factor_nnz=10_000)
        assert lu.nnz_factors <= 10_000

    def test_stats_still_recorded_when_budget_exceeded(self):
        stats = LUStats()
        with pytest.raises(FactorizationBudgetExceeded):
            factorize(spd_matrix(50, seed=2), stats=stats, max_factor_nnz=10)
        assert stats.num_factorizations == 1
