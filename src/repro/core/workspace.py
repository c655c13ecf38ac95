"""Cross-step linearization and LU caching -- the hot-path workspace.

The paper's flagship benchmarks (RC meshes, power grids, coupled
interconnect) are *linear* circuits: ``C``, ``G`` and therefore ``LU(G)``
(and, for the implicit baselines, ``LU(C/h + G)`` at a fixed ``h``) are
constant for the whole transient.  :class:`LinearizationCache` keeps the
integrators from re-assembling and re-factorizing them on every step:

* **Linear fast path** -- when ``mna.has_nonlinear`` is False the cache
  hands out the assembled matrices and reuses one
  :class:`~repro.linalg.sparse_lu.SparseLU` per matrix key across all
  steps.  Shifted systems such as ``C/h + G`` are keyed by their scalar
  coefficients, so a factorization is reused until the step size
  actually changes.  Results are bit-identical to the
  uncached path: the cached objects carry exactly the floats the per-step
  assembly would have produced.
* **Cross-``h`` stale reuse** -- applied to *step-size* drift on the
  linear fast path (``SimOptions.h_bypass_tol``): a request for
  ``LU(C/h_new + G)`` that only just misses a cached ``LU(C/h_cached + G)``
  is served by the stale factors plus iterative refinement against the
  exact operator (:class:`~repro.linalg.sparse_lu.RefinedLU`), so adaptive
  controllers stop paying a fresh factorization for every small ``h``
  adjustment.  It never perturbs the solution beyond the refinement
  tolerance, and stalled refinements fall back to (counted) real
  factorizations.

Nonlinear circuits are never served a stale factorization: their
linearization changes with the state, so every request is a real
factorization.

Honest accounting is part of the contract: reuses land in
``LUStats.num_reused`` / ``num_stale_reuses`` while ``num_factorizations``
keeps counting only real numerical work, so the Table-I ``#LU`` column is
unchanged in meaning and the cache's effect is visible in the statistics
rather than hidden by them.

Below the value-keyed LU cache sits a *pattern*-keyed
:class:`~repro.linalg.sparse_lu.SymbolicCache`: when a factorization
cannot be avoided but the sparsity pattern was seen before, the
fill-reducing ordering is reused and only the numeric phase runs.  Such
refactorizations stay in ``num_factorizations`` (they are real work) and
are additionally tallied in ``num_symbolic_reuses``; fresh analyses count
in ``num_orderings``, with
``num_factorizations == num_orderings + num_symbolic_reuses``.

The exact reuses are always on; the run that reuses nothing -- the
baseline of the exactness and accounting checks -- is
:class:`repro.verify.reference.UncachedReference`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import EvalResult, MNASystem
from repro.core.options import SimOptions
from repro.linalg.sparse_lu import (
    LUStats,
    RefinedLU,
    SparseLU,
    SymbolicCache,
    factorize,
)

__all__ = ["LinearizationCache", "H_BYPASS_REFINE_TOL", "H_BYPASS_MAX_REFINEMENTS"]

#: relative residual target of the iterative refinement behind a stale
#: cross-``h`` solve
H_BYPASS_REFINE_TOL = 1e-10
#: refinement sweeps before a stale solve falls back to a fresh
#: factorization (counted in ``LUStats.num_refinement_fallbacks``)
H_BYPASS_MAX_REFINEMENTS = 8

#: cache keys are a tag plus the scalars that parameterize the matrix
CacheKey = Tuple[object, ...]


def _same_values(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    """True when two sparse matrices hold bit-identical values."""
    if a is b:
        return True
    if a.shape != b.shape or a.nnz != b.nnz:
        return False
    a = a.tocsc()
    b = b.tocsc()
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class LinearizationCache:
    """Per-integrator cache of linearizations and LU factorizations."""

    #: cap on distinct cached (matrix, LU) entries: large enough that an
    #: oscillating controller (h up, reject, h down) rehits every rung
    MAX_ENTRIES = 8

    def __init__(self, mna: MNASystem, options: Optional[SimOptions] = None):
        self.mna = mna
        options = options if options is not None else SimOptions()
        self.max_entries = self.MAX_ENTRIES
        #: cross-``h`` stale-reuse threshold; 0 keeps the exact-key policy
        self.h_bypass_tol = float(options.h_bypass_tol)
        #: pattern-keyed symbolic-factorization reuse; orthogonal to the
        #: value-keyed LU cache above it (a fresh factorization with a
        #: reused ordering is still a real, counted factorization)
        self.symbolic = SymbolicCache()
        self._matrices: "OrderedDict[CacheKey, sp.spmatrix]" = OrderedDict()
        self._lus: "OrderedDict[CacheKey, Tuple[sp.spmatrix, SparseLU]]" = OrderedDict()

    # -- mode ---------------------------------------------------------------------------

    @property
    def reuse_exact(self) -> bool:
        """Linear circuit: matrices are run constants."""
        return not self.mna.has_nonlinear

    def invalidate(self) -> None:
        """Drop every cached matrix, factorization and symbolic ordering."""
        self._matrices.clear()
        self._lus.clear()
        self.symbolic.clear()

    def _put(self, store: "OrderedDict", key: CacheKey, value) -> None:
        """Insert as most-recent and evict least-recent past the capacity."""
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.max_entries:
            store.popitem(last=False)

    # -- linearization ------------------------------------------------------------------

    def evaluate(self, x: np.ndarray) -> EvalResult:
        """Evaluate the circuit at ``x``.

        On the linear fast path the constant ``C`` and ``G`` are assembled
        once and only the state-dependent vectors ``f = G x`` and
        ``q = C x`` are recomputed -- with exactly the arithmetic of the
        uncached path, so trajectories are bit-identical.
        """
        mna = self.mna
        if self.reuse_exact:
            x = np.asarray(x, dtype=float)
            if x.shape != (mna.n,):
                raise ValueError(
                    f"state vector must have shape ({mna.n},), got {x.shape}"
                )
            f = np.asarray(mna.G_lin @ x).ravel()
            q = np.asarray(mna.C_lin @ x).ravel()
            return EvalResult(C=mna.C_lin, G=mna.G_lin, f=f, q=q)
        return mna.evaluate(x)

    # -- assembled-matrix memoization ------------------------------------------------------

    def matrix(self, key: CacheKey, builder: Callable[[], sp.spmatrix]) -> sp.spmatrix:
        """Memoize ``builder()`` under ``key`` on the linear fast path.

        For nonlinear circuits the builder runs every call (its value
        depends on the current state); for linear circuits the assembled
        combination (e.g. ``C/h + G``) is a constant of the key.
        """
        if not self.reuse_exact:
            return builder()
        cached = self._matrices.get(key)
        if cached is None:
            cached = builder()
            self._put(self._matrices, key, cached)
        else:
            self._matrices.move_to_end(key)
        return cached

    # -- factorization reuse ----------------------------------------------------------------

    def lu(
        self,
        key: CacheKey,
        matrix: sp.spmatrix,
        stats: Optional[LUStats] = None,
        max_factor_nnz: Optional[int] = None,
        label: str = "",
    ) -> SparseLU:
        """Return an LU of ``matrix``, reusing the cached factors when valid.

        Reuse policy on the linear fast path, in order (nonlinear circuits
        always get a fresh, uncached factorization):

        1. exact -- the matrix under ``key`` is unchanged (object identity
           or bit-identical values); counted in ``stats.num_reused``;
        2. stale cross-``h`` -- with ``h_bypass_tol > 0``:
           when no exact entry exists but a cached key differs only in its
           float components (the step size) by at most ``h_bypass_tol``
           relative, the closest such factorization is handed out wrapped
           in a :class:`~repro.linalg.sparse_lu.RefinedLU` that solves the
           *exact* requested operator by iterative refinement; counted in
           ``stats.num_stale_reuses`` (with failed refinements falling back
           to a real factorization, counted in
           ``stats.num_refinement_fallbacks``);
        3. otherwise a real factorization is performed (and cached).
        """
        entry = self._lus.get(key)
        if entry is not None:
            # entries exist only on the linear path
            stored, lu = entry
            if _same_values(matrix, stored):
                self._lus.move_to_end(key)
                lu.rebind_stats(stats)
                if stats is not None:
                    stats.num_reused += 1
                return lu

        if entry is None and self.reuse_exact and self.h_bypass_tol > 0.0:
            stale = self._stale_candidate(key)
            if stale is not None:
                stale_key, stale_lu = stale
                self._lus.move_to_end(stale_key)
                if stats is not None:
                    stats.num_stale_reuses += 1

                def fallback() -> SparseLU:
                    fresh = factorize(matrix, stats=stats,
                                      max_factor_nnz=max_factor_nnz,
                                      label=label, symbolic=self.symbolic)
                    self._put(self._lus, key, (matrix, fresh))
                    return fresh

                return RefinedLU(
                    stale_lu,
                    matrix,
                    stats,
                    rtol=H_BYPASS_REFINE_TOL,
                    max_refinements=H_BYPASS_MAX_REFINEMENTS,
                    fallback=fallback,
                    label=label or stale_lu.label,
                )

        lu = factorize(matrix, stats=stats,
                       max_factor_nnz=max_factor_nnz, label=label,
                       symbolic=self.symbolic)
        if self.reuse_exact:
            self._put(self._lus, key, (matrix, lu))
        return lu

    # -- stale cross-h candidates -----------------------------------------------------------

    def _stale_candidate(
        self, key: CacheKey
    ) -> Optional[Tuple[CacheKey, SparseLU]]:
        """Find the cached factorization closest to ``key`` within tolerance.

        Two keys are comparable when they have the same arity and agree on
        every non-float component (the method tag); each float component
        (the step size, Gear's ``a0``) must stay within ``h_bypass_tol``
        relative to the cached value.  Among comparable entries the one
        with the smallest drift wins -- refinement converges at a rate set
        by the drift, so closer is strictly cheaper.
        """
        best: Optional[Tuple[CacheKey, SparseLU]] = None
        best_drift = np.inf
        for cached_key, (_, cached_lu) in self._lus.items():
            if not isinstance(cached_lu, SparseLU):
                continue
            drift = self._key_drift(key, cached_key)
            if drift is not None and drift < best_drift:
                best = (cached_key, cached_lu)
                best_drift = drift
        return best

    def _key_drift(self, new_key: CacheKey, old_key: CacheKey) -> Optional[float]:
        """Relative float-component distance between keys, or None if apart."""
        if len(new_key) != len(old_key):
            return None
        drift = 0.0
        for new_part, old_part in zip(new_key, old_key):
            if isinstance(new_part, float) and isinstance(old_part, float):
                if new_part == old_part:
                    continue
                if old_part == 0.0:
                    return None
                part = abs(new_part - old_part) / abs(old_part)
                if not part <= self.h_bypass_tol:
                    return None
                drift = max(drift, part)
            elif new_part != old_part:
                return None
        return drift
