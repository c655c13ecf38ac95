"""Instrumented sparse LU factorization.

The central claim of the paper is a *cost model*: BENR pays for repeated
LU factorizations of ``(C/h + G)`` whose factors fill in badly when ``C``
carries post-layout coupling, while the exponential framework only ever
factorizes ``G`` (once per accepted step, reusable across step-size
changes).  To make that cost model observable and testable, every
factorization in this code base goes through :func:`factorize`, which

* counts factorizations and triangular solves,
* records the fill-in (``nnz(L) + nnz(U)``) of every factor,
* accumulates wall-clock time spent factorizing and solving,
* optionally enforces a fill-in budget (``max_factor_nnz``) that emulates
  the 32 GB memory limit which makes BENR fail on the paper's ckt6-ckt8
  ("Out of Memory" rows in Table I).

The SuperLU ordering is chosen from the matrix itself.  Every linear
R/L/C/V/I stamp is placed symmetrically, so linear MNA matrices are
*structurally symmetric* (pattern == pattern^T); those are ordered by
symmetric minimum degree on ``A^T + A`` (:data:`SYMMETRIC_ORDERING`) in
SuperLU's symmetric mode, with a diagonal pivot threshold
(:data:`SYMMETRIC_PIVOT_THRESHOLD`) that still pivots on the zero-diagonal
branch rows of inductors and voltage sources.  This fills far less than
SuperLU's default COLAMD (e.g. 175k vs 275k factor entries for a 3242-
unknown PDN ``G``).  Unsymmetric patterns -- device Jacobians with
one-sided transconductances -- keep COLAMD with partial pivoting, on which
the symmetric ordering fills several times worse.

SuperLU updates columns in panels, 20 columns wide by default.  That
width pays off on wide supernodes; MNA factors that store up to about 200
entries per column have narrow ones, and there the panel overhead
dominates.  The panel width therefore follows the pattern's measured
fill, ``nnz(L) + nnz(U)`` per column of its first factorization
(:func:`panel_size`): width 1 unless that fill exceeds
:data:`DENSE_FILL_PER_COLUMN`, SuperLU's default above it.  A pattern not
yet factorized counts as sparse.  Width changes neither the ordering nor
the factor fill, only the update order, so solutions move in the last
bits at most.  Measured on the symmetric ``C/h + G`` of 2-layer PDNs
(numeric pass only): width 1 is faster up to 211 entries per column
(``pdn_benr`` at 41: 1.07 -> 0.81 ms), even at 226, 12% slower at 280 and
1.4x slower at 413.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "LUStats",
    "SparseLU",
    "RefinedLU",
    "OrderingSeed",
    "SymbolicCache",
    "SymbolicOrdering",
    "FactorizationBudgetExceeded",
    "factorize",
    "panel_size",
    "structurally_symmetric",
]


class FactorizationBudgetExceeded(RuntimeError):
    """Raised when an LU factor exceeds the configured fill-in budget.

    This models the paper's "Out of Memory" failure mode of BENR on the
    strongly coupled test cases ckt6-ckt8 in a deterministic, portable way.
    """

    def __init__(self, nnz_factors: int, budget: int, label: str = ""):
        what = f" while factorizing {label}" if label else ""
        super().__init__(
            f"LU factor fill-in {nnz_factors} exceeds budget {budget}{what}"
        )
        self.nnz_factors = nnz_factors
        self.budget = budget
        self.label = label


@dataclass
class LUStats:
    """Counters accumulated across all LU operations of one simulation run.

    ``num_factorizations`` counts *real* factorizations only.  Reuses of a
    cached factor (see :mod:`repro.core.workspace`) are tallied separately
    so the Table-I ``#LU`` column stays an honest measure of the numerical
    work performed: ``num_reused`` counts exact reuses (the matrix is
    bit-identical, e.g. the constant ``G`` of a linear circuit) and
    ``num_stale_reuses`` counts cross-``h`` reuses served by refinement.
    ``num_bypassed`` always reads 0: SPICE-style bypass was retired, and
    the field stays for readers of older counter sets.
    """

    num_factorizations: int = 0
    num_solves: int = 0
    factor_time: float = 0.0
    solve_time: float = 0.0
    #: fill-in nnz(L)+nnz(U) of each factorization, in order
    factor_nnz: List[int] = field(default_factory=list)
    #: cache hits on an unchanged matrix (no numerical work skipped silently)
    num_reused: int = 0
    #: retired SPICE-style bypass reuses; always 0
    num_bypassed: int = 0
    #: factorizations that computed a fresh fill-reducing ordering
    num_orderings: int = 0
    #: numeric refactorizations that reused a pattern-matched ordering
    num_symbolic_reuses: int = 0
    #: requests served by a stale cross-``h`` factorization plus iterative
    #: refinement (see :class:`RefinedLU`); each one is a factorization the
    #: adaptive controller did not pay for
    num_stale_reuses: int = 0
    #: stale cross-``h`` solves whose refinement residual stayed above
    #: tolerance, forcing a fresh factorization after all (that
    #: factorization lands in ``num_factorizations`` too, so the net LU
    #: saving is ``num_stale_reuses - num_refinement_fallbacks``)
    num_refinement_fallbacks: int = 0

    @property
    def peak_factor_nnz(self) -> int:
        return max(self.factor_nnz) if self.factor_nnz else 0

    @property
    def total_factor_nnz(self) -> int:
        return sum(self.factor_nnz)

    @property
    def num_cache_hits(self) -> int:
        """Factorizations avoided through exact reuse."""
        return self.num_reused

    def merge(self, other: "LUStats") -> None:
        """Accumulate counters from another stats object in place."""
        self.num_factorizations += other.num_factorizations
        self.num_solves += other.num_solves
        self.factor_time += other.factor_time
        self.solve_time += other.solve_time
        self.factor_nnz.extend(other.factor_nnz)
        self.num_reused += other.num_reused
        self.num_bypassed += other.num_bypassed
        self.num_orderings += other.num_orderings
        self.num_symbolic_reuses += other.num_symbolic_reuses
        self.num_stale_reuses += other.num_stale_reuses
        self.num_refinement_fallbacks += other.num_refinement_fallbacks

    def as_dict(self) -> dict:
        return {
            "num_factorizations": self.num_factorizations,
            "num_solves": self.num_solves,
            "factor_time": self.factor_time,
            "solve_time": self.solve_time,
            "peak_factor_nnz": self.peak_factor_nnz,
            "total_factor_nnz": self.total_factor_nnz,
            "num_reused": self.num_reused,
            "num_bypassed": self.num_bypassed,
            "num_orderings": self.num_orderings,
            "num_symbolic_reuses": self.num_symbolic_reuses,
            "num_stale_reuses": self.num_stale_reuses,
            "num_refinement_fallbacks": self.num_refinement_fallbacks,
        }


#: SuperLU ordering for a structurally symmetric pattern: minimum degree on
#: the pattern of ``A^T + A``, which keeps symmetric MNA factors sparse
SYMMETRIC_ORDERING = "MMD_AT_PLUS_A"
#: diagonal pivot threshold in symmetric mode: the diagonal is taken when it
#: is at least this fraction of the column maximum, so the zero-diagonal
#: branch rows of inductors and voltage sources still pivot off-diagonal
SYMMETRIC_PIVOT_THRESHOLD = 0.1
#: factor fill (stored entries per column) above which a pattern counts as
#: dense and SuperLU keeps its default panel width; below it the panel is
#: one column wide (see the module docstring for the measured crossover)
DENSE_FILL_PER_COLUMN = 225

#: a symbolic-cache key: (shape, nnz, digest of the index structure)
PatternKey = Tuple[Tuple[int, int], int, str]


def structurally_symmetric(matrix: sp.csc_matrix) -> bool:
    """True when the sparsity pattern of a canonical CSC matrix equals its transpose.

    Every linear R/L/C/V/I stamp is placed symmetrically, so linear MNA
    matrices pass; device Jacobians with one-sided couplings (MOSFET
    transconductances) do not.  Stored zeros count as pattern entries.
    """
    n = matrix.shape[0]
    columns = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    rows = matrix.indices.astype(np.int64)
    # entry keys of A^T, sorted, against those of A (already sorted in CSC)
    transposed = rows * n + columns
    transposed.sort()
    return bool((transposed == columns * n + rows).all())


def panel_size(fill: Optional[float]) -> Optional[int]:
    """SuperLU's panel width for a pattern whose factor stored ``fill``
    entries per column: None (SuperLU's default) above
    :data:`DENSE_FILL_PER_COLUMN`, else 1; an unknown fill (None) counts as
    sparse."""
    return None if fill is not None and fill > DENSE_FILL_PER_COLUMN else 1


def _splu(matrix: sp.csc_matrix, symmetric: bool, natural: bool = False,
          width: Optional[int] = 1) -> spla.SuperLU:
    """One SuperLU call under the ordering chosen for the pattern.

    ``natural`` skips the ordering phase (the matrix is already permuted).
    Unsymmetric patterns keep SuperLU's default COLAMD with partial pivoting.
    ``width`` is the panel width (None: SuperLU's default); the default of 1
    is :func:`panel_size` of a pattern not yet factorized.
    """
    if symmetric:
        return spla.splu(matrix, permc_spec="NATURAL" if natural else SYMMETRIC_ORDERING,
                         diag_pivot_thresh=SYMMETRIC_PIVOT_THRESHOLD,
                         panel_size=width, options={"SymmetricMode": True})
    if natural:
        return spla.splu(matrix, permc_spec="NATURAL", panel_size=width)
    return spla.splu(matrix, panel_size=width)


def _fill(lu: spla.SuperLU) -> float:
    """Stored factor entries per column of a factorization."""
    return lu.nnz / lu.shape[1]


@dataclass(frozen=True)
class SymbolicOrdering:
    """A remembered fill-reducing ordering of one sparsity pattern.

    Position ``j`` of the permuted matrix holds original column (and, for a
    symmetric pattern, row) ``order[j]``; ``rank`` is the inverse map, so
    original index ``i`` sits at ``rank[i]``.  ``indptr``/``indices`` are
    the CSC structure of the permuted matrix and ``gather`` maps its stored
    entries to those of the original, so a same-pattern matrix is permuted
    by ``data[gather]``.  ``fill`` is the stored factor entries per column
    of the pattern's first factorization; it sets the panel width of every
    later one (:func:`panel_size`).
    """

    symmetric: bool
    order: np.ndarray
    rank: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    fill: float

    @classmethod
    def from_permutation(cls, matrix: sp.csc_matrix, perm_c: np.ndarray,
                         symmetric: bool, fill: float) -> "SymbolicOrdering":
        """Maps for ``P A P^T`` (symmetric) or ``A P^T`` from SuperLU's ``perm_c``."""
        # a copy (SuperLU's array is a view that keeps the whole factor
        # alive) in the native index type, which NumPy gathers fastest
        perm_c = np.array(perm_c, dtype=np.intp)
        n = matrix.shape[0]
        columns = np.repeat(perm_c, np.diff(matrix.indptr))
        rows = perm_c[matrix.indices] if symmetric else matrix.indices
        # CSC order of the permuted entries: by new column, then by new row
        gather = np.argsort(columns * n + rows)
        indptr = np.zeros(n + 1, dtype=matrix.indptr.dtype)
        np.cumsum(np.bincount(columns, minlength=n), out=indptr[1:])
        return cls(symmetric, np.argsort(perm_c), perm_c, indptr,
                   rows[gather].astype(matrix.indices.dtype, copy=False), gather,
                   float(fill))

    def permute(self, matrix: sp.csc_matrix) -> sp.csc_matrix:
        """The permuted copy of a matrix with the remembered pattern."""
        permuted = sp.csc_matrix((matrix.data[self.gather], self.indices, self.indptr),
                                 shape=matrix.shape, copy=False)
        permuted.has_canonical_format = True
        return permuted


class SymbolicCache:
    """Pattern-keyed reuse of fill-reducing orderings.

    SuperLU's ordering depends only on the sparsity *pattern* of the
    matrix, yet :func:`scipy.sparse.linalg.splu` recomputes it on every
    call.  For the implicit methods this is pure waste: every ``C/h + G``
    Jacobian of a transient shares one pattern, and a step-size change
    re-analyzes a structure that has not moved.  This cache remembers one
    :class:`SymbolicOrdering` per pattern; later same-pattern matrices are
    permuted with it (a data gather) and factorized under
    ``permc_spec="NATURAL"``, which skips the ordering phase.

    * **Structurally symmetric** patterns (every linear MNA matrix) are
      ordered by symmetric minimum degree (:data:`SYMMETRIC_ORDERING`) and
      permuted on both sides, ``P A P^T``.  *Every* factorization through
      the cache, the first one included, is the ``NATURAL`` factorization
      of ``P A P^T``; a miss only adds a throwaway ordering pass.  Hits are
      therefore bit-identical to misses by construction.
    * **Unsymmetric** patterns keep SuperLU's COLAMD with partial pivoting:
      the miss is the plain factorization and hits pre-permute columns
      only, ``A P^T`` -- the same computation SuperLU does after COLAMD,
      so hits are bit-identical to a plain :func:`factorize` as long as
      both run the same panel width, that is, unless the pattern filled
      above :data:`DENSE_FILL_PER_COLUMN` (the miss, its fill not yet
      known, runs width 1).

    A symmetric miss runs its throwaway ordering pass at SuperLU's default
    width: only its ``perm_c`` and fill are read, and neither depends on
    the width, so a dense pattern's first factorization costs what it did
    before the width rule.

    Reuses are tallied in ``LUStats.num_symbolic_reuses`` and fresh analyses
    in ``num_orderings``; the accounting invariant
    ``num_factorizations == num_orderings + num_symbolic_reuses`` is checked
    by the verify matrix.
    """

    #: distinct sparsity patterns remembered (one per matrix family is typical)
    MAX_ENTRIES = 8

    def __init__(self):
        self._orderings: "OrderedDict[PatternKey, SymbolicOrdering]" = OrderedDict()

    @staticmethod
    def pattern_key(matrix: sp.csc_matrix) -> PatternKey:
        """Hash the CSC index structure (values excluded) into a cache key."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(matrix.indptr.tobytes())
        digest.update(matrix.indices.tobytes())
        return (matrix.shape, int(matrix.nnz), digest.hexdigest())

    def lookup(self, key: PatternKey) -> Optional[SymbolicOrdering]:
        """Return the stored ordering for ``key``, if any."""
        ordering = self._orderings.get(key)
        if ordering is not None:
            self._orderings.move_to_end(key)
        return ordering

    def store(self, key: PatternKey, ordering: SymbolicOrdering) -> None:
        """Remember the ordering a fresh analysis just computed."""
        self._orderings[key] = ordering
        self._orderings.move_to_end(key)
        while len(self._orderings) > self.MAX_ENTRIES:
            self._orderings.popitem(last=False)

    def clear(self) -> None:
        self._orderings.clear()

    def __contains__(self, key: PatternKey) -> bool:
        return key in self._orderings

    def __len__(self) -> int:
        return len(self._orderings)


@dataclass(frozen=True)
class OrderingSeed:
    """The ordering a factorization chose, detached from the factor.

    The DC solve factorizes its symmetric Jacobians in one pass each and
    sends its unsymmetric ones through one :class:`SymbolicCache` of its
    own; it keeps the ordering of its last factorization as a seed, which
    the transient installs in its own cache.  The transient's first
    factorization of the same pattern then skips the ordering pass,
    bit-identically: the ordering depends on the pattern alone (not on the
    panel width), and a symmetric miss would compute it with the same
    ``splu`` ordering the DC ran.

    ``perm_c`` is a copy -- SuperLU's own array is a view that keeps the
    whole factor alive -- and only the pattern of ``matrix`` is read.
    ``fill`` is the pattern's factor fill per column, which sets the panel
    width of the transient's factorizations.
    """

    matrix: sp.csc_matrix
    perm_c: np.ndarray
    symmetric: bool
    fill: float

    def install(self, symbolic: SymbolicCache) -> None:
        """Store the ordering in ``symbolic`` unless its pattern is known there."""
        key = SymbolicCache.pattern_key(self.matrix)
        if key not in symbolic:
            symbolic.store(key, SymbolicOrdering.from_permutation(
                self.matrix, self.perm_c, self.symmetric, self.fill))


class SparseLU:
    """A factored sparse matrix with instrumented solves.

    When the factorization ran on a permuted copy of the matrix (see
    :class:`SymbolicCache`), ``ordering`` carries the permutation and
    solves transparently permute the right-hand side and un-permute the
    result, so callers see exactly the solution of the original system.
    """

    def __init__(self, lu: spla.SuperLU, stats: Optional[LUStats], label: str = "",
                 ordering: Optional[SymbolicOrdering] = None,
                 reused_symbolic: bool = False, symmetric: bool = False):
        self._lu = lu
        self._stats = stats
        self.label = label
        #: SuperLU's own count of stored factor entries (supernodal storage,
        #: a few percent above the mathematical nnz(L)+nnz(U)).  Reading it
        #: is free; materializing ``lu.L``/``lu.U`` for the exact split
        #: costs O(fill) memory per factorization, which at 100k nodes is
        #: a gigabyte-scale transient -- so the split is lazy below.
        self._nnz_factors = int(lu.nnz)
        self._nnz_L: Optional[int] = None
        self._nnz_U: Optional[int] = None
        #: permutation applied before factorization, or None
        self.ordering = ordering
        #: True when this factorization skipped the ordering phase
        self.reused_symbolic = reused_symbolic
        #: True when the pattern was ordered as structurally symmetric
        self.symmetric = ordering.symmetric if ordering is not None else symmetric

    @property
    def nnz_factors(self) -> int:
        """Stored non-zeros of the L and U factors (the Fig. 1 quantity).

        This is SuperLU's storage count, which includes supernodal padding;
        it is what the factorization actually allocates, and it is identical
        between a fresh ordering and a symbolic-reuse refactorization of the
        same pattern.
        """
        return self._nnz_factors

    @property
    def nnz_L(self) -> int:
        """Exact non-zeros of L; materializes the factor on first access."""
        if self._nnz_L is None:
            self._nnz_L = int(self._lu.L.nnz)
        return self._nnz_L

    @property
    def nnz_U(self) -> int:
        """Exact non-zeros of U; materializes the factor on first access."""
        if self._nnz_U is None:
            self._nnz_U = int(self._lu.U.nnz)
        return self._nnz_U

    @property
    def shape(self) -> tuple:
        return self._lu.shape

    def ordering_seed(self, matrix: sp.csc_matrix) -> OrderingSeed:
        """The ordering this factorization chose for ``matrix``, as a seed."""
        if self.ordering is not None:
            return OrderingSeed(matrix, self.ordering.rank, self.symmetric, self.ordering.fill)
        return OrderingSeed(matrix, np.array(self._lu.perm_c, dtype=np.intp), self.symmetric,
                            _fill(self._lu))

    def rebind_stats(self, stats: Optional[LUStats]) -> None:
        """Attribute future solves to ``stats``.

        A factorization cached across steps (or runs) must charge its
        triangular solves to the statistics of the run that *uses* it, not
        the run that created it; the cache layer rebinds on every reuse.
        """
        self._stats = stats

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """Back-substitute in original coordinates without touching stats."""
        ordering = self.ordering
        if ordering is None:
            return self._lu.solve(b)
        if ordering.symmetric:
            b = b[ordering.order]
        return self._lu.solve(b)[ordering.rank]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factors."""
        start = time.perf_counter()
        x = self._solve(np.asarray(b, dtype=float))
        if self._stats is not None:
            self._stats.num_solves += 1
            self._stats.solve_time += time.perf_counter() - start
        return x

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Solve for several right-hand sides stacked as columns."""
        start = time.perf_counter()
        x = self._solve(np.asarray(B, dtype=float))
        if self._stats is not None:
            self._stats.num_solves += B.shape[1] if B.ndim == 2 else 1
            self._stats.solve_time += time.perf_counter() - start
        return x

    def __repr__(self) -> str:
        return f"SparseLU(shape={self.shape}, nnz_factors={self.nnz_factors}, label={self.label!r})"


class RefinedLU:
    """A stale factorization promoted to an exact solver by refinement.

    The adaptive-stepping cache hands this out when a Jacobian is requested
    at ``h_new`` but only ``LU(C/h_cached + G)`` with a nearby ``h_cached``
    is in store.  Each :meth:`solve` runs iterative refinement: the stale
    factors produce a first guess, residuals are formed against the *exact*
    ``C/h_new + G`` operator, and stale back-substitutions correct until the
    relative residual drops below ``rtol``.  The error contracts roughly by
    the relative step drift per sweep, so a drift bounded by
    ``SimOptions.h_bypass_tol`` converges in a handful of triangular solves
    -- far cheaper than a fresh factorization.  If the cap is hit first the
    wrapper falls back to a real factorization (``fallback``), counts it in
    ``LUStats.num_refinement_fallbacks`` and delegates this and all later
    solves to the fresh factors, so results are never silently inexact.

    One :meth:`solve` counts as one logical solve in ``LUStats.num_solves``
    regardless of how many internal refinement sweeps it took; this keeps
    the verify-matrix accounting identity
    ``#solves == (#LU - fallbacks) + exact hits + stale reuses``
    exact for the implicit methods.
    """

    def __init__(
        self,
        stale: SparseLU,
        matrix: sp.spmatrix,
        stats: Optional[LUStats],
        rtol: float = 1e-10,
        max_refinements: int = 8,
        fallback=None,
        label: str = "",
    ):
        self._stale = stale
        self._matrix = matrix.tocsc()
        self._stats = stats
        self._rtol = float(rtol)
        self._max_refinements = int(max_refinements)
        #: zero-argument callable producing a fresh :class:`SparseLU` of the
        #: exact operator; invoked at most once
        self._fallback = fallback
        self._fresh: Optional[SparseLU] = None
        self.label = label or stale.label

    @property
    def shape(self) -> tuple:
        return self._stale.shape

    @property
    def nnz_factors(self) -> int:
        active = self._fresh if self._fresh is not None else self._stale
        return active.nnz_factors

    @property
    def fell_back(self) -> bool:
        """True once refinement gave up and a fresh factorization took over."""
        return self._fresh is not None

    def rebind_stats(self, stats: Optional[LUStats]) -> None:
        self._stats = stats
        if self._fresh is not None:
            self._fresh.rebind_stats(stats)

    def _raw(self, b: np.ndarray) -> np.ndarray:
        """Back-substitute through the stale factors without touching stats."""
        return self._stale._solve(b)

    def _refine(self, b: np.ndarray) -> Tuple[np.ndarray, bool]:
        bnorm = float(np.linalg.norm(b))
        tol = self._rtol * (bnorm if bnorm > 0.0 else 1.0)
        x = self._raw(b)
        for _ in range(self._max_refinements):
            residual = b - self._matrix @ x
            if float(np.linalg.norm(residual)) <= tol:
                return x, True
            x = x + self._raw(residual)
        residual = b - self._matrix @ x
        return x, float(np.linalg.norm(residual)) <= tol

    def _promote(self) -> SparseLU:
        """Refinement stalled: charge a fallback and factorize for real."""
        if self._fallback is None:
            raise np.linalg.LinAlgError(
                f"iterative refinement stalled for {self.label or 'matrix'} "
                "and no fallback factorizer was provided"
            )
        if self._stats is not None:
            self._stats.num_refinement_fallbacks += 1
        self._fresh = self._fallback()
        self._fresh.rebind_stats(self._stats)
        return self._fresh

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve the exact system ``(C/h_new + G) x = b``."""
        if self._fresh is not None:
            return self._fresh.solve(b)
        b = np.asarray(b, dtype=float)
        start = time.perf_counter()
        x, converged = self._refine(b)
        if not converged:
            if self._stats is not None:
                self._stats.solve_time += time.perf_counter() - start
            return self._promote().solve(b)
        if self._stats is not None:
            self._stats.num_solves += 1
            self._stats.solve_time += time.perf_counter() - start
        return x

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Solve for several right-hand sides stacked as columns."""
        if self._fresh is not None:
            return self._fresh.solve_many(B)
        B = np.asarray(B, dtype=float)
        if B.ndim != 2:
            return self.solve(B)
        start = time.perf_counter()
        columns = []
        for j in range(B.shape[1]):
            x, converged = self._refine(B[:, j])
            if not converged:
                if self._stats is not None:
                    self._stats.solve_time += time.perf_counter() - start
                return self._promote().solve_many(B)
            columns.append(x)
        if self._stats is not None:
            self._stats.num_solves += B.shape[1]
            self._stats.solve_time += time.perf_counter() - start
        return np.stack(columns, axis=1)

    def __repr__(self) -> str:
        state = "fresh" if self._fresh is not None else "stale"
        return f"RefinedLU(shape={self.shape}, state={state}, label={self.label!r})"


def factorize(
    matrix: sp.spmatrix,
    stats: Optional[LUStats] = None,
    max_factor_nnz: Optional[int] = None,
    label: str = "",
    symbolic: Optional[SymbolicCache] = None,
    symmetric: Optional[bool] = None,
) -> SparseLU:
    """LU-factorize a sparse matrix with instrumentation.

    Parameters
    ----------
    matrix:
        Square sparse matrix.
    stats:
        Optional :class:`LUStats` accumulator owned by the simulation run.
    max_factor_nnz:
        If given, raise :class:`FactorizationBudgetExceeded` when
        ``nnz(L) + nnz(U)`` exceeds this budget (the "Out of Memory"
        emulation used by the Table I benchmark harness).
    label:
        Human-readable tag (e.g. ``"G"`` or ``"C/h+G"``) used in error
        messages and reports.
    symbolic:
        Optional :class:`SymbolicCache`.  When the matrix's sparsity
        pattern is already known to the cache, the fill-reducing ordering
        is reused and only the numeric phase runs (bit-identical factors
        and solutions); otherwise the ordering computed here is stored for
        future same-pattern matrices.  Every call still counts as a real
        factorization in ``stats.num_factorizations``.  Without a cache
        the matrix is factorized in one SuperLU call under the ordering
        its pattern selects; for a symmetric pattern that one-pass result
        differs from the cached path's in the last bits.
    symmetric:
        The pattern's structural symmetry (:func:`structurally_symmetric`
        of the summed matrix), when the caller has already tested it; else
        it is tested here when needed.
    """
    matrix = matrix.tocsc()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"cannot LU-factorize non-square matrix of shape {matrix.shape}")
    matrix.sum_duplicates()  # in place, as splu itself would

    start = time.perf_counter()
    ordering = None
    reused = False
    try:
        if symbolic is None:
            if symmetric is None:
                symmetric = structurally_symmetric(matrix)
            lu = _splu(matrix, symmetric)
        else:
            pattern = SymbolicCache.pattern_key(matrix)
            ordering = symbolic.lookup(pattern)
            reused = ordering is not None
            if ordering is not None:
                lu = _splu(ordering.permute(matrix), ordering.symmetric, natural=True,
                           width=panel_size(ordering.fill))
            elif structurally_symmetric(matrix) if symmetric is None else symmetric:
                # the one-pass factorization, at SuperLU's default width, only
                # yields the ordering and the fill; it is freed before the
                # numeric pass every later hit repeats at the rule's width
                first = _splu(matrix, True, width=None)
                ordering = SymbolicOrdering.from_permutation(
                    matrix, first.perm_c, True, _fill(first))
                del first
                lu = _splu(ordering.permute(matrix), True, natural=True,
                           width=panel_size(ordering.fill))
                symbolic.store(pattern, ordering)
            else:
                lu = _splu(matrix, False)
                symbolic.store(pattern, SymbolicOrdering.from_permutation(
                    matrix, lu.perm_c, False, _fill(lu)))
    except RuntimeError as exc:  # singular matrix
        raise np.linalg.LinAlgError(
            f"sparse LU factorization failed for {label or 'matrix'}: {exc}"
        ) from exc
    elapsed = time.perf_counter() - start

    wrapped = SparseLU(lu, stats, label=label, ordering=ordering, reused_symbolic=reused,
                       symmetric=bool(symmetric))
    if stats is not None:
        stats.num_factorizations += 1
        stats.factor_time += elapsed
        stats.factor_nnz.append(wrapped.nnz_factors)
        if reused:
            stats.num_symbolic_reuses += 1
        else:
            stats.num_orderings += 1
    if max_factor_nnz is not None and wrapped.nnz_factors > max_factor_nnz:
        raise FactorizationBudgetExceeded(wrapped.nnz_factors, max_factor_nnz, label=label)
    return wrapped
