"""Incremental Arnoldi process shared by all Krylov MEVP variants.

The three MEVP strategies (standard, invert, rational) only differ in the
operator whose Krylov space is built -- ``J = -C^{-1}G``,
``J^{-1} = -G^{-1}C`` or ``(I - gamma J)^{-1}`` -- and in the mapping from
the small Hessenberg matrix back to ``e^{hJ}``.  The orthogonalization
loop itself is identical, so it lives here.

The implementation keeps the basis in a pre-allocated array and exposes an
incremental :meth:`ArnoldiProcess.extend` so callers can interleave basis
growth with their convergence test (Algorithm 1, line 10).
Orthogonalization uses blocked classical Gram-Schmidt with one
re-orthogonalization pass (CGS2): the projections run as two BLAS-2
matrix-vector products against the whole basis instead of a Python loop
over basis vectors, and the second pass gives the same orthogonality
quality as modified Gram-Schmidt with re-orthogonalization -- the standard
robust choice for the mildly ill-conditioned bases that stiff circuit
Jacobians produce.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

__all__ = ["ArnoldiBreakdown", "ArnoldiProcess"]


class ArnoldiBreakdown(Exception):
    """Signal that the Krylov space became invariant (happy breakdown).

    Not an error: the approximation is exact (to rounding) in the current
    subspace.  Callers catch this and stop extending the basis.
    """

    def __init__(self, dimension: int):
        super().__init__(f"Arnoldi breakdown at dimension {dimension}")
        self.dimension = dimension


class ArnoldiProcess:
    """Arnoldi iteration for an arbitrary linear operator.

    Parameters
    ----------
    apply_operator:
        Callable mapping a length-``n`` vector to the operator applied to
        it (e.g. ``lambda v: -lu_G.solve(C @ v)`` for the invert Krylov
        subspace).
    v0:
        Starting vector.  Its norm ``beta`` is recorded; the first basis
        vector is ``v0 / beta``.
    max_dim:
        Maximum subspace dimension (storage is allocated up front).
    reorthogonalize:
        Run a second Gram-Schmidt pass (default True).
    capacity:
        Initial storage, in basis vectors (grown geometrically as needed).
    """

    #: relative tolerance below which ``h_{j+1,j}`` is treated as a breakdown:
    #: the test is scale-free (``h_{j+1,j} <= tol * ||A v_j||``) because the
    #: invert-Krylov operator ``J^{-1} = -G^{-1}C`` carries units of seconds
    #: (``||J^{-1} v|| ~ 1e-12``), where any absolute floor would declare
    #: breakdowns of genuinely growing subspaces
    BREAKDOWN_TOL = 1e-14

    def __init__(
        self,
        apply_operator: Callable[[np.ndarray], np.ndarray],
        v0: np.ndarray,
        max_dim: int = 100,
        reorthogonalize: bool = True,
        capacity: int = 16,
    ):
        v0 = np.asarray(v0, dtype=float).ravel()
        self.n = v0.shape[0]
        if max_dim < 1:
            raise ValueError("max_dim must be at least 1")
        self.max_dim = int(min(max_dim, self.n))
        self._apply = apply_operator
        self._reorth = reorthogonalize

        self.beta = float(np.linalg.norm(v0))
        # Storage grows geometrically up to max_dim: most bases converge at
        # a few tens of dimensions, so eagerly zeroing an (n, max_dim + 1)
        # array per basis would dominate small builds.
        self._capacity = max(1, min(self.max_dim, int(capacity)))
        self.V = np.zeros((self.n, self._capacity + 1))
        self.H = np.zeros((self._capacity + 1, self._capacity))
        self.m = 0
        self.breakdown = False
        if self.beta == 0.0:
            # The zero vector spans the trivial subspace; flag immediate
            # breakdown so callers can short-circuit (e^{hJ} 0 = 0).
            self.breakdown = True
        else:
            self.V[:, 0] = v0 / self.beta

    # -- incremental construction ---------------------------------------------------

    def _grow(self) -> None:
        """Double the allocated subspace capacity (clipped to max_dim)."""
        new_capacity = min(self.max_dim, 2 * self._capacity)
        V = np.zeros((self.n, new_capacity + 1))
        H = np.zeros((new_capacity + 1, new_capacity))
        V[:, : self._capacity + 1] = self.V
        H[: self._capacity + 1, : self._capacity] = self.H
        self.V, self.H, self._capacity = V, H, new_capacity

    def extend(self) -> int:
        """Grow the subspace by one dimension; return the new dimension ``m``.

        Raises
        ------
        ArnoldiBreakdown
            If the new direction is (numerically) linearly dependent on the
            existing basis.  ``self.m`` is still incremented so the last
            column of ``H`` is valid.
        """
        if self.breakdown:
            raise ArnoldiBreakdown(self.m)
        if self.m >= self.max_dim:
            raise RuntimeError(
                f"Krylov subspace dimension limit {self.max_dim} reached without convergence"
            )
        if self.m >= self._capacity:
            self._grow()
        j = self.m
        w = np.asarray(self._apply(self.V[:, j]), dtype=float).ravel()
        if w.shape[0] != self.n:
            raise ValueError("operator returned a vector of the wrong length")
        # the 2-norm as np.linalg.norm computes it for a 1-D float vector
        norm_before = math.sqrt(w.dot(w))

        # Blocked classical Gram-Schmidt (CGS2): project against the whole
        # basis with two matrix-vector products per pass.
        Vj = self.V[:, :j + 1]
        coeffs = Vj.T @ w
        w -= Vj @ coeffs
        if self._reorth:
            correction = Vj.T @ w
            w -= Vj @ correction
            coeffs += correction
        self.H[:j + 1, j] = coeffs

        h_next = math.sqrt(w.dot(w))
        self.H[j + 1, j] = h_next
        self.m = j + 1
        if h_next <= self.BREAKDOWN_TOL * norm_before:
            self.breakdown = True
            raise ArnoldiBreakdown(self.m)
        np.divide(w, h_next, out=self.V[:, j + 1])
        return self.m

    def trim(self, capacity: int = 0) -> None:
        """Shrink the storage to ``max(m, capacity)`` basis vectors.

        A basis kept for a whole run should not hold the spare columns of
        the geometric growth; a later :meth:`extend` grows it again.
        """
        keep = max(self.m, int(capacity), 1)
        if self._capacity > keep:
            self.V = self.V[:, :keep + 1].copy()
            self.H = self.H[:keep + 1, :keep].copy()
            self._capacity = keep

    # -- views -------------------------------------------------------------------------

    def basis(self, m: Optional[int] = None) -> np.ndarray:
        """Return the ``n x m`` orthonormal basis ``V_m``."""
        m = self.m if m is None else m
        return self.V[:, :m]

    def hessenberg(self, m: Optional[int] = None) -> np.ndarray:
        """Return the square upper-Hessenberg matrix ``H_m``."""
        m = self.m if m is None else m
        return self.H[:m, :m]

    def subdiagonal(self, m: Optional[int] = None) -> float:
        """Return ``h_{m+1,m}`` (zero after a breakdown)."""
        m = self.m if m is None else m
        if m == 0:
            return 0.0
        return float(self.H[m, m - 1])

    def next_basis_vector(self, m: Optional[int] = None) -> np.ndarray:
        """Return ``v_{m+1}`` (the residual direction used in Eq. 22)."""
        m = self.m if m is None else m
        return self.V[:, m]

    def orthogonality_defect(self) -> float:
        """Return ``||V_m^T V_m - I||_F`` -- a testing/diagnostic helper."""
        Vm = self.basis()
        gram = Vm.T @ Vm
        return float(np.linalg.norm(gram - np.eye(self.m)))
