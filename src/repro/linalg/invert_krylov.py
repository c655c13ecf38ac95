"""Invert Krylov subspace MEVP -- Algorithm 1 of the paper.

The matrix exponential and vector product (MEVP) ``e^{hJ} v`` with
``J = -C^{-1} G`` is approximated in the Krylov space of the *inverse*
Jacobian

.. math::

    K_m(J^{-1}, v) = \\mathrm{span}\\{v, -G^{-1}C v, (-G^{-1}C)^2 v, ...\\}
    \\qquad (\\text{Eq. 18})

so that

* only ``G`` is LU-factorized (never ``C`` and never ``C/h + G``),
* a singular ``C`` needs no regularization,
* the spectrum sampling favours the small-magnitude eigenvalues of ``J``
  that dominate the transient response of stiff circuits (Sec. IV).

The projected approximation is ``e^{hJ} v ≈ beta · V_m e^{h H_m^{-1}} e_1``
(Eq. 20) and the Arnoldi iteration is terminated by the KCL/KVL residual

.. math::

    r_m(h) = -beta\\, h_{m+1,m} \\, G v_{m+1}\\, e_m^T H_m^{-1}
             e^{h H_m^{-1}} e_1 \\qquad (\\text{Eq. 22}).

Because the step size ``h`` enters only through the *small dense*
exponential, a built basis is valid for every ``h``: when the integrator
rejects a step and shrinks ``h`` it simply re-evaluates
:meth:`IKSBasis.mevp` -- no new LU factorization, no new Arnoldi run
(the "(time-step) scaling-invariant property" the paper exploits).

The same property lets one basis serve a whole linear transient.  A
:class:`Lags` set stands for ``sum_j w_j e^{(t - tau_j) J} v`` -- the
combined response of one input's ramp terms in the MATEX superposition
(Zhuang, Weng, Lin & Cheng, DAC 2014) -- and every evaluation and
convergence check accepts it where it accepts a scalar ``h`` (the one-lag
case).  Through the eigen-decomposition of ``H_m`` a lag set is
propagated mode by mode, so moving it to a later time costs O(m).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.linalg.arnoldi import ArnoldiBreakdown, ArnoldiProcess
from repro.linalg.krylov import KRYLOV_MAX_DIM, MEVPStats
from repro.linalg.phi import expm_dense
from repro.linalg.sparse_lu import SparseLU

__all__ = ["IKSBasis", "InvertKrylovMEVP", "Lags"]


class _Modes:
    """Eigen-decomposition of ``H_m`` -- the DAE-limit kernel of ``e^{h H_m^{-1}}``.

    ``H_m = W diag(mu) W^{-1}``, so ``e^{h H_m^{-1}} e_1 = W (f * c)`` with
    ``f = e^{h / mu}`` and ``c = W^{-1} e_1``.  Modes whose projected
    eigenvalue ``mu`` is (numerically) zero are the algebraic DAE modes of
    a circuit with singular capacitance matrix: they relax instantly,
    ``exp(h/mu) -> 0``.  Modes whose exponent would *grow* enormously over
    one step can only be rounding artefacts of that same near-singularity
    in a passive circuit and are treated the same way.
    """

    def __init__(self, Hm: np.ndarray):
        m = Hm.shape[0]
        e1 = np.zeros(m)
        e1[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.eigvals, self.eigvecs = np.linalg.eig(Hm)
            self.coeffs = np.linalg.solve(self.eigvecs, e1.astype(complex))
            scale = np.max(np.abs(self.eigvals)) if m else 1.0
            self.tiny = np.abs(self.eigvals) <= 1e-13 * max(scale, 1e-300)
            self.safe_eigvals = np.where(self.tiny, 1.0, self.eigvals)
        self._well_conditioned: Optional[bool] = None

    @property
    def well_conditioned(self) -> bool:
        """Whether ``W`` is safe to propagate through (else use ``expm``)."""
        if self._well_conditioned is None:
            # 1-norm condition estimate, as for H_m^{-1} below
            try:
                inverse = np.linalg.inv(self.eigvecs)
            except np.linalg.LinAlgError:
                inverse = np.full_like(self.eigvecs, np.inf)
            cond = np.linalg.norm(self.eigvecs, 1) * np.linalg.norm(inverse, 1)
            self._well_conditioned = bool(np.isfinite(cond) and cond < 1e8)
        return self._well_conditioned

    @property
    def has_growing_mode(self) -> bool:
        """Whether some ``Re lambda(H_m^{-1}) = Re(1/mu)`` is positive."""
        return bool(np.any(~self.tiny & (self.eigvals.real > 0.0)))

    def factors(self, h: float) -> np.ndarray:
        """Return ``e^{h / mu}`` per mode, with the DAE limit."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            exponent = h / self.safe_eigvals
            spurious = self.tiny | (exponent.real > 50.0)
            exponent = np.clip(exponent.real, -745.0, 50.0) + 1j * exponent.imag
            return np.where(spurious, 0.0, np.exp(exponent))

    def sums(self, fvals: np.ndarray) -> Tuple[np.ndarray, float]:
        """Return ``(W (f * c),  e_m^T H_m^{-1} W (f * c))`` for modal weights ``f``."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gvals = np.where(self.tiny, 0.0, fvals / self.safe_eigvals)
            col = np.real(self.eigvecs @ (fvals * self.coeffs))
            res_vec = np.real(self.eigvecs @ (gvals * self.coeffs))
        return col, float(res_vec[-1])


class Lags:
    """A weighted set of lags: ``sum_j w_j e^{(t - tau_j) J} v`` at one time ``t``.

    Terms are added in non-decreasing ``tau`` and the set is moved forward
    with :meth:`at`.  A lag set serves one :class:`IKSBasis`: per basis
    dimension it keeps the terms folded into modal weights anchored at
    the latest ``tau``, ``F = sum_j w_j e^{(tau_last - tau_j) / mu}``, so
    an evaluation at ``t`` is the O(m) product ``e^{(t - tau_last) / mu} F``
    and a new term folds in at O(m) too.  A dimension met for the first
    time is folded from the whole term list.
    """

    def __init__(self):
        self.taus: List[float] = []
        self.weights: List[float] = []
        self.t = 0.0
        #: per dimension: (folded modal weights, terms folded, anchor tau)
        self._folds: Dict[int, Tuple[np.ndarray, int, float]] = {}
        #: per dimension: the last :meth:`propagate` and its (t, terms) key
        self._last: Dict[int, Tuple[Tuple[float, int], Tuple[np.ndarray, float]]] = {}

    def add(self, tau: float, weight: float) -> None:
        if self.taus and tau < self.taus[-1]:
            raise ValueError("lag terms must be added in time order")
        self.taus.append(float(tau))
        self.weights.append(float(weight))

    def at(self, t: float) -> "Lags":
        """Move the evaluation time to ``t``; returns ``self``."""
        self.t = float(t)
        return self

    def terms(self) -> List[Tuple[float, float]]:
        """Return ``(lag, weight)`` pairs at the current time."""
        return [(self.t - tau, w) for tau, w in zip(self.taus, self.weights)]

    def propagate(self, m: int, modes: _Modes) -> Tuple[np.ndarray, float]:
        """Return :meth:`_Modes.sums` of :meth:`modal` -- the weighted
        ``e^{t_j H_m^{-1}} e_1`` and its Eq. 22 scalar -- once per time."""
        key = (self.t, len(self.taus))
        last = self._last.get(m)
        if last is None or last[0] != key:
            last = self._last[m] = (key, modes.sums(self.modal(m, modes)))
        return last[1]

    def modal(self, m: int, modes: _Modes) -> np.ndarray:
        """Return ``sum_j w_j e^{(t - tau_j) / mu}`` in the modes of ``H_m``."""
        folded, count, anchor = self._folds.get(
            m, (np.zeros(m, dtype=complex), 0, self.taus[0]))
        for tau, weight in zip(self.taus[count:], self.weights[count:]):
            if tau > anchor:
                folded = folded * modes.factors(tau - anchor)
            folded = folded + weight
            anchor = tau
        self._folds[m] = (folded, len(self.taus), anchor)
        return folded * modes.factors(self.t - anchor)


class IKSBasis:
    """An invert-Krylov basis built for one vector ``v`` (reusable across ``h``)."""

    #: bound on the ``(m, h)``-keyed propagator cache (LRU eviction): every
    #: rejected step size of an adaptive step evaluates the same basis at a
    #: new ``h``, so the cache must not grow with the number of retries
    PROPAGATOR_CACHE_MAX = 128

    @staticmethod
    def _is_check_dim(m: int, start: int = 1) -> bool:
        """Whether the Eq. 22 residual is evaluated at dimension ``m``.

        Every residual check costs a small dense exponential (O(m^3)), so
        checking at every extension from ``m = 1`` makes the sweep O(m^4).
        The cold sweep (``start = 1``) knows nothing of the dimension it
        will end at: it checks ``m <= 4`` and then every odd ``m`` (the
        basis may overshoot the minimal dimension by one -- slightly
        *more* accurate, never less).  A warm sweep (``start > 1``) begins
        near the dimension the previous build of a similar vector
        converged at: nothing below ``start`` is checked and every
        dimension from ``start`` on is, so it stops at the first one that
        passes.
        """
        if start > 1:
            return m >= start
        return m <= 4 or m % 2 == 1

    def __init__(self, process: ArnoldiProcess, G: sp.spmatrix,
                 stats: Optional[MEVPStats] = None):
        self._process = process
        self._G = G
        self._stats = stats
        self.beta = process.beta
        # caches keyed by the current dimension / (dimension, h); the
        # dimension-keyed caches are naturally bounded by max_dim, the
        # (dimension, h) cache by PROPAGATOR_CACHE_MAX
        self._hinv_cache: Dict[int, Optional[np.ndarray]] = {}
        self._propagator_cache: "OrderedDict[Tuple[int, float], Tuple[np.ndarray, float]]" = OrderedDict()
        self._gv_norm_cache: Dict[int, float] = {}
        self._modes_cache: Dict[int, _Modes] = {}
        #: outcome of the last :meth:`ensure_converged`
        self.converged = False

    # -- small dense helpers ----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._process.m

    @property
    def is_zero(self) -> bool:
        """True when the MEVP argument was the zero vector."""
        return self.beta == 0.0

    def start_vector(self) -> np.ndarray:
        """Return the vector the basis was built on, ``beta V_m e_1``."""
        return self.beta * self._process.V[:, 0]

    def _hessenberg_inverse(self, m: int) -> Optional[np.ndarray]:
        """Return ``H_m^{-1}``; None if ``H_m`` is (numerically) singular."""
        if m in self._hinv_cache:
            return self._hinv_cache[m]
        Hm = self._process.hessenberg(m)
        try:
            hinv: Optional[np.ndarray] = np.linalg.inv(Hm)
        except np.linalg.LinAlgError:
            hinv = None
        if hinv is not None:
            # 1-norm condition estimate: O(m^2) instead of the SVD behind
            # np.linalg.cond, which dominated the per-dimension convergence
            # checks of the hot loop
            cond = np.abs(Hm).sum(axis=0).max() * np.abs(hinv).sum(axis=0).max()
            if not np.isfinite(cond) or cond >= 1e12:
                hinv = None
        self._hinv_cache[m] = hinv
        return hinv

    def _modes(self, m: int) -> _Modes:
        if m not in self._modes_cache:
            self._modes_cache[m] = _Modes(self._process.hessenberg(m))
        return self._modes_cache[m]

    def _propagator(self, m: int, h: Union[float, Lags]) -> Tuple[np.ndarray, float]:
        """Return ``(e^{h H_m^{-1}} e_1,  e_m^T H_m^{-1} e^{h H_m^{-1}} e_1)``.

        For a well-conditioned ``H_m`` the dense inverse + matrix exponential
        is used directly.  When ``H_m`` is (nearly) singular -- which happens
        whenever the Krylov space picks up a null direction of ``C`` (the
        algebraic, "infinitely fast" DAE modes of a circuit with singular
        capacitance matrix) -- the propagator is evaluated through the
        eigen-decomposition with the correct DAE limit ``exp(h/lambda) -> 0``
        as ``lambda -> 0^-``: the algebraic modes relax instantly and
        contribute nothing to the propagated state (:class:`_Modes`).

        A :class:`Lags` set returns the weighted sums over its lags: through
        the eigen-decomposition when its eigenvectors are well conditioned,
        otherwise lag by lag.
        """
        if isinstance(h, Lags):
            modes = self._modes(m)
            if modes.well_conditioned:
                return h.propagate(m, modes)
            col, scalar = np.zeros(m), 0.0
            for lag, weight in h.terms():
                lag_col, lag_scalar = self._propagator(m, lag)
                col = col + weight * lag_col
                scalar += weight * lag_scalar
            return col, scalar
        key = (m, float(h))
        cached = self._propagator_cache.get(key)
        if cached is not None:
            self._propagator_cache.move_to_end(key)
            return cached

        hinv = self._hessenberg_inverse(m)
        col: Optional[np.ndarray] = None
        res_scalar = np.inf
        scaled = h * hinv if hinv is not None else None
        if scaled is not None and np.max(np.abs(scaled)) < 1e8:
            if self._stats is not None:
                self._stats.num_expm_calls += 1
            col = expm_dense(scaled)[:, 0]
            if np.all(np.isfinite(col)):
                res_scalar = float(hinv[m - 1, :] @ col)
            else:
                col = None
        if col is None:
            # eigenvalue-based evaluation with the singular-mode limit
            modes = self._modes(m)
            col, res_scalar = modes.sums(modes.factors(h))
            if not np.all(np.isfinite(col)):
                raise np.linalg.LinAlgError(
                    f"invert-Krylov propagator evaluation failed at dimension {m}"
                )
        result = (col, res_scalar)
        self._propagator_cache[key] = result
        while len(self._propagator_cache) > self.PROPAGATOR_CACHE_MAX:
            self._propagator_cache.popitem(last=False)
        return result

    def _g_vnext_norm(self, m: int) -> float:
        if m not in self._gv_norm_cache:
            gv = self._G @ self._process.next_basis_vector(m)
            self._gv_norm_cache[m] = math.sqrt(gv.dot(gv))
        return self._gv_norm_cache[m]

    # -- Eq. 20 / Eq. 22 ------------------------------------------------------------------

    def mevp(self, h: Union[float, Lags], m: Optional[int] = None) -> np.ndarray:
        """Return the approximation of ``e^{hJ} v`` (Eq. 20) at dimension ``m``.

        For a :class:`Lags` set: ``sum_j w_j e^{t_j J} v``.
        """
        if self.is_zero:
            return np.zeros(self._process.n)
        m = self.dimension if m is None else int(m)
        if m < 1:
            raise ValueError("cannot evaluate an MEVP on an empty Krylov basis")
        col, _ = self._propagator(m, h)
        return self.beta * (self._process.basis(m) @ col)

    def residual_norm(self, h: Union[float, Lags], m: Optional[int] = None) -> float:
        """Return ``||r_m(h)||_2`` of the KCL/KVL residual (Eq. 22).

        For a :class:`Lags` set it is the residual of the weighted sum
        ``sum_j w_j e^{t_j J} v``, in the units of ``w_j v``: the residual
        is linear in the propagated vector and every lag shares the
        direction ``G v_{m+1}``, so only the scalar is summed.
        """
        if self._stats is not None:
            self._stats.num_residual_checks += 1
        if self.is_zero:
            return 0.0
        m = self.dimension if m is None else int(m)
        if m < 1:
            return np.inf
        if self._process.breakdown and m >= self.dimension:
            # Happy breakdown: the subspace is invariant, approximation exact.
            return 0.0
        try:
            _, scalar = self._propagator(m, h)
        except np.linalg.LinAlgError:
            return np.inf
        if not np.isfinite(scalar):
            return np.inf
        h_sub = self._process.subdiagonal(m)
        return self.beta * abs(h_sub) * self._g_vnext_norm(m) * abs(scalar)

    def has_growing_mode(self, m: Optional[int] = None) -> bool:
        """Whether ``H_m^{-1}`` has an eigenvalue with positive real part.

        ``J`` of a passive circuit has none, so at an accepted dimension
        such a mode is an artefact of the projection.  (At ``m = 1`` the
        Rayleigh quotient can be positive on a genuinely stable operator.)
        """
        if self.is_zero:
            return False
        m = self.dimension if m is None else int(m)
        return self._modes(m).has_growing_mode

    def trim(self, capacity: int = 0) -> None:
        """Release storage above ``max(m, capacity)`` (see
        :meth:`ArnoldiProcess.trim`) and the small dense caches of the
        dimensions below ``m - 1``; the basis stays extendable."""
        self._process.trim(capacity)
        keep = self.dimension - 1
        for cache in (self._hinv_cache, self._modes_cache, self._gv_norm_cache):
            for m in [m for m in cache if m < keep]:
                del cache[m]

    # -- phi-function products (Eq. 23) ------------------------------------------------------

    def phi1_times(self, h: float, v: np.ndarray, m: Optional[int] = None) -> np.ndarray:
        """Return ``h * phi_1(hJ) v`` assuming this basis was built from ``v``.

        Uses ``h φ1(hJ) v = (hJ)^{-1}(e^{hJ} - I) h v``; in the projected
        space ``(hJ)^{-1}`` becomes ``H_m / h``-free because the basis is of
        ``J^{-1}`` -- concretely
        ``h φ1(hJ) v ≈ beta V_m H_m (e^{h H_m^{-1}} - I) e_1``.
        """
        if self.is_zero:
            return np.zeros_like(np.asarray(v, dtype=float))
        m = self.dimension if m is None else int(m)
        col, _ = self._propagator(m, h)
        Hm = self._process.hessenberg(m)
        e1 = np.zeros(m)
        e1[0] = 1.0
        small = Hm @ (col - e1)
        return self.beta * (self._process.basis(m) @ small)

    # -- adaptive construction ------------------------------------------------------------------

    def ensure_converged(self, h: Union[float, Lags], tol: float,
                         max_dim: Optional[int] = None, start: int = 1) -> bool:
        """Extend the basis until the Eq. 22 residual is below ``tol``.

        ``h`` is a step size or a :class:`Lags` set (whose residual is that
        of the weighted sum, see :meth:`residual_norm`).

        One acceptance rule: a dimension ``m`` is accepted when it is
        terminal (``max_dim`` reached, or the Arnoldi process broke down
        so the subspace is invariant), or when ``m >= 2`` and the
        residuals at both ``m`` and ``m - 1`` are below ``tol``.  Two
        consecutive small residuals are the Krylov-MEVP termination rule
        (Saad 1992): the residual scalar
        ``e_m^T H_m^{-1} e^{h H_m^{-1}} e_1`` can pass near zero at one
        isolated ``m`` while the approximation there is still far off (on
        a 16-segment RLC line it read 2e-3 at ``m = 10`` and 9e-8 at
        ``m = 11``, where the MEVP error was 2.5e-3), and at ``m = 1`` it
        has no predecessor to confirm it.  A genuinely algebraic vector
        (``J^{-1} v = 0``) still ends at ``m = 1``, through breakdown.

        The residual at ``m`` is checked on the :meth:`_is_check_dim`
        schedule: the cold one from ``m = 1`` when ``start = 1``,
        otherwise Arnoldi extends to ``start`` unchecked and every
        dimension from there on is checked.  Each residual is evaluated at
        most once per call.  ``start = self.dimension`` checks an already
        extended basis at a new ``h`` before extending it any further.

        Returns True on convergence, also kept in :attr:`converged`.
        Counts every extension as one operator application in the shared
        stats.
        """
        self.converged = self._sweep(h, tol, max_dim, start)
        return self.converged

    def _sweep(self, h: Union[float, Lags], tol: float, max_dim: Optional[int],
               start: int) -> bool:
        if self.is_zero:
            return True
        process = self._process
        max_dim = process.max_dim if max_dim is None else min(int(max_dim), process.max_dim)
        below: Dict[int, bool] = {}

        def small(k: int) -> bool:
            if k not in below:
                below[k] = self.residual_norm(h, k) <= tol
            return below[k]

        while True:
            m = self.dimension
            terminal = m >= max_dim or process.breakdown
            if (m >= 1 and (terminal or self._is_check_dim(m, start))
                    and small(m)
                    and (terminal or (m >= 2 and small(m - 1)))):
                return True
            if terminal:
                return process.breakdown
            try:
                process.extend()
                if self._stats is not None:
                    self._stats.num_operator_applications += 1
            except ArnoldiBreakdown:
                return True


class InvertKrylovMEVP:
    """Factory for invert-Krylov bases sharing one ``G`` factorization.

    Parameters
    ----------
    C, G:
        The linearized capacitance and conductance matrices at the current
        state ``x_k``.
    lu_G:
        LU factorization of ``G`` (the only factorization the method needs,
        performed once per accepted time step and reused for every MEVP of
        that step -- Algorithm 2, line 5).
    stats:
        Shared :class:`MEVPStats` accumulator (provides ``#m_a``).
    max_dim:
        Hard cap on the subspace dimension.
    """

    def __init__(
        self,
        C: sp.spmatrix,
        G: sp.spmatrix,
        lu_G: SparseLU,
        stats: Optional[MEVPStats] = None,
        max_dim: int = KRYLOV_MAX_DIM,
    ):
        self.C = C.tocsc()
        self.G = G.tocsc()
        self.lu_G = lu_G
        self.stats = stats
        self.max_dim = int(max_dim)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """One Algorithm 1, line 3 application: solve ``-G w = C v``."""
        w = self.lu_G.solve(self.C @ v)
        return np.negative(w, out=w)

    def build(self, v: np.ndarray, h: Union[float, Lags], tol: float = 1e-7,
              max_dim: Optional[int] = None, start: int = 1,
              capacity: int = 16) -> IKSBasis:
        """Run Algorithm 1 for the vector ``v`` and step size ``h``.

        ``h`` may be a :class:`Lags` set; the basis then converges for its
        weighted sum.

        ``start`` is the dimension the convergence sweep starts checking
        at (see :meth:`IKSBasis.ensure_converged`); 1 is the cold sweep.
        ``capacity`` is the initial storage of the basis, in vectors.
        Returns the (possibly still extendable) basis; statistics are
        recorded with the dimension reached at convergence.
        """
        v = np.asarray(v, dtype=float).ravel()
        limit = self.max_dim if max_dim is None else int(max_dim)
        process = ArnoldiProcess(self._apply, v, max_dim=limit, capacity=capacity)
        basis = IKSBasis(process, self.G, stats=self.stats)
        converged = basis.ensure_converged(h, tol, max_dim=limit, start=start)
        if self.stats is not None:
            self.stats.record(basis.dimension, converged)
        return basis

    def expm_multiply(self, v: np.ndarray, h: float, tol: float = 1e-7,
                      max_dim: Optional[int] = None) -> np.ndarray:
        """Convenience one-shot ``e^{hJ} v`` evaluation."""
        basis = self.build(v, h, tol=tol, max_dim=max_dim)
        if basis.is_zero:
            return np.zeros_like(np.asarray(v, dtype=float))
        return basis.mevp(h)
