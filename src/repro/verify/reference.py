"""The uncached reference run: every matrix rebuilt, every LU fresh.

The baseline of the claim that the exact reuses of
:class:`~repro.core.workspace.LinearizationCache` change work, never
results.  It is not a user option: the verify ``lu-accounting`` and
``symbolic-reuse`` invariants, the hot-path benchmark and the cache tests
build it with :func:`reference_simulator`.
"""

from __future__ import annotations

from repro.core.simulator import TransientSimulator
from repro.core.workspace import LinearizationCache
from repro.linalg.sparse_lu import SymbolicCache, factorize

__all__ = ["UncachedReference", "reference_simulator"]


class UncachedReference(LinearizationCache):
    """Re-assembles on every evaluation, rebuilds every matrix and
    factorizes every LU request with a fresh ordering.

    Each LU goes through a fresh :class:`SymbolicCache`, so it computes a
    new ordering (``num_symbolic_reuses`` stays 0) yet runs the same
    numeric pass as the cached run -- for a structurally symmetric
    pattern the ``NATURAL`` factorization of ``P A P^T``, which the
    one-shot path (``symbolic=None``) does not run.
    """

    reuse_exact = False

    def matrix(self, key, builder):
        return builder()

    def lu(self, key, matrix, stats=None, max_factor_nnz=None, label=""):
        return factorize(matrix, stats=stats, max_factor_nnz=max_factor_nnz,
                         label=label, symbolic=SymbolicCache())


def reference_simulator(circuit, method="er", options=None) -> TransientSimulator:
    """A :class:`TransientSimulator` whose integrator runs uncached."""
    simulator = TransientSimulator(circuit, method=method, options=options)
    simulator.integrator.cache = UncachedReference(simulator.mna, simulator.options)
    return simulator
