"""Deterministic random-number plumbing.

Every stochastic generator in the framework (the random coupling
capacitors of the benchmark circuits, the per-variant circuit seeds of the
campaign planner) routes its randomness through these helpers instead of
the global NumPy state, so any scenario can be reconstructed bit-exactly
in a different process -- the property the parallel campaign runner relies
on for "serial == parallel" reproducibility.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["SeedLike", "as_generator", "derive_seed"]

#: anything the generators accept as a seed
SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an ``int`` (or anything ``default_rng`` accepts), a
    :class:`~numpy.random.SeedSequence`, ``None`` (fresh OS entropy) or an
    existing ``Generator``, which is passed through unchanged so callers
    can share one stream across several build steps.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *keys: int) -> int:
    """Derive a child seed from ``base_seed`` and an index path.

    The derivation uses :class:`numpy.random.SeedSequence` entropy mixing,
    so ``derive_seed(s, i)`` and ``derive_seed(s, j)`` are statistically
    independent for ``i != j`` while remaining a pure function of the
    inputs -- the campaign planner uses it to give every scenario its own
    reproducible seed no matter which worker executes it.
    """
    entropy = [int(base_seed)] + [int(k) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])

