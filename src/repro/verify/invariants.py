"""Physical and accounting invariants checked by the differential matrix.

Three families of checks, each cheap relative to the simulations they
guard:

* **Eq. 13 slope consistency** -- every source waveform's ``slope`` must
  match the finite difference of its ``value`` inside segments, be
  *right*-continuous at breakpoints (a boundary belongs to the segment
  it enters), and -- when ``is_piecewise_linear`` claims exactness -- be
  bit-identical across each segment.  This is the contract the ER
  integrator's analytic excitation term relies on.
* **Passivity / energy decay** -- once the drive of an RLC network goes
  quiescent, the total stored energy ``1/2 sum C v^2 + 1/2 sum L i^2``
  must not grow: the circuit is passive and every integrator in the
  registry is (at worst) neutrally stable on it.
* **LU accounting identities** -- with the linearization cache on, the
  run must produce a bit-identical trajectory while
  ``#LU(off) == #LU(on) + #LUhit(on)``: every skipped factorization is
  *counted*, never silently dropped (the honesty contract of
  :class:`repro.core.workspace.LinearizationCache`).  Symbolic reuse has
  its own identity -- every real factorization either computed a fresh
  fill-reducing ordering or reused a pattern-matched one, so
  ``#LU == num_orderings + num_symbolic_reuses`` must hold on both runs
  (:func:`check_symbolic_accounting`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.circuit.sources import Waveform

__all__ = [
    "InvariantViolation",
    "check_slope_consistency",
    "check_energy_decay",
    "check_lu_accounting",
    "check_symbolic_accounting",
    "check_adaptive_reuse_accounting",
    "check_adaptive_band",
]


@dataclass
class InvariantViolation:
    """One failed invariant check."""

    invariant: str
    subject: str
    detail: str

    def describe(self) -> str:
        return f"{self.invariant}[{self.subject}]: {self.detail}"


# -- Eq. 13 slope consistency ---------------------------------------------------------


def check_slope_consistency(
    waveform: Waveform,
    t_end: float,
    subject: str = "",
    samples_per_segment: int = 3,
) -> List[InvariantViolation]:
    """Check ``slope`` against ``value`` over ``[0, t_end]``.

    * interior points: central finite difference agreement (relative to
      the waveform's value swing);
    * exactly-PWL waveforms: the slope must be *bit-identical* across
      each segment's interior (the exact segment slope ER's Eq. 13
      excitation term is built from);
    * breakpoints: ``slope(bp)`` must equal the slope just after ``bp``
      (right-continuity), including one-ulp landings on either side.
    """
    subject = subject or repr(waveform)
    violations: List[InvariantViolation] = []
    edges = [0.0] + [b for b in waveform.breakpoints(t_end) if 0.0 < b < t_end] + [t_end]
    swing = max(abs(waveform.value(t)) for t in np.linspace(0.0, t_end, 101))
    swing = max(swing, 1e-30)

    for left, right in zip(edges, edges[1:]):
        width = right - left
        interior = [left + width * f for f in
                    np.linspace(0.2, 0.8, samples_per_segment)]
        slopes = [waveform.slope(t) for t in interior]
        for t, s in zip(interior, slopes):
            eps = max(1e-4 * width, 1e-18)
            fd = (waveform.value(t + eps) - waveform.value(t - eps)) / (2.0 * eps)
            scale = max(abs(s), swing / max(t_end, 1e-30))
            if abs(s - fd) > 1e-6 * scale + 1e-12:
                violations.append(InvariantViolation(
                    "slope-consistency", subject,
                    f"slope({t:.3e})={s:.6e} vs finite difference {fd:.6e}",
                ))
        if waveform.is_piecewise_linear and len(set(slopes)) != 1:
            violations.append(InvariantViolation(
                "slope-constancy", subject,
                f"PWL segment [{left:.3e}, {right:.3e}] returned "
                f"non-constant slopes {sorted(set(slopes))}",
            ))

    for bp in edges[1:-1]:
        after = waveform.slope(np.nextafter(bp, np.inf))
        at = waveform.slope(bp)
        scale = max(abs(after), abs(at), swing / max(t_end, 1e-30))
        if abs(at - after) > 1e-9 * scale:
            violations.append(InvariantViolation(
                "slope-right-continuity", subject,
                f"slope({bp:.6e})={at:.6e} but the entering segment's "
                f"slope is {after:.6e}",
            ))
    return violations


# -- passivity / energy decay -----------------------------------------------------------


def check_energy_decay(
    times: np.ndarray,
    energy: np.ndarray,
    quiescent_from: float,
    subject: str = "",
    rel_slack: float = 1e-6,
) -> List[InvariantViolation]:
    """Require the stored energy to be non-increasing after the drive stops.

    ``rel_slack`` absorbs rounding of the energy sum itself; any growth
    beyond it means an integrator pumped energy into a passive network.
    """
    times = np.asarray(times, dtype=float)
    energy = np.asarray(energy, dtype=float)
    mask = times >= quiescent_from
    tail = energy[mask]
    tail_t = times[mask]
    violations: List[InvariantViolation] = []
    if len(tail) < 2:
        violations.append(InvariantViolation(
            "energy-decay", subject,
            f"fewer than two samples after t={quiescent_from:.3e}",
        ))
        return violations
    scale = float(np.max(tail)) if np.max(tail) > 0 else 1.0
    growth = np.diff(tail)
    worst = int(np.argmax(growth))
    if growth[worst] > rel_slack * scale:
        violations.append(InvariantViolation(
            "energy-decay", subject,
            f"stored energy grew by {growth[worst]:.3e} J "
            f"({growth[worst] / scale:.2e} of peak) at "
            f"t={tail_t[worst + 1]:.3e}s after the drive went quiescent",
        ))
    return violations


# -- LU accounting identities ------------------------------------------------------------


def check_lu_accounting(
    cached_result,
    uncached_result,
    subject: str = "",
    trajectory_tol: float = 1e-12,
    max_lu_cached: Optional[int] = None,
) -> List[InvariantViolation]:
    """Differential identities between a cached and a reference run.

    * identical step counts and bit-identical (<= ``trajectory_tol``)
      trajectories -- the cache is exact;
    * ``#LU(off) == #LU(on) + reused(on)`` -- every
      factorization the cache skipped is counted as a hit, so the
      Table-I ``#LU`` column stays an honest measure of numerical work;
    * optionally, an O(1) ceiling on the cached run's factorizations
      (linear circuits: one LU per distinct matrix per run).
    """
    violations: List[InvariantViolation] = []
    on, off = cached_result.stats, uncached_result.stats
    if on.num_steps != off.num_steps:
        violations.append(InvariantViolation(
            "lu-accounting", subject,
            f"step counts differ: cached {on.num_steps} vs "
            f"uncached {off.num_steps}",
        ))
    try:
        diff = float(np.max(np.abs(
            cached_result.state_array - uncached_result.state_array)))
    except (ValueError, RuntimeError):
        diff = float("inf")
    if not diff <= trajectory_tol:
        violations.append(InvariantViolation(
            "cache-exactness", subject,
            f"trajectory difference {diff:.3e} exceeds {trajectory_tol:.1e}",
        ))
    expected = on.lu.num_factorizations + on.lu.num_reused
    if off.lu.num_factorizations != expected:
        violations.append(InvariantViolation(
            "lu-accounting", subject,
            f"#LU(off)={off.lu.num_factorizations} != #LU(on)"
            f"={on.lu.num_factorizations} + reused={on.lu.num_reused}",
        ))
    if max_lu_cached is not None and on.lu.num_factorizations > max_lu_cached:
        violations.append(InvariantViolation(
            "lu-o1", subject,
            f"cached run performed {on.lu.num_factorizations} LU "
            f"factorizations (ceiling {max_lu_cached})",
        ))
    for tag, result in (("on", cached_result), ("off", uncached_result)):
        violations.extend(check_symbolic_accounting(
            result, subject=f"{subject}/cache-{tag}" if subject else f"cache-{tag}"))
    return violations


def check_symbolic_accounting(result, subject: str = "") -> List[InvariantViolation]:
    """``#LU == num_orderings + num_symbolic_reuses`` for one run.

    Symbolic reuse replaces the ordering phase, never a factorization:
    every entry in ``num_factorizations`` must be classified as exactly
    one of "paid for a fresh fill-reducing ordering" or "reused a
    pattern-matched ordering".  A mismatch means a factorization path
    bypassed the classification (dishonest accounting).
    """
    lu = result.stats.lu
    violations: List[InvariantViolation] = []
    if lu.num_factorizations != lu.num_orderings + lu.num_symbolic_reuses:
        violations.append(InvariantViolation(
            "symbolic-accounting", subject,
            f"#LU={lu.num_factorizations} != orderings={lu.num_orderings} "
            f"+ symbolic_reuses={lu.num_symbolic_reuses}",
        ))
    return violations


def check_adaptive_reuse_accounting(result, subject: str = "") -> List[InvariantViolation]:
    """Single-run accounting identities of the cache-aware stepping path.

    Valid for the implicit methods (BENR / TR / Gear2) on any circuit:
    their Newton loop performs exactly one Jacobian request plus one
    triangular solve per non-converged iteration, and every request is
    served by exactly one of {fresh factorization, exact cache hit,
    stale cross-``h`` reuse}.  A refinement fallback is a fresh
    factorization taken *inside* an already-counted stale solve, so it
    must not add a solve of its own.  Hence:

    * ``#solves == (#LU - fallbacks) + reused + stale``;
    * ``fallbacks <= stale`` -- a fallback can only happen to a request
      that was first served stale;
    * ``#LU == orderings + symbolic reuses`` (delegated).

    Not applicable to ER, whose ``solve_many`` performs several counted
    solves per factorization request.
    """
    lu = result.stats.lu
    violations = check_symbolic_accounting(result, subject=subject)
    expected = (lu.num_factorizations - lu.num_refinement_fallbacks
                + lu.num_reused + lu.num_stale_reuses)
    if lu.num_solves != expected:
        violations.append(InvariantViolation(
            "adaptive-reuse-accounting", subject,
            f"#solves={lu.num_solves} != (#LU={lu.num_factorizations} - "
            f"fallbacks={lu.num_refinement_fallbacks}) + "
            f"reused={lu.num_reused} + stale={lu.num_stale_reuses}",
        ))
    if lu.num_refinement_fallbacks > lu.num_stale_reuses:
        violations.append(InvariantViolation(
            "adaptive-reuse-accounting", subject,
            f"fallbacks={lu.num_refinement_fallbacks} exceed "
            f"stale reuses={lu.num_stale_reuses}",
        ))
    return violations


def check_adaptive_band(
    exact_result,
    reuse_result,
    node: str,
    band: float,
    subject: str = "",
    samples: int = 256,
) -> List[InvariantViolation]:
    """Bound the waveform deviation of a ladder/stale run vs an exact run.

    The two runs take *different step sequences* (quantization changes the
    grid), so the observed node waveforms are compared after linear
    interpolation onto a common uniform grid.  Both runs approximate the
    same solution within the method's own tolerance band; a deviation
    beyond ``band`` means the reuse machinery changed the *solution*, not
    just the schedule.
    """
    violations: List[InvariantViolation] = []
    for tag, result in (("exact", exact_result), ("reuse", reuse_result)):
        if not result.stats.completed:
            violations.append(InvariantViolation(
                "adaptive-band", subject,
                f"{tag} run failed: {result.stats.failure_reason}",
            ))
    if violations:
        return violations
    t_lo = max(exact_result.times[0], reuse_result.times[0])
    t_hi = min(exact_result.times[-1], reuse_result.times[-1])
    grid = np.linspace(t_lo, t_hi, samples)
    exact = np.interp(grid, np.asarray(exact_result.times),
                      np.asarray(exact_result.voltage(node)))
    reuse = np.interp(grid, np.asarray(reuse_result.times),
                      np.asarray(reuse_result.voltage(node)))
    deviation = float(np.max(np.abs(reuse - exact)))
    if not deviation <= band:
        violations.append(InvariantViolation(
            "adaptive-band", subject,
            f"ladder/stale waveform deviates {deviation:.3e} from the "
            f"exact adaptive run at node {node!r} (band {band:.1e})",
        ))
    return violations
