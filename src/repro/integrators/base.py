"""Integrator base class and the shared adaptive time-stepping loop.

Every integration method implements a single abstract operation,
:meth:`Integrator.advance` -- "produce one *accepted* step of size at most
``h`` starting from ``(t, x)``" -- and reports how large a step it actually
took and what it recommends for the next one.  The surrounding loop
(:meth:`Integrator.run`) is method-agnostic: it clips proposed steps to
source breakpoints (so the piecewise-linear input assumption of Eq. 13
holds) and to the simulation horizon, records results and converts
resource-exhaustion errors into a cleanly reported failure (the
"Out of Memory" rows of Table I).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.circuit.mna import EvalResult, MNASystem
from repro.core.options import SimOptions
from repro.core.results import RunStatistics, SimulationResult, StepRecord
from repro.core.workspace import LinearizationCache
from repro.integrators.ladder import LADDER_RATIO, GeometricLadder
from repro.linalg.sparse_lu import FactorizationBudgetExceeded
from repro.telemetry import metrics as telemetry

__all__ = ["IntegratorError", "ConvergenceError", "StepOutcome", "Integrator"]

# process-local run telemetry, published once per run() (not per step --
# the hot loop already accumulates into RunStatistics; telemetry only
# folds the per-run deltas into the process-wide registry, which queue
# workers ship to the service front end for fleet-wide /metrics)
_TM_RUNS = telemetry.counter(
    "repro_integrator_runs_total",
    "Transient runs finished, by method and completion.",
    ("method", "completed"))
#: per-method counters, one ``(family, getter)`` per RunStatistics tally;
#: each run adds the tally's growth over the run
_TM_TALLIES = tuple(
    (telemetry.counter(name, text, ("method",)), getter)
    for name, text, getter in (
        ("repro_integrator_steps_total",
         "Accepted time steps, by method.",
         lambda s: s.num_steps),
        ("repro_integrator_rejections_total",
         "Rejected step attempts, by method.",
         lambda s: s.num_rejections),
        ("repro_integrator_newton_iterations_total",
         "Newton iterations across all steps, by method.",
         lambda s: s.total_newton_iterations),
        ("repro_integrator_lu_factorizations_total",
         "Real LU factorizations performed (the Table-I #LU work).",
         lambda s: s.lu.num_factorizations),
        ("repro_integrator_lu_reused_total",
         "Exact cross-step LU reuses served by the linearization cache.",
         lambda s: s.lu.num_reused),
        ("repro_integrator_lu_orderings_total",
         "Factorizations that computed a fresh fill-reducing ordering.",
         lambda s: s.lu.num_orderings),
        ("repro_integrator_lu_symbolic_reuses_total",
         "Numeric refactorizations that reused a pattern-matched ordering.",
         lambda s: s.lu.num_symbolic_reuses),
        ("repro_integrator_lu_stale_reuses_total",
         "Jacobian requests served by a stale cross-h factorization plus "
         "iterative refinement.",
         lambda s: s.lu.num_stale_reuses),
        ("repro_integrator_lu_refinement_fallbacks_total",
         "Stale cross-h solves whose refinement stalled, forcing a fresh "
         "factorization.",
         lambda s: s.lu.num_refinement_fallbacks),
        ("repro_integrator_ladder_steps_total",
         "Accepted steps taken exactly on a step-ladder rung.",
         lambda s: s.num_ladder_steps),
        ("repro_integrator_ladder_holds_total",
         "Accepted on-rung steps that repeated the previous step's rung.",
         lambda s: s.num_ladder_holds),
    ))
_TM_RUN_SECONDS = telemetry.histogram(
    "repro_integrator_run_seconds",
    "Wall-clock seconds per transient run.", ("method",))


class IntegratorError(RuntimeError):
    """Base class for integration failures."""


class ConvergenceError(IntegratorError):
    """Raised when an iteration (Newton or step control) fails to converge."""


@dataclass
class StepOutcome:
    """Result of one accepted step produced by :meth:`Integrator.advance`."""

    x: np.ndarray
    h_used: float
    h_next: float
    record: StepRecord


class Integrator(ABC):
    """Common machinery shared by all integration methods."""

    #: short method name used in reports ("BENR", "ER", ...)
    name: str = "base"

    # -- step control (Algorithm 2), shared by ER, EXPM-STD and ImplicitNR ----------
    #: step-shrink factor ``alpha`` applied on rejection
    ALPHA = 0.5
    #: step-growth factor ``beta`` applied after easy steps
    BETA = 2.0
    #: grow the step when it needed fewer rejections than this
    GROW_WHEN_REJECTIONS_BELOW = 1
    #: ER additionally requires the error estimate to sit below this
    #: fraction of the budget before growing (damps the grow/reject
    #: oscillation of the plain Algorithm 2 controller)
    GROW_ERROR_FRACTION = 0.25
    #: rejections per step before the run gives up
    MAX_REJECTIONS = 25

    def __init__(self, mna: MNASystem, options: Optional[SimOptions] = None):
        self.mna = mna
        self.options = options if options is not None else SimOptions()
        #: cross-step linearization/LU cache (the linear fast path); all
        #: per-step factorizations of the integrators route through it
        self.cache = LinearizationCache(mna, self.options)
        #: statistics accumulator; replaced by the result's accumulator in run()
        self.stats = RunStatistics(method=self.name)
        #: per-run step-size ladder (``SimOptions.step_ladder``); built by
        #: run() so each run starts with a fresh active rung
        self._ladder: Optional[GeometricLadder] = None

    # -- shared helpers ---------------------------------------------------------------

    def evaluate(self, x: np.ndarray) -> EvalResult:
        """Evaluate the circuit at ``x``.

        On linear circuits the cache serves the constant matrices without
        re-assembling them (bit-identical to the direct evaluation).
        """
        return self.cache.evaluate(x)

    def source(self, t: float) -> np.ndarray:
        """RHS excitation ``B u(t)``."""
        return self.mna.source_vector(t)

    def cached_factorizer(self, jac_key):
        """Return a ``(jacobian, label) -> SparseLU`` closure for NewtonSolver
        that routes the Jacobian factorization through the linearization
        cache under ``jac_key`` (shared by the implicit methods, whose
        ``a C/h + b G`` Jacobians are constants of the key on linear
        circuits)."""
        def factorizer(jacobian, label):
            return self.cache.lu(jac_key, jacobian, stats=self.stats.lu,
                                 max_factor_nnz=self.options.max_factor_nnz,
                                 label=label)
        return factorizer

    def weighted_norm(self, delta: np.ndarray, reference: np.ndarray,
                      abstol: float, reltol: float) -> float:
        """Return ``max_i |delta_i| / (abstol + reltol * |reference_i|)``."""
        scale = abstol + reltol * np.abs(reference)
        return float(np.max(np.abs(delta) / scale)) if delta.size else 0.0

    def snap_retry(self, h_try: float) -> float:
        """Snap a rejection-shrunk retry step onto the active ladder.

        Identity when the ladder is off, so default-knob trajectories are
        untouched.  Called by the implicit methods' internal rejection
        loops so retries land on rungs whose factorization is (or becomes)
        cached instead of on one-shot step sizes.
        """
        if self._ladder is None:
            return h_try
        return self._ladder.snap_retry(h_try)

    def _make_ladder(self) -> Optional[GeometricLadder]:
        opts = self.options
        if opts.step_ladder != "geometric":
            return None
        h_max = opts.resolved_h_max()
        return GeometricLadder(
            h_ref=min(opts.resolved_h_init(), h_max),
            ratio=LADDER_RATIO,
            h_min=opts.resolved_h_min(),
            h_max=h_max,
        )

    # -- abstract interface ------------------------------------------------------------

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        """Hook called once before the time loop (multistep history, etc.)."""

    @abstractmethod
    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        """Advance the solution by one accepted step of size at most ``h``.

        Implementations may internally reject and shrink the step; the
        outcome reports the step actually taken (``h_used <= h``) and the
        recommended size of the next step (before clipping).
        """

    # -- the time loop --------------------------------------------------------------------

    def run(self, x0: np.ndarray, result: Optional[SimulationResult] = None) -> SimulationResult:
        """Integrate from ``t_start`` to ``t_stop`` starting at state ``x0``."""
        opts = self.options
        if result is None:
            result = SimulationResult(
                self.mna, method=self.name, store_states=opts.store_states,
                observe_nodes=opts.observe_nodes,
            )
        # advance() implementations accumulate into self.stats; expose the
        # result's accumulator so everything lands in one place.
        self.stats = result.stats
        self.stats.method = self.name
        x = np.array(x0, dtype=float, copy=True)
        t = opts.t_start
        span = opts.span
        h_min = opts.resolved_h_min()
        h_max = opts.resolved_h_max()
        h_next = min(opts.resolved_h_init(), h_max)
        ladder = self._make_ladder()
        self._ladder = ladder
        if ladder is not None:
            h_next = ladder.quantize(h_next)

        breakpoints = [bp for bp in self.mna.breakpoints(opts.t_stop) if bp > t]
        breakpoints.append(opts.t_stop)
        # index cursor over the (sorted) breakpoint list: popping from the
        # head of a Python list is O(n) per pop, which made many-breakpoint
        # PWL drives quadratic in the breakpoint count
        bp_cursor = 0

        # run() may be handed a result that already carries statistics
        # (resumed aggregation); telemetry publishes this run's deltas only
        stats_before = self._stats_snapshot()

        result.start_clock()
        result.record_point(t, x)
        self.prepare(x, t)

        t_eps = 1e-12 * span
        try:
            while t < opts.t_stop - t_eps:
                while bp_cursor < len(breakpoints) and \
                        breakpoints[bp_cursor] <= t + t_eps:
                    bp_cursor += 1
                next_stop = breakpoints[bp_cursor] if bp_cursor < len(breakpoints) \
                    else opts.t_stop
                h = min(h_next, h_max, next_stop - t, opts.t_stop - t)
                h = max(h, min(h_min, next_stop - t))
                # a step shortened to land on a breakpoint (or the horizon)
                # is an event of the *input*, not a verdict on the step size
                clipped = h < h_next * (1.0 - 1e-12)

                outcome = self.advance(x, t, h)
                if outcome.h_used <= 0:
                    raise IntegratorError(
                        f"{self.name} returned a non-positive step size at t={t:g}"
                    )
                x = outcome.x
                t += outcome.h_used
                result.record_point(t, x)
                result.record_step(outcome.record)
                proposed = outcome.h_next
                if ladder is not None:
                    previous_rung = ladder.active_rung
                    rung = ladder.observe(outcome.h_used)
                    if rung is not None:
                        self.stats.num_ladder_steps += 1
                        if rung == previous_rung:
                            self.stats.num_ladder_holds += 1
                    elif (clipped and outcome.record.rejections == 0
                          and ladder.active_value is not None):
                        # breakpoint landing: resume from the rung that was
                        # active before the truncated step instead of
                        # compounding the controller's growth factor from it
                        proposed = max(proposed, ladder.active_value)
                    proposed = ladder.quantize(proposed)
                h_next = float(np.clip(proposed, h_min, h_max))
            result.stats.completed = True
        except (FactorizationBudgetExceeded, IntegratorError, np.linalg.LinAlgError) as exc:
            result.stats.completed = False
            result.stats.failure_reason = f"{type(exc).__name__}: {exc}"
        finally:
            result.stop_clock()
            self._publish_telemetry(stats_before)
        return result

    # -- telemetry ---------------------------------------------------------------------

    def _stats_snapshot(self):
        stats = self.stats
        return [getter(stats) for _, getter in _TM_TALLIES] + [stats.runtime_seconds]

    def _publish_telemetry(self, before) -> None:
        after = self._stats_snapshot()
        method = self.name
        _TM_RUNS.labels(method, "yes" if self.stats.completed else "no").inc()
        for (family, _), start, end in zip(_TM_TALLIES, before, after):
            if end > start:
                family.labels(method).inc(end - start)
        _TM_RUN_SECONDS.labels(method).observe(max(0, after[-1] - before[-1]))
