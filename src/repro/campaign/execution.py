"""The transport-agnostic scenario executor.

:func:`execute_scenario` is the one contract every execution backend
ships over its transport: it takes a scenario as a plain dict and the
campaign's :class:`~repro.wire.JobContext`, runs the transient analysis,
and returns the outcome as a plain dict -- it never
raises, so a backend only has to move bytes, not interpret failures.
The function lives in its own module (rather than in the runner) because
it is imported by three different kinds of host process: the campaign
parent (serial backend), :class:`~concurrent.futures.ProcessPoolExecutor`
workers, and queue workers (``python -m repro.service worker``).

Per-process caches
------------------
* **Assembly reuse** -- a worker keeps the assembled
  :class:`~repro.circuit.mna.MNASystem` of each distinct circuit spec in a
  small per-process cache, so a sweep that runs N methods x K option sets
  on one circuit builds its MNA matrices once per worker instead of N*K
  times.  (Device evaluation is stateless, so reuse cannot change
  results; the backend-contract tests lock this in.)
* **DC reuse** -- the DC operating point is cached per ``(circuit,
  memory budget)`` the same way: the DC system does
  not depend on the integration method, so method sweeps on one circuit
  pay for Newton once; the original solve's LU counters are replayed
  into every reusing run so the reported statistics match an uncached
  execution.

Failure semantics
-----------------
* **Failure capture** -- a scenario that raises, diverges or exceeds its
  timeout produces a failure outcome with the traceback attached; it
  never takes down the campaign.
* **Per-scenario timeout** -- enforced inside the worker with
  ``signal.setitimer`` where available (POSIX main thread), so a hung
  scenario frees its worker instead of blocking the backend's queue.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as traceback_module
from typing import Dict, Optional, Tuple

import numpy as np

from repro.campaign.scenario import Scenario
from repro.campaign.store import ScenarioOutcome
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.wire import JobContext

__all__ = ["execute_scenario", "reset_worker_caches"]

#: per-worker cache of assembled MNA systems, keyed by CircuitSpec.cache_key()
_MNA_CACHE: Dict[str, object] = {}
#: cap on cached assemblies per worker (FIFO eviction); campaigns rarely
#: touch more than a handful of distinct circuits per worker
_MNA_CACHE_MAX = 8

#: per-worker cache of DC operating points, keyed by circuit + everything
#: the DC system depends on (see :func:`_dc_cache_key`); holds
#: ``(DCResult, LUStats)`` pairs so reusing runs replay the solve's counters
_DC_CACHE: Dict[Tuple, Tuple[object, object]] = {}
_DC_CACHE_MAX = 16


def reset_worker_caches() -> None:
    """Drop the per-process assembly/DC caches.

    The serial backend calls this once per campaign so an in-process run
    mirrors the lifetime of a freshly spawned pool or queue worker.
    """
    _MNA_CACHE.clear()
    _DC_CACHE.clear()


class _ScenarioTimeout(Exception):
    """Raised inside a worker when the per-scenario timer fires."""


def _no_guard() -> None:
    pass


def _timeout_guard(seconds: Optional[float]):
    """Arm a SIGALRM-based timeout if the platform allows it.

    Returns a disarm callable.  On platforms without ``setitimer`` (or off
    the main thread) the guard is a no-op and timeouts are best-effort.
    ``seconds`` comes from a validated :class:`JobContext`: ``None`` or
    positive.
    """
    if (
        seconds is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        return _no_guard

    def _on_alarm(signum, frame):
        raise _ScenarioTimeout(f"scenario exceeded its {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, float(seconds))
    except BaseException:
        signal.signal(signal.SIGALRM, previous)
        raise

    def _disarm():
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

    return _disarm


def _cached_mna(scenario: Scenario) -> Tuple[object, bool]:
    """Build (or fetch) the assembled MNA system for the scenario's circuit."""
    key = scenario.circuit.cache_key()
    if key in _MNA_CACHE:
        return _MNA_CACHE[key], True
    circuit = scenario.circuit.build()
    mna = circuit.build()
    while len(_MNA_CACHE) >= _MNA_CACHE_MAX:
        _MNA_CACHE.pop(next(iter(_MNA_CACHE)))
    _MNA_CACHE[key] = mna
    return mna, False


def _dc_cache_key(circuit_key: str, options: SimOptions) -> Tuple:
    """Identity of a DC solve: circuit plus every option the solve reads."""
    return (circuit_key, options.max_factor_nnz)


def execute_scenario(
    scenario_data: Dict[str, object],
    context: Optional[JobContext] = None,
) -> Dict[str, object]:
    """Run one scenario under a job context; return the outcome as a dict.

    This function is the unit shipped to workers over every transport.
    Once ``scenario_data`` parses as a :class:`Scenario` it never raises --
    every failure mode is folded into the outcome's status/traceback; a
    dict that :meth:`Scenario.from_dict` refuses raises its error (callers
    pass ``Scenario.to_dict()`` output, and the queue worker checks stored
    payloads first).  ``None`` is the default context.
    """
    context = context or JobContext()
    scenario = Scenario.from_dict(scenario_data)
    outcome = ScenarioOutcome(scenario=scenario, worker=os.getpid())
    wall_start = time.perf_counter()
    disarm = _no_guard
    try:
        disarm = _timeout_guard(context.timeout)
        base = SimOptions.from_dict(context.base_options) \
            if context.base_options else None
        options = scenario.sim_options(base)
        if scenario.observe:
            observe = list(dict.fromkeys(list(options.observe_nodes) + scenario.observe))
            options = options.with_updates(observe_nodes=observe)
        mna, cache_hit = _cached_mna(scenario)
        outcome.cache_hit = cache_hit
        outcome.structure = mna.structure_stats().as_dict()
        simulator = TransientSimulator(mna, method=scenario.method, options=options)
        dc_key = _dc_cache_key(scenario.circuit.cache_key(), options)
        cached_dc = _DC_CACHE.get(dc_key)
        if cached_dc is not None:
            simulator.seed_dc(*cached_dc)
            outcome.dc_cache_hit = True
        result = simulator.run()
        if cached_dc is None and simulator.dc_result is not None:
            while len(_DC_CACHE) >= _DC_CACHE_MAX:
                _DC_CACHE.pop(next(iter(_DC_CACHE)))
            _DC_CACHE[dc_key] = (simulator.dc_result, simulator.dc_lu_stats)
        outcome.summary = result.summary()
        outcome.status = "ok" if result.stats.completed else "failed"
        if not result.stats.completed:
            outcome.error = result.stats.failure_reason
        elif scenario.observe:
            grid = np.linspace(options.t_start, options.t_stop,
                               context.sample_points)
            outcome.sample_times = [float(t) for t in grid]
            times = result.time_array
            for node in scenario.observe:
                values = np.interp(grid, times, result.voltage(node))
                outcome.samples[node] = [float(v) for v in values]
    except _ScenarioTimeout as exc:
        outcome.status = "timeout"
        outcome.error = str(exc)
    except Exception as exc:  # noqa: BLE001 -- failure capture is the contract
        outcome.status = "error"
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.traceback = traceback_module.format_exc()
    finally:
        disarm()
        outcome.runtime_seconds = time.perf_counter() - wall_start
    return outcome.to_dict()
