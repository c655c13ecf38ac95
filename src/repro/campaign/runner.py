"""Campaign orchestration: what runs, where, and what is reused.

Historically this module *was* the execution layer -- a hard-wired
process-pool loop.  That loop now lives behind the pluggable
:class:`~repro.campaign.backends.base.ExecutionBackend` seam
(:mod:`repro.campaign.backends`), and :func:`run_campaign` is pure
policy layered on top of it:

1. **Adoption** -- outcomes stored in the scenario-hash result cache
   (``cache=...``) are adopted without re-simulating; only scenarios
   whose canonical spec (or campaign context) changed are executed.
2. **Execution** -- the chosen backend ships each pending scenario, in
   plan order, through the transport-agnostic
   ``execute_scenario(dict) -> dict`` contract and delivers outcomes as
   they complete.
3. **Streaming collection** -- every delivery durably stores an ``ok``
   outcome in the result cache and fires the progress callback.  An
   interrupted campaign is resumed by re-running it with the same
   ``cache=`` directory: the re-run adopts every outcome stored before
   the interruption, executes the rest, and ends up with the same
   aggregate tables as an uninterrupted run.

Outcomes are returned in scenario order regardless of completion order,
and per-scenario statistics are identical across every backend (the
circuits are rebuilt from the same specs and the integrators are
deterministic) -- the backend-contract test suite locks this in.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.campaign.backends import (
    ExecutionBackend,
    default_workers,
    resolve_backend,
)
from repro.campaign.cache import ResultCache, context_hash
from repro.campaign.execution import execute_scenario  # noqa: F401  (public API)
from repro.campaign.scenario import Scenario
from repro.campaign.store import CampaignResult, ScenarioOutcome
from repro.core.options import SimOptions
from repro.wire import JobContext

__all__ = ["run_campaign", "execute_scenario", "default_workers"]


def run_campaign(
    scenarios: Sequence[Scenario],
    base_options: Optional[SimOptions] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    sample_points: int = 101,
    progress: Optional[Callable[[ScenarioOutcome, int, int], None]] = None,
    *,
    backend: Union[str, ExecutionBackend, None] = None,
    cache: Union[str, Path, ResultCache, None] = None,
) -> CampaignResult:
    """Execute ``scenarios`` and collect a :class:`CampaignResult`.

    Parameters
    ----------
    base_options:
        :class:`SimOptions` every scenario's overrides are applied on top
        of (defaults to ``SimOptions()``).
    workers:
        Worker count for the pool/queue backends; defaults to one per
        core (bounded by the number of pending scenarios).
    timeout:
        Per-scenario wall-clock budget in seconds (enforced in the worker
        where the platform supports timers).
    progress:
        Optional callback ``(outcome, done, total)`` invoked as outcomes
        arrive (adopted outcomes first, then executed ones in completion
        order), after the outcome is stored in the cache.
    backend:
        An :class:`ExecutionBackend` instance or a name -- ``"serial"``,
        ``"process"`` (alias ``"pool"``), ``"queue"`` -- or ``"auto"``
        (the default), which picks the pool when more than one worker
        is useful.  The chosen name lands in ``metadata["mode"]``.
    cache:
        Result-cache directory (or :class:`ResultCache`).  Scenarios
        whose content hash + campaign context already have a stored
        ``ok`` outcome are adopted without re-simulating; fresh ``ok``
        outcomes are stored back durably as they arrive, so re-running
        an interrupted campaign against the same directory resumes it.
        Timeouts and errors are never stored and always re-run.

    Raises
    ------
    ValueError
        When ``base_options``, ``timeout`` and ``sample_points`` do not
        make a valid :class:`~repro.wire.JobContext` (``sample_points``
        below 2, a ``timeout`` that is not a positive number of seconds
        up to ``repro.wire.messages.MAX_TIMEOUT_SECONDS``): raised before
        any cache lookup or dispatch, on every backend alike.
    """
    # the campaign's one job context, validated here -- before any cache
    # lookup or dispatch -- so every backend sees the same valid context
    context = JobContext(
        base_options=base_options.to_dict() if base_options is not None
        else None,
        timeout=timeout, sample_points=sample_points)
    scenarios = list(scenarios)
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names within a campaign must be unique")

    ctx_key = context_hash(context)
    wall_start = time.perf_counter()

    # -- adoption: result cache ------------------------------------------------------
    #: plan index -> outcome dict adopted from the cache without executing
    adopted_dicts: Dict[int, Dict[str, object]] = {}
    the_cache: Optional[ResultCache] = None
    if cache is not None:
        the_cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        for index, scenario in enumerate(scenarios):
            data = the_cache.get(scenario, ctx_key)
            if data is not None:
                adopted_dicts[index] = data
    num_cached = len(adopted_dicts)

    pending = [(i, scenarios[i]) for i in range(len(scenarios))
               if i not in adopted_dicts]

    # -- execution -------------------------------------------------------------------
    the_backend = resolve_backend(backend, workers=workers,
                                  num_scenarios=len(pending))

    deliver_lock = threading.Lock()
    outcome_objs: List[Optional[ScenarioOutcome]] = [None] * len(scenarios)
    done = 0

    def _deliver(index: int, data: Dict[str, object]) -> None:
        nonlocal done
        with deliver_lock:
            done += 1
            outcome = ScenarioOutcome.from_dict(data)
            outcome_objs[index] = outcome
            # stored before the progress callback fires: whatever a
            # consumer has seen finish survives an interruption
            if the_cache is not None and outcome.reused_from != "cache":
                the_cache.put(scenarios[index], ctx_key, data)
            done_now = done
        if progress is not None:
            progress(outcome, done_now, len(scenarios))

    # adopted outcomes stream through the same delivery path
    for index, data in sorted(adopted_dicts.items()):
        _deliver(index, data)
    adopted_dicts.clear()

    if pending:
        items = [(index, scenarios[index].to_dict()) for index, _ in pending]
        the_backend.execute(items, context, _deliver)

    # -- collection ------------------------------------------------------------------
    missing = [scenarios[i].name for i, o in enumerate(outcome_objs)
               if o is None]
    if missing:
        raise RuntimeError(
            f"backend {the_backend.name!r} failed to deliver outcomes for "
            f"{missing!r} (broken ExecutionBackend contract)")
    outcomes = list(outcome_objs)
    metadata = {
        "num_scenarios": len(scenarios),
        "num_executed": len(pending),
        "num_cached": num_cached,
        "timeout": context.timeout,
        "sample_points": context.sample_points,
        "wall_seconds": time.perf_counter() - wall_start,
        "base_options": context.base_options,
        "context": ctx_key,
    }
    metadata.update(the_backend.metadata())
    return CampaignResult(outcomes=outcomes, metadata=metadata)
