"""Campaign orchestration: what runs, where, and what is reused.

Historically this module *was* the execution layer -- a hard-wired
process-pool loop.  That loop now lives behind the pluggable
:class:`~repro.campaign.backends.base.ExecutionBackend` seam
(:mod:`repro.campaign.backends`), and :func:`run_campaign` is pure
policy layered on top of it:

1. **Adoption** -- outcomes recorded in a resumable journal
   (``journal=..., resume=True``) or stored in the scenario-hash result
   cache (``cache=...``) are adopted without re-simulating; only
   scenarios whose canonical spec (or campaign context) changed are
   executed.
2. **Scheduling** -- ``schedule="adaptive"`` dispatches the pending
   scenarios predicted-longest-first (LPT, from the structure stats and
   runtimes of already-known outcomes) to cut pool tail latency; the
   dispatch order is recorded in the metadata so runs stay reproducible.
3. **Execution** -- the chosen backend ships each pending scenario
   through the transport-agnostic ``execute_scenario(dict) -> dict``
   contract and delivers outcomes as they complete.
4. **Streaming collection** -- every delivery appends to the journal
   (with periodic durable checkpoints), feeds the result cache, updates
   the incremental aggregates and fires the progress callback; an
   interrupted campaign can be continued with ``resume=True`` and ends
   up with the same aggregate tables as an uninterrupted one.

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
    ExecutionContext,
    default_workers,
    resolve_backend,
)
from repro.campaign.cache import ResultCache, context_hash
from repro.campaign.execution import execute_scenario  # noqa: F401  (public API)
from repro.campaign.journal import CampaignJournal
from repro.campaign.scenario import Scenario
from repro.campaign.schedule import (
    SCHEDULE_POLICIES,
    append_history,
    history_path_for,
    load_history,
    plan_schedule,
    record_from_outcome,
)
from repro.campaign.store import (
    CampaignResult,
    IncrementalAggregates,
    ScenarioOutcome,
)
from repro.core.options import SimOptions

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
    journal: Union[str, Path, CampaignJournal, None] = None,
    resume: bool = False,
    checkpoint_every: int = 25,
    schedule: str = "plan",
    history: Optional[Sequence[ScenarioOutcome]] = None,
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
        order).
    backend:
        An :class:`ExecutionBackend` instance or a name -- ``"serial"``,
        ``"process"`` (alias ``"pool"``), ``"queue"`` -- or ``"auto"``
        (the default), which picks the pool when more than one worker
        is useful.  The chosen name lands in ``metadata["mode"]``.
    cache:
        Result-cache directory (or :class:`ResultCache`).  Scenarios
        whose content hash + campaign context already have a stored
        ``ok`` outcome are adopted without re-simulating; fresh ``ok``
        outcomes are stored back.
    journal:
        JSONL outcome journal path (or :class:`CampaignJournal`).  Every
        outcome is appended as it arrives, with a durable checkpoint
        every ``checkpoint_every`` outcomes.  Without ``resume`` an
        existing file is truncated.
    resume:
        Replay an existing journal first and execute only the scenarios
        it does not cover with a finished ``ok`` outcome -- recorded
        timeouts and errors re-run, so resuming recovers from the very
        interruption that produced them (requires ``journal``; refuses
        a journal recorded under a different campaign context).
    schedule:
        ``"plan"`` dispatches in scenario order; ``"adaptive"`` goes
        predicted-longest-first using known outcomes (adopted ones plus
        ``history``).  The dispatch order lands in
        ``metadata["schedule"]`` either way.
    history:
        Extra finished outcomes (e.g. a prior campaign's) fed to the
        adaptive scheduler's runtime model.
    """
    scenarios = list(scenarios)
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names within a campaign must be unique")
    if schedule not in SCHEDULE_POLICIES:
        raise ValueError(
            f"unknown schedule {schedule!r}; expected "
            + "|".join(SCHEDULE_POLICIES))
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")

    base_data = base_options.to_dict() if base_options is not None else None
    context = ExecutionContext(base_options=base_data, timeout=timeout,
                               sample_points=sample_points)
    ctx_key = context_hash(base_data, sample_points)
    payloads = [s.to_dict() for s in scenarios]
    hashes = [s.content_hash() for s in scenarios]

    #: plan index -> outcome dict adopted without executing (journal/cache)
    adopted_dicts: Dict[int, Dict[str, object]] = {}
    num_resumed = 0
    num_cached = 0
    wall_start = time.perf_counter()

    # -- adoption: journal replay ----------------------------------------------------
    the_journal: Optional[CampaignJournal] = None
    if journal is not None:
        the_journal = journal if isinstance(journal, CampaignJournal) else \
            CampaignJournal(journal, checkpoint_every=checkpoint_every)
    if resume and the_journal is not None and the_journal.exists():
        header, replayed = the_journal.replay()
        del header  # context validated by journal.start()
        for index, scenario_hash in enumerate(hashes):
            recorded = replayed.get(scenario_hash)
            if recorded is None:
                continue
            if recorded.get("status") != "ok":
                # adopt finished work only: recorded timeouts are
                # wall-clock policy (the natural recovery flow is
                # "resume with a bigger timeout") and recorded errors
                # may be the very infrastructure failure -- dead
                # workers, full disk -- the resume exists to get past;
                # deterministic scenario errors simply reproduce
                continue
            adopted = dict(recorded)
            # name/tags are presentation metadata outside the hash: show
            # this campaign's labels, not the recording campaign's
            adopted["scenario"] = payloads[index]
            adopted["reused_from"] = "journal"
            adopted_dicts[index] = adopted
            num_resumed += 1

    # -- adoption: result cache ------------------------------------------------------
    the_cache: Optional[ResultCache] = None
    if cache is not None:
        the_cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        for index, scenario in enumerate(scenarios):
            if index in adopted_dicts:
                continue
            data = the_cache.get(scenario, ctx_key)
            if data is not None:
                adopted_dicts[index] = data
                num_cached += 1

    pending = [(i, scenarios[i]) for i in range(len(scenarios))
               if i not in adopted_dicts]

    # -- scheduling ------------------------------------------------------------------
    #: runtime-history file shared through the result-cache directory;
    #: adaptive runs load it (cost-model persistence: real first-run LPT
    #: predictions) and every executed outcome appends its record back
    history_file: Optional[Path] = None
    if the_cache is not None:
        history_file = history_path_for(the_cache.root)
    persisted_records = 0
    if schedule == "adaptive":
        known_outcomes = [ScenarioOutcome.from_dict(d)
                          for d in adopted_dicts.values()]
        if history:
            known_outcomes.extend(history)
        model = load_history(history_file) if history_file is not None else None
        if model is not None:
            persisted_records = model.num_records
        order, predictions = plan_schedule(pending, known_outcomes, model=model)
        by_index = dict(pending)
        pending = [(i, by_index[i]) for i in order]
    else:
        predictions = None
    schedule_record: Dict[str, object] = {
        "policy": schedule,
        "dispatch_order": [scenarios[i].name for i, _ in pending],
    }
    if predictions is not None:
        schedule_record["predicted_seconds"] = predictions
        schedule_record["history_records"] = persisted_records

    # -- execution -------------------------------------------------------------------
    the_backend = resolve_backend(backend, workers=workers,
                                  num_scenarios=len(pending))

    if the_journal is not None:
        the_journal.start(ctx_key, resume=resume, metadata={
            "num_scenarios": len(scenarios),
            "sample_points": sample_points,
            "backend": the_backend.name,
        })

    aggregates = IncrementalAggregates()
    deliver_lock = threading.Lock()
    outcome_objs: List[Optional[ScenarioOutcome]] = [None] * len(scenarios)
    done = 0

    def _deliver(index: int, data: Dict[str, object],
                 journal_line: bool = True) -> None:
        nonlocal done
        with deliver_lock:
            done += 1
            outcome = ScenarioOutcome.from_dict(data)
            outcome_objs[index] = outcome
            aggregates.update(outcome)
            if the_journal is not None and journal_line:
                the_journal.append(hashes[index], data,
                                   aggregates=aggregates.snapshot())
            # everything not already served *from* the cache is stored
            # back -- including journal-adopted outcomes, so a resumed
            # campaign still warms the cache for the next re-plan
            if the_cache is not None and outcome.reused_from != "cache":
                the_cache.put(scenarios[index], ctx_key, data)
            # executed outcomes feed the persistent cost model next to
            # the cache; adopted ones already have a record there, and a
            # backend whose workers record for themselves (the queue
            # backend in data-dir mode) owns the append -- either way,
            # one record per executed scenario
            if history_file is not None and not outcome.reused \
                    and not the_backend.records_history:
                append_history(history_file,
                               [record_from_outcome(outcome)])
            done_now = done
        if progress is not None:
            progress(outcome, done_now, len(scenarios))

    # adopted outcomes stream through the same delivery path; journal-
    # adopted ones skip the journal append (they are already lines of the
    # very file being appended to)
    for index, data in sorted(adopted_dicts.items()):
        _deliver(index, data,
                 journal_line=data.get("reused_from") != "journal")
    adopted_dicts.clear()

    try:
        if pending:
            items = [(index, payloads[index]) for index, _ in pending]
            the_backend.execute(items, context, _deliver)
    finally:
        if the_journal is not None:
            the_journal.close(aggregates=aggregates.snapshot())

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
        "num_resumed": num_resumed,
        "timeout": timeout,
        "sample_points": sample_points,
        "wall_seconds": time.perf_counter() - wall_start,
        "base_options": base_data,
        "context": ctx_key,
        "schedule": schedule_record,
    }
    metadata.update(the_backend.metadata())
    return CampaignResult(outcomes=outcomes, metadata=metadata)
