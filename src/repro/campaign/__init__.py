"""Parallel scenario-sweep engine for batched transient simulation.

The paper's evaluation -- the same transient analysis across eight
circuits, several integration methods and multiple error budgets -- is an
embarrassingly parallel sweep.  This subpackage turns the one-shot
:func:`repro.simulate` call into a batch evaluation engine:

* :mod:`repro.campaign.scenario` -- declarative, picklable scenario
  descriptions (circuit factory + method + option overrides);
* :mod:`repro.campaign.sweep` -- the grid planner (circuits x parameters
  x options x methods) with deterministic per-variant seeds;
* :mod:`repro.campaign.backends` -- pluggable execution backends behind
  one ABC: in-process serial, process pool, and a durable job queue
  drained by ``python -m repro.service worker`` processes (lease expiry
  redelivers the jobs of crashed workers);
* :mod:`repro.campaign.execution` -- the transport-agnostic
  ``execute_scenario(dict) -> dict`` contract every backend ships, with
  per-worker assembly/DC caching, timeouts and failure capture;
* :mod:`repro.campaign.runner` -- campaign policy over the backend seam:
  result-cache adoption, plan-order dispatch, streaming collection;
* :mod:`repro.campaign.cache` -- scenario-hash result cache (a re-planned
  campaign only simulates scenarios whose canonical spec changed, and an
  interrupted one resumes by re-running against the same directory);
* :mod:`repro.campaign.store` -- outcome collection,
  aggregation and JSON persistence (rendered by
  :mod:`repro.reporting.campaign_tables`).

Quick start::

    from repro.campaign import grid_sweep, run_campaign
    from repro.reporting import render_method_matrix

    scenarios = grid_sweep(
        circuits=["ckt1", "ckt4"],
        methods=["benr", "er", "er-c"],
        param_grid={"scale": [0.1, 0.2]},
        option_grid={"err_budget": [1e-3, 1e-4]},
        observe=["c0_out1"],
    )
    campaign = run_campaign(scenarios, timeout=120.0)
    print(render_method_matrix(campaign, reference_method="benr"))
"""

from repro.campaign.scenario import (
    CircuitSpec,
    Scenario,
    apply_option_overrides,
    canonical_scenario_json,
    scenario_hash,
)
from repro.campaign.sweep import grid_sweep
from repro.campaign.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
    resolve_backend,
)
from repro.campaign.cache import ResultCache, context_hash
from repro.campaign.runner import default_workers, execute_scenario, run_campaign
from repro.campaign.store import (
    DETERMINISTIC_SUMMARY_KEYS,
    CampaignResult,
    ScenarioOutcome,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "QueueBackend",
    "resolve_backend",
    "ResultCache",
    "context_hash",
    "CircuitSpec",
    "Scenario",
    "apply_option_overrides",
    "canonical_scenario_json",
    "scenario_hash",
    "grid_sweep",
    "run_campaign",
    "execute_scenario",
    "default_workers",
    "CampaignResult",
    "ScenarioOutcome",
    "DETERMINISTIC_SUMMARY_KEYS",
]
