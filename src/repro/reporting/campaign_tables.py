"""Aggregate campaign tables.

Two views over a :class:`~repro.campaign.store.CampaignResult`:

* :func:`render_campaign_table` -- one row per scenario with the Table-I
  counters, plus speedup and max-error columns against a reference method;
* :func:`render_method_matrix` -- the Table-I shape proper: one row per
  *variant* (circuit + parameters + options) and a column block per
  method, which is the natural layout for "method shootout" campaigns
  and the one renderer of the paper's Table I (``bench_table1.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.campaign.store import CampaignResult, ScenarioOutcome
from repro.integrators import INTEGRATOR_REGISTRY
from repro.integrators.implicit import ImplicitNR
from repro.linalg.sparse_lu import FactorizationBudgetExceeded
from repro.reporting.tables import format_table

__all__ = [
    "campaign_rows",
    "render_campaign_table",
    "render_method_matrix",
    "DEFAULT_COLUMNS",
    "DETERMINISTIC_COLUMNS",
]

#: default per-scenario columns of :func:`render_campaign_table`
DEFAULT_COLUMNS = (
    "scenario", "circuit", "method", "status", "#N", "nnzC", "nnzG",
    "#step", "#NRa", "#ma", "#LU", "RT(s)", "peak_factor_nnz",
)

#: the scheduling-independent subset: identical between any two
#: executions of the same scenarios (no wall-clock columns), so tables
#: rendered with these columns are byte-identical across backends and
#: across a campaign interrupted and re-run against its result cache
DETERMINISTIC_COLUMNS = (
    "scenario", "circuit", "method", "status", "#N", "nnzC", "nnzG",
    "#step", "#NRa", "#ma", "#LU", "peak_factor_nnz",
)


def campaign_rows(campaign: CampaignResult,
                  reference_method: Optional[str] = None,
                  columns: Optional[Sequence[str]] = None) -> List[List[object]]:
    """Return ``(rows, headers)`` restricted/ordered to ``columns``."""
    if columns is None:
        columns = list(DEFAULT_COLUMNS)
        if reference_method:
            columns += ["SP", "max_err"]
    dict_rows = campaign.rows(reference_method=reference_method)
    return [[row.get(col) for col in columns] for row in dict_rows], list(columns)


def render_campaign_table(campaign: CampaignResult,
                          reference_method: Optional[str] = None,
                          columns: Optional[Sequence[str]] = None) -> str:
    """Render the per-scenario campaign table as aligned plain text."""
    rows, headers = campaign_rows(campaign, reference_method, columns)
    return format_table(headers, rows)


def _variant_label(outcomes: Sequence[ScenarioOutcome]) -> str:
    """Human label of a variant: factory name + distinguishing tags."""
    scenario = outcomes[0].scenario
    tags = {k: v for k, v in scenario.tags.items() if k != "draw"}
    label = scenario.circuit.factory
    if tags:
        label += "[" + ",".join(f"{k}={v}" for k, v in sorted(tags.items())) + "]"
    return label


def _iteration_column(method: str) -> str:
    """``#NRa`` (Newton iterations per step) for the implicit Newton
    baselines, ``#ma`` (Krylov dimension per step) for every other method,
    unregistered names included (their block renders ``NA``)."""
    integrator = INTEGRATOR_REGISTRY.get(method)
    if integrator is not None and issubclass(integrator, ImplicitNR):
        return "#NRa"
    return "#ma"


def _failure_cell(outcome: ScenarioOutcome) -> str:
    """The step cell of a run that did not complete: ``OoM`` when it hit
    the factorization budget (the paper's "Out of Memory" rows), else
    its status."""
    if (outcome.error or "").startswith(FactorizationBudgetExceeded.__name__):
        return "OoM"
    return outcome.status


def render_method_matrix(campaign: CampaignResult,
                         reference_method: Optional[str] = None,
                         methods: Optional[Sequence[str]] = None) -> str:
    """Render one row per variant with a per-method column block.

    Per method the block reports ``#step``, the iteration count
    (``#NRa`` or ``#ma``, see :func:`_iteration_column`), runtime and
    (with a ``reference_method``) the speedup over the reference -- the
    layout of the paper's Table I.  A run that exceeded its
    factorization budget renders ``OoM`` in the step column, any other
    failed run its status; the remaining cells of a failed or missing
    run render ``NA``.
    """
    groups = campaign.by_variant()
    if methods is None:
        seen: Dict[str, None] = {}
        for outcome in campaign.outcomes:
            seen.setdefault(outcome.scenario.method.strip().lower(), None)
        methods = list(seen)
    else:
        # outcomes are keyed by normalized method names; accept any case
        methods = [m.strip().lower() for m in methods]

    sp_by_scenario: Dict[str, object] = {}
    if reference_method:
        for row in campaign.rows(reference_method=reference_method):
            sp_by_scenario[row["scenario"]] = row.get("SP")

    headers: List[str] = ["variant", "#N", "#Dev", "nnzC", "nnzG"]
    iteration_columns = {method: _iteration_column(method) for method in methods}
    for method in methods:
        headers.extend([f"{method} #step", f"{method} {iteration_columns[method]}",
                        f"{method} RT(s)"])
        if reference_method:
            headers.append(f"{method} SP")

    rows: List[List[object]] = []
    for group in groups.values():
        by_method = {o.scenario.method.strip().lower(): o for o in group}
        first = group[0]
        row: List[object] = [
            _variant_label(group),
            first.structure.get("#N"),
            first.structure.get("#Dev"),
            first.structure.get("nnzC"),
            first.structure.get("nnzG"),
        ]
        for method in methods:
            outcome = by_method.get(method)
            if outcome is None:
                cells: List[object] = [None, None, None]
            elif not outcome.ok:
                cells = [_failure_cell(outcome), None, None]
            else:
                cells = [outcome.summary.get("#step"),
                         outcome.summary.get(iteration_columns[method]),
                         outcome.summary.get("RT(s)")]
            if reference_method:
                cells.append(
                    sp_by_scenario.get(outcome.scenario.name) if outcome is not None else None
                )
            row.extend(cells)
        rows.append(row)
    return format_table(headers, rows)
