"""Adaptive scenario scheduling: predicted-runtime, largest-first.

A pool finishing a campaign is only as fast as its last worker; when the
biggest scenario is dispatched last, every other worker idles while it
runs (the classic makespan tail).  Dispatching the *predicted-longest*
scenarios first (LPT scheduling) trims that tail without changing any
outcome -- scenarios are independent, so order is pure policy.

Predictions come from outcomes that already exist -- result-cache hits
and the runtime records persisted next to the cache (below) -- which
carry both the measured runtime and the circuit's structure stats:

1. a scenario whose ``(circuit, method)`` pair has recorded runs is
   predicted at their mean runtime;
2. a scenario whose circuit appeared (under any method) is predicted
   from the circuit's matrix size via the history's global
   seconds-per-nonzero rate;
3. a scenario with no usable history has no prediction and is dispatched
   *before* all predicted ones (unknown cost is treated as potentially
   large -- the conservative choice for the tail).

The dispatch order is deterministic (ties fall back to plan order) and
is recorded in the campaign metadata, so an adaptive run remains exactly
reproducible from its own report.

The model also **persists**: :func:`append_history` /
:func:`load_history` keep a shared append-only JSONL of
per-``(circuit, method)`` runtime records next to the result cache (or
the service broker), so a *first-run* campaign -- nothing adopted --
still gets real LPT predictions from every prior campaign and every
service worker that ever ran the circuit.
``run_campaign(schedule="adaptive", cache=...)`` loads the file
automatically and appends its own executed outcomes back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign.scenario import CircuitSpec, Scenario
from repro.campaign.store import ScenarioOutcome

__all__ = [
    "RuntimeModel",
    "plan_schedule",
    "SCHEDULE_POLICIES",
    "HISTORY_FILENAME",
    "history_path_for",
    "record_from_outcome",
    "record_from_outcome_dict",
    "append_history",
    "load_history",
    "save_history",
]

#: accepted ``run_campaign(schedule=...)`` values
SCHEDULE_POLICIES = ("plan", "adaptive")

#: name of the shared runtime-history file (JSONL, one record per line)
HISTORY_FILENAME = "runtime_history.jsonl"


def _structure_nnz(structure: Dict[str, object]) -> Optional[float]:
    nnz_c = structure.get("nnzC")
    nnz_g = structure.get("nnzG")
    if nnz_c is None and nnz_g is None:
        return None
    return float(nnz_c or 0) + float(nnz_g or 0)


def record_from_outcome(outcome: ScenarioOutcome) -> Optional[Dict[str, object]]:
    """The persistable runtime record of one finished outcome (or None)."""
    if not outcome.ok or outcome.runtime_seconds <= 0.0:
        return None
    return {
        "circuit": outcome.scenario.circuit.cache_key(),
        "method": outcome.scenario.method.strip().lower(),
        "runtime_seconds": float(outcome.runtime_seconds),
        "nnz": _structure_nnz(outcome.structure),
    }


def record_from_outcome_dict(data: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Like :func:`record_from_outcome`, straight from an outcome dict.

    Used by service workers and the broker, which hold outcomes in their
    wire form and should not pay for a full object round trip.
    """
    if data.get("status") != "ok":
        return None
    try:
        runtime = float(data.get("runtime_seconds") or 0.0)
    except (TypeError, ValueError):
        return None
    scenario = data.get("scenario") or {}
    circuit = scenario.get("circuit") if isinstance(scenario, dict) else None
    if runtime <= 0.0 or not circuit:
        return None
    return {
        "circuit": CircuitSpec.from_dict(circuit).cache_key(),
        "method": str(scenario.get("method", "er")).strip().lower(),
        "runtime_seconds": runtime,
        "nnz": _structure_nnz(data.get("structure") or {}),
    }


class RuntimeModel:
    """Runtime predictor fitted from finished outcomes (or saved records)."""

    def __init__(self, outcomes: Iterable[ScenarioOutcome] = ()):
        #: (circuit cache key, method) -> (total seconds, count)
        self._pair_runtime: Dict[Tuple[str, str], Tuple[float, int]] = {}
        #: circuit cache key -> nnz(C) + nnz(G)
        self._circuit_nnz: Dict[str, float] = {}
        self._total_seconds = 0.0
        self._total_nnz = 0.0
        #: how many observations (live or persisted) the model absorbed
        self.num_records = 0
        for outcome in outcomes:
            self.observe(outcome)

    def observe(self, outcome: ScenarioOutcome) -> None:
        record = record_from_outcome(outcome)
        if record is not None:
            self.observe_record(record)

    def observe_record(self, record: Dict[str, object]) -> None:
        """Fold one persisted runtime record into the model."""
        circuit_key = record.get("circuit")
        method = record.get("method")
        try:
            runtime = float(record.get("runtime_seconds") or 0.0)
        except (TypeError, ValueError):
            return
        if not circuit_key or not method or runtime <= 0.0:
            return
        self.num_records += 1
        total, count = self._pair_runtime.get((circuit_key, method), (0.0, 0))
        self._pair_runtime[(circuit_key, method)] = (total + runtime, count + 1)
        nnz = record.get("nnz")
        if nnz:
            self._circuit_nnz.setdefault(circuit_key, float(nnz))
            self._total_seconds += runtime
            self._total_nnz += float(nnz)

    @property
    def num_pairs(self) -> int:
        """Distinct ``(circuit, method)`` pairs with recorded runtimes."""
        return len(self._pair_runtime)

    @property
    def seconds_per_nnz(self) -> Optional[float]:
        if self._total_nnz <= 0.0:
            return None
        return self._total_seconds / self._total_nnz

    def predict(self, scenario: Scenario) -> Optional[float]:
        """Predicted runtime in seconds, or None without usable history."""
        circuit_key = scenario.circuit.cache_key()
        method = scenario.method.strip().lower()
        pair = self._pair_runtime.get((circuit_key, method))
        if pair is not None:
            total, count = pair
            return total / count
        nnz = self._circuit_nnz.get(circuit_key)
        rate = self.seconds_per_nnz
        if nnz is not None and rate is not None:
            return nnz * rate
        return None


def history_path_for(root: Union[str, Path]) -> Path:
    """The runtime-history file living next to a result-cache directory."""
    return Path(root) / HISTORY_FILENAME


def append_history(path: Union[str, Path],
                   records: Iterable[Dict[str, object]]) -> int:
    """Append runtime records to the shared history file (JSONL).

    Each record is written as one line in a single ``write`` on a file
    opened in append mode, so concurrent workers sharing the file
    interleave whole lines, never bytes.  Returns the number of records
    written.
    """
    lines = [json.dumps(record, sort_keys=True, default=repr)
             for record in records if record]
    if not lines:
        return 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


def save_history(path: Union[str, Path],
                 outcomes: Iterable[ScenarioOutcome]) -> int:
    """Append the runtime records of finished outcomes to ``path``."""
    return append_history(
        path, (record_from_outcome(outcome) for outcome in outcomes))


def load_history(path: Union[str, Path],
                 model: Optional[RuntimeModel] = None) -> RuntimeModel:
    """Fit a :class:`RuntimeModel` from a history file.

    Tolerates a missing file and corrupt or truncated lines (a worker
    may be appending while we read); returns the model either way, so
    callers never have to special-case "no history yet".
    """
    model = model if model is not None else RuntimeModel()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return model
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail of a concurrent append
        if isinstance(record, dict):
            model.observe_record(record)
    return model


def plan_schedule(
    pending: Sequence[Tuple[int, Scenario]],
    history: Iterable[ScenarioOutcome] = (),
    model: Optional[RuntimeModel] = None,
) -> Tuple[List[int], Dict[str, Optional[float]]]:
    """Order pending scenarios largest-predicted-first.

    ``pending`` is ``(plan index, scenario)`` pairs; the return value is
    the dispatch order (as plan indices) plus the per-scenario-name
    predictions that produced it (``None`` = no history, dispatched
    first).  With no usable history at all the plan order is preserved.
    A prefitted ``model`` (e.g. :func:`load_history`'s) seeds the
    predictor; ``history`` outcomes are folded in on top.
    """
    model = model if model is not None else RuntimeModel()
    for outcome in history:
        model.observe(outcome)
    predictions: Dict[str, Optional[float]] = {}
    keyed = []
    for position, (index, scenario) in enumerate(pending):
        predicted = model.predict(scenario)
        predictions[scenario.name] = predicted
        # unknowns first (treated as +inf), then longest first; plan
        # order breaks ties so the schedule is deterministic
        sort_key = (0 if predicted is None else 1,
                    -(predicted or 0.0), position)
        keyed.append((sort_key, index))
    keyed.sort()
    return [index for _, index in keyed], predictions
