"""Campaign result store and aggregation.

Workers return one :class:`ScenarioOutcome` per scenario -- a compact,
picklable record of the run's Table-I counters, the circuit's structural
statistics, downsampled waveforms of the observed nodes and any failure
information.  :class:`CampaignResult` collects them and derives the
aggregate views: per-method comparison rows with speedups and maximum
error against a reference method, JSON persistence, and simple grouping
helpers the reporting layer renders from.

The indices the table views need -- name lookup, variant grouping, the
static part of each table row -- are maintained by
:meth:`CampaignResult.add` as outcomes arrive, so rendering a table
from a campaign of thousands of scenarios never rebuilds them.  The
per-method totals of :meth:`CampaignResult.aggregates` are summed from
the outcomes when asked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign.scenario import Scenario

__all__ = [
    "ScenarioOutcome",
    "CampaignResult",
    "DETERMINISTIC_SUMMARY_KEYS",
]

#: summary keys that must be bit-identical between serial and parallel
#: executions of the same scenario (everything except wall-clock timing);
#: "observables" covers the streaming per-node summaries, whose update
#: rule is shared with the stored-state derivation (bit-deterministic)
DETERMINISTIC_SUMMARY_KEYS = (
    "method", "#step", "#rejected", "#NRa", "#ma", "#LU",
    "peak_factor_nnz", "completed", "failure", "t_end_reached", "num_points",
    "observables",
)


@dataclass
class ScenarioOutcome:
    """What one scenario produced (success or not)."""

    scenario: Scenario
    #: "ok" | "failed" (simulation reported incomplete) | "error" | "timeout"
    status: str = "error"
    #: :meth:`SimulationResult.summary` counters (plus runtime)
    summary: Dict[str, object] = field(default_factory=dict)
    #: structural statistics of the assembled MNA (#N, #Dev, nnzC, nnzG)
    structure: Dict[str, int] = field(default_factory=dict)
    #: uniform sample grid the observed waveforms were resampled onto
    sample_times: List[float] = field(default_factory=list)
    #: node -> waveform samples on ``sample_times``
    samples: Dict[str, List[float]] = field(default_factory=dict)
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: wall-clock seconds of the whole scenario (build + DC + transient)
    runtime_seconds: float = 0.0
    #: pid of the executing process
    worker: Optional[int] = None
    #: whether the worker reused a cached MNA assembly for the circuit
    cache_hit: bool = False
    #: whether the worker reused a cached DC operating point
    dc_cache_hit: bool = False
    #: None when this outcome was simulated by the campaign that reports
    #: it; "cache" / "queue" when it was adopted without
    #: this campaign simulating anything ("queue": another campaign's
    #: broker job, or the duplicate delivery of an in-campaign twin)
    reused_from: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def reused(self) -> bool:
        """Whether the outcome was adopted (cache/queue) instead of run."""
        return self.reused_from is not None

    @property
    def observables(self) -> Dict[str, Dict[str, float]]:
        """Streaming per-observed-node summaries (min/max/final/L2/energy).

        Populated for every run that observes nodes, including
        ``store_states=False`` scenarios whose full waveforms were never
        materialized -- the memory-bounded path of 100k-node campaigns.
        """
        return dict(self.summary.get("observables") or {})

    def deterministic_summary(self) -> Dict[str, object]:
        """The summary restricted to scheduling-independent counters."""
        return {k: self.summary.get(k) for k in DETERMINISTIC_SUMMARY_KEYS}

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "status": self.status,
            "summary": dict(self.summary),
            "structure": dict(self.structure),
            "sample_times": list(self.sample_times),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "error": self.error,
            "traceback": self.traceback,
            "runtime_seconds": self.runtime_seconds,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "dc_cache_hit": self.dc_cache_hit,
            "reused_from": self.reused_from,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioOutcome":
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            status=str(data.get("status", "error")),
            summary=dict(data.get("summary", {})),
            structure=dict(data.get("structure", {})),
            sample_times=list(data.get("sample_times", [])),
            samples={k: list(v) for k, v in data.get("samples", {}).items()},
            error=data.get("error"),
            traceback=data.get("traceback"),
            runtime_seconds=float(data.get("runtime_seconds", 0.0)),
            worker=data.get("worker"),
            cache_hit=bool(data.get("cache_hit", False)),
            dc_cache_hit=bool(data.get("dc_cache_hit", False)),
            reused_from=data.get("reused_from"),
        )


def _max_abs_error(outcome: ScenarioOutcome, reference: ScenarioOutcome) -> Optional[float]:
    """Maximum |signal - reference| over all shared observed nodes."""
    worst: Optional[float] = None
    for node, values in outcome.samples.items():
        ref_values = reference.samples.get(node)
        if ref_values is None or len(ref_values) != len(values):
            continue
        err = max(abs(a - b) for a, b in zip(values, ref_values)) if values else 0.0
        worst = err if worst is None else max(worst, err)
    return worst


#: static (reference-independent) columns of one scenario's table row
def _base_row(outcome: ScenarioOutcome) -> Dict[str, object]:
    scenario = outcome.scenario
    row: Dict[str, object] = {
        "scenario": scenario.name,
        "circuit": scenario.circuit.factory,
        "method": outcome.summary.get("method", scenario.method),
        "status": outcome.status,
        "#N": outcome.structure.get("#N"),
        "nnzC": outcome.structure.get("nnzC"),
        "nnzG": outcome.structure.get("nnzG"),
        "#step": outcome.summary.get("#step"),
        "#NRa": outcome.summary.get("#NRa"),
        "#ma": outcome.summary.get("#ma"),
        "#LU": outcome.summary.get("#LU"),
        "RT(s)": outcome.summary.get("RT(s)"),
        "peak_factor_nnz": outcome.summary.get("peak_factor_nnz"),
    }
    for tag, value in scenario.tags.items():
        row.setdefault(str(tag), value)
    return row


class CampaignResult:
    """All outcomes of one campaign plus (incrementally maintained)
    aggregate views.

    Append through :meth:`add` (or the constructor) only -- every view
    below reads the indices ``add`` maintains, never the raw list, so a
    direct ``outcomes.append`` would desynchronize them.
    """

    def __init__(self, outcomes: Optional[Iterable[ScenarioOutcome]] = None,
                 metadata: Optional[Dict[str, object]] = None):
        self.outcomes: List[ScenarioOutcome] = []
        #: execution metadata (mode, workers, wall time, base options...)
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._by_name: Dict[str, ScenarioOutcome] = {}
        self._by_variant: Dict[str, List[ScenarioOutcome]] = {}
        #: (variant key, lower-cased method) -> first outcome; the O(1)
        #: reference lookup of :meth:`rows`
        self._by_variant_method: Dict[Tuple[str, str], ScenarioOutcome] = {}
        #: pre-computed static table row per outcome (parallel to
        #: ``outcomes``); reference columns are layered on at render time
        self._base_rows: List[Dict[str, object]] = []
        #: cached variant key per outcome (the canonical JSON is not free)
        self._variant_keys: List[str] = []
        for outcome in (outcomes or []):
            self.add(outcome)

    # -- collection ------------------------------------------------------------------

    def add(self, outcome: ScenarioOutcome) -> None:
        """Append one outcome and fold it into every aggregate index."""
        self.outcomes.append(outcome)
        variant = outcome.scenario.variant_key()
        method = outcome.scenario.method.strip().lower()
        self._by_name.setdefault(outcome.scenario.name, outcome)
        self._by_variant.setdefault(variant, []).append(outcome)
        self._by_variant_method.setdefault((variant, method), outcome)
        self._base_rows.append(_base_row(outcome))
        self._variant_keys.append(variant)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def outcome_for(self, name: str) -> ScenarioOutcome:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no outcome for scenario {name!r}") from None

    @property
    def num_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    # -- aggregation -----------------------------------------------------------------

    def aggregates(self) -> Dict[str, object]:
        """Per-method totals (lower-cased method: outcome count, ok count,
        total runtime, total accepted steps) plus campaign-wide totals."""
        per_method: Dict[str, Dict[str, object]] = {}
        runtime = 0.0
        for outcome in self.outcomes:
            runtime += outcome.runtime_seconds
            bucket = per_method.setdefault(
                outcome.scenario.method.strip().lower(),
                {"count": 0, "ok": 0, "runtime_seconds": 0.0, "steps": 0})
            bucket["count"] += 1
            bucket["ok"] += 1 if outcome.ok else 0
            bucket["runtime_seconds"] += outcome.runtime_seconds
            bucket["steps"] += int(outcome.summary.get("#step") or 0)
        return {"total": len(self.outcomes), "ok": self.num_ok,
                "runtime_seconds": runtime, "per_method": per_method}

    def by_variant(self) -> Dict[str, List[ScenarioOutcome]]:
        """Group outcomes by circuit+options identity (method varies within)."""
        return {variant: list(group)
                for variant, group in self._by_variant.items()}

    def rows(self, reference_method: Optional[str] = None) -> List[Dict[str, object]]:
        """Flatten into one comparison row per scenario.

        With a ``reference_method``, scenarios gain ``SP`` (reference
        runtime divided by own runtime; >1 means faster than the
        reference) and ``max_err`` (maximum waveform deviation from the
        reference run of the same variant) columns, ``None`` where the
        reference is missing or failed -- the "NA" cells of Table I.

        The static columns come from the per-outcome rows maintained by
        :meth:`add`; only the two reference columns are computed here.
        """
        key = reference_method.strip().lower() if reference_method else None
        rows = []
        for outcome, base, variant in zip(self.outcomes, self._base_rows,
                                          self._variant_keys):
            row = dict(base)
            if reference_method:
                reference = self._by_variant_method.get((variant, key))
                sp = None
                err = None
                if reference is not None and reference.ok and outcome.ok:
                    ref_rt = reference.summary.get("RT(s)") or 0.0
                    own_rt = outcome.summary.get("RT(s)") or 0.0
                    if own_rt > 0:
                        sp = ref_rt / own_rt
                    if reference is not outcome:
                        err = _max_abs_error(outcome, reference)
                    else:
                        err = 0.0
                row["SP"] = sp
                row["max_err"] = err
            rows.append(row)
        return rows

    # -- persistence -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "metadata": dict(self.metadata),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        return cls(
            outcomes=[ScenarioOutcome.from_dict(o) for o in data.get("outcomes", [])],
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignResult":
        return cls.from_json(Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"CampaignResult(scenarios={len(self.outcomes)}, ok={self.num_ok}, "
            f"failed={len(self.outcomes) - self.num_ok})"
        )
