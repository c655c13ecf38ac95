"""The differential verification matrix.

One :func:`run_matrix` call sweeps **every registered integrator** over
**>= 4 circuit families** times **>= 3 source types** through the
:mod:`repro.campaign` engine and layers four kinds of checks on top of
the raw runs:

1. **oracle checks** -- every oracle scenario's sampled waveform against
   its closed-form (or high-resolution self-) reference, within the
   per-method tolerance band;
2. **pairwise cross-checks** -- within each (circuit, source) variant,
   every method pair's waveforms against the *sum* of the two methods'
   bands (methods may differ from the truth by their own band, so two
   correct methods can differ by at most the sum);
3. **invariants** -- Eq. 13 slope consistency of every swept source,
   passivity/energy decay on the ringing RLC family, and the
   linearization cache's LU accounting identities (default runs vs the
   uncached :mod:`repro.verify.reference` run);
4. **golden checks** -- sampled waveforms against the committed golden
   trajectories, where goldens exist for the scenario's content hash.

The result is a :class:`VerifyReport`: a flat list of check rows that
:func:`repro.reporting.render_verify_report` renders and whose
``violations`` drive the CLI exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.benchcircuits.rlc_networks import rlc_line_energy
from repro.campaign.runner import run_campaign
from repro.campaign.scenario import CircuitSpec, Scenario
from repro.campaign.store import CampaignResult, ScenarioOutcome
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.verify.circuits import SOURCE_NAMES, family_observe_node, make_drive
from repro.verify.golden import DEFAULT_SAMPLE_POINTS, GoldenStore
from repro.verify.invariants import (
    InvariantViolation,
    check_adaptive_band,
    check_adaptive_reuse_accounting,
    check_energy_decay,
    check_lu_accounting,
    check_slope_consistency,
)
from repro.verify.oracles import DEFAULT_METHOD_BANDS, Oracle, all_oracles
from repro.verify.reference import reference_simulator

__all__ = [
    "CheckRow",
    "VerifyReport",
    "matrix_scenarios",
    "oracle_scenarios",
    "planned_golden_keys",
    "run_matrix",
    "MATRIX_METHODS",
    "MATRIX_FAMILIES",
    "DEFAULT_GOLDEN_ROOT",
    "DEFAULT_GOLDEN_TOLERANCE",
]

#: methods swept over every driven family (all handle the singular C of
#: voltage-source MNA rows); fe / expm-std require a regular C and run on
#: the ``regular_rc`` oracle scenarios instead -- together the matrix
#: covers every implementation in ``INTEGRATOR_REGISTRY``
MATRIX_METHODS: Tuple[str, ...] = ("benr", "trap", "gear2", "er", "er-c")

#: driven circuit families of the matrix: (smoke, full) size parameters,
#: per-family step bounds and the cross-check band scale.  The matrix
#: compares *sampled* trajectories, so ``h_max`` keeps every method's
#: time points dense enough that linear interpolation between them stays
#: far below the method bands (ER would otherwise take steps so large
#: that the sampling -- not the method -- dominates the comparison).
#: ``cross_scale`` widens the pairwise bands on the ringing RLC family,
#: where the damping differences of the low-order methods are amplified
#: by the oscillation (see the rlc oracle bands for the same effect
#: against the exact reference).
MATRIX_FAMILIES: Dict[str, Dict[str, object]] = {
    "rc_ladder": {
        "smoke": {"num_segments": 20},
        "full": {"num_segments": 80},
        "h_init": 2e-12, "h_max": 4e-12, "cross_scale": 1.0,
    },
    "rc_mesh": {
        "smoke": {"rows": 4, "cols": 4, "coupling_fraction": 0.5},
        "full": {"rows": 8, "cols": 8, "coupling_fraction": 0.5},
        # the mesh's slow corner makes the pulse edges relatively sharper
        # than on the oracle-sized circuits the bands were calibrated on
        "h_init": 2e-12, "h_max": 4e-12, "cross_scale": 1.5,
    },
    "coupled_lines": {
        "smoke": {"num_lines": 3, "segments_per_line": 4,
                  "long_range_fraction": 0.3},
        "full": {"num_lines": 6, "segments_per_line": 8,
                 "long_range_fraction": 0.3},
        "h_init": 2e-12, "h_max": 4e-12, "cross_scale": 1.0,
    },
    "rlc_line": {
        "smoke": {"num_segments": 6},
        "full": {"num_segments": 16},
        # ~30 points per ringing period (omega0 = 1e11 rad/s); BENR's
        # first-order damping error on the ringing dominates every pair
        # it appears in, hence the widest cross bands of the matrix
        "h_init": 1e-12, "h_max": 2e-12, "cross_scale": 3.0,
    },
}

#: default on-disk location of the committed goldens -- anchored to the
#: checkout (this file lives at src/repro/verify/matrix.py; the package
#: runs from source, per README) so the golden checks engage no matter
#: which directory the CLI is invoked from
DEFAULT_GOLDEN_ROOT = Path(__file__).resolve().parents[3] / "goldens"

#: default band of a regenerated golden: same-method trajectories are
#: deterministic up to BLAS/LU library jitter (and, through the LTE
#: accept/reject boundary, the jitter can shift a few grid points), so
#: the band sits well above cross-machine noise while staying two orders
#: below the tightest method band
DEFAULT_GOLDEN_TOLERANCE = 1e-5


@dataclass
class CheckRow:
    """One verification check (a row of the report table)."""

    #: "status" | "oracle" | "cross" | "invariant" | "golden"
    kind: str
    subject: str
    method: str
    #: measured worst deviation (None for pass/fail-only checks)
    max_err: Optional[float]
    #: bound the measurement was held against
    bound: Optional[float]
    status: str  # "ok" | "violation"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "subject": self.subject, "method": self.method,
            "max_err": self.max_err, "bound": self.bound,
            "status": self.status, "detail": self.detail,
        }


@dataclass
class VerifyReport:
    """Everything one verification matrix produced."""

    checks: List[CheckRow] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def violations(self) -> List[CheckRow]:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """Per check kind: (total, violations)."""
        out: Dict[str, Tuple[int, int]] = {}
        for check in self.checks:
            total, bad = out.get(check.kind, (0, 0))
            out[check.kind] = (total + 1, bad + (0 if check.ok else 1))
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "metadata": dict(self.metadata),
            "checks": [c.to_dict() for c in self.checks],
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=repr) + "\n")
        return path


# -- scenario construction ---------------------------------------------------------------


def _horizon(smoke: bool) -> float:
    return 0.25e-9 if smoke else 0.5e-9


def matrix_scenarios(smoke: bool = False,
                     methods: Sequence[str] = MATRIX_METHODS) -> List[Scenario]:
    """The driven-family sweep: every method x family x source type."""
    t_stop = _horizon(smoke)
    size = "smoke" if smoke else "full"
    scenarios: List[Scenario] = []
    for family, config in MATRIX_FAMILIES.items():
        params = dict(config[size])
        observe = family_observe_node(family, params)
        for source in SOURCE_NAMES:
            for method in methods:
                spec = CircuitSpec(
                    factory="driven_family",
                    params={"family": family, "source": source,
                            "t_stop": t_stop, **params},
                    module="repro.verify.circuits",
                )
                scenarios.append(Scenario(
                    name=f"{family}/{source}/{method}",
                    circuit=spec,
                    method=method,
                    options={"t_stop": t_stop,
                             "h_init": config["h_init"],
                             "h_max": config["h_max"],
                             "store_states": False},
                    observe=[observe],
                    tags={"family": family, "source": source, "matrix": True},
                ))
    return scenarios


def oracle_scenarios(smoke: bool = False) -> List[Tuple[Scenario, Oracle]]:
    """One scenario per (oracle, applicable method)."""
    del smoke  # oracle circuits are tiny; one size fits both modes
    pairs: List[Tuple[Scenario, Oracle]] = []
    for oracle in all_oracles():
        methods = oracle.methods if oracle.methods is not None else MATRIX_METHODS
        for method in methods:
            scenario = Scenario(
                name=f"oracle:{oracle.name}/{method}",
                circuit=oracle.circuit,
                method=method,
                options={"t_stop": oracle.t_stop, "h_init": oracle.h_init,
                         "store_states": True, **oracle.options},
                observe=[oracle.node],
                tags={"oracle": oracle.name},
            )
            pairs.append((scenario, oracle))
    return pairs


def planned_golden_keys() -> List[str]:
    """Content hashes of every golden the current matrix plan produces.

    The golden store is written from the matrix campaign at both sizes
    (``--smoke`` on push CI, full nightly), so the live key set is the
    union of the two plans.  Anything else in ``goldens/`` is an orphan
    left behind by a re-parameterization (see ``--prune-orphans``).
    """
    keys = []
    for smoke in (True, False):
        keys.extend(s.content_hash() for s in matrix_scenarios(smoke=smoke))
    return sorted(set(keys))


# -- check passes ---------------------------------------------------------------------------


def _status_checks(campaign: CampaignResult) -> List[CheckRow]:
    rows = []
    for outcome in campaign:
        rows.append(CheckRow(
            kind="status",
            subject=outcome.scenario.name,
            method=outcome.scenario.method,
            max_err=None, bound=None,
            status="ok" if outcome.ok else "violation",
            detail="" if outcome.ok else f"{outcome.status}: {outcome.error}",
        ))
    return rows


def _oracle_checks(pairs: Sequence[Tuple[Scenario, Oracle]]) -> List[CheckRow]:
    """Run every oracle scenario in-process and check it at its own points.

    Oracle circuits are tiny, so these runs are cheap; running them
    directly (instead of through the sampled campaign outcomes) lets the
    reference be evaluated at the integrator's *accepted time points* --
    a sparse-stepping method like ER is exact at its points, and
    resampling through linear interpolation would bury that exactness
    under sampling error.
    """
    rows = []
    mna_cache: Dict[str, object] = {}
    for scenario, oracle in pairs:
        key = scenario.circuit.cache_key()
        mna = mna_cache.get(key)
        if mna is None:
            mna = scenario.circuit.build().build()
            mna_cache[key] = mna
        options = scenario.sim_options()
        simulator = TransientSimulator(mna, method=scenario.method,
                                       options=options)
        result = simulator.run()
        if not result.stats.completed:
            rows.append(CheckRow(
                kind="oracle",
                subject=f"{oracle.name} ({oracle.kind})",
                method=scenario.method,
                max_err=None, bound=oracle.tolerance(scenario.method),
                status="violation",
                detail=f"run failed: {result.stats.failure_reason}",
            ))
            continue
        times = result.time_array
        run = result.voltage(oracle.node)
        reference = oracle.reference(times)
        err = float(np.max(np.abs(run - reference)))
        band = oracle.tolerance(scenario.method)
        rows.append(CheckRow(
            kind="oracle",
            subject=f"{oracle.name} ({oracle.kind})",
            method=scenario.method,
            max_err=err, bound=band,
            status="ok" if err <= band else "violation",
            detail=f"node {oracle.node}",
        ))
    return rows


def _pairwise_checks(campaign: CampaignResult) -> List[CheckRow]:
    """Cross-check every method pair within each matrix variant."""
    rows = []
    groups: Dict[str, List[ScenarioOutcome]] = {}
    for outcome in campaign:
        if not outcome.scenario.tags.get("matrix"):
            continue
        groups.setdefault(outcome.scenario.variant_key(), []).append(outcome)
    for group in groups.values():
        ok_outcomes = [o for o in group if o.ok and o.samples]
        for i, a in enumerate(ok_outcomes):
            for b in ok_outcomes[i + 1:]:
                ma = a.scenario.method.strip().lower()
                mb = b.scenario.method.strip().lower()
                scale = float(MATRIX_FAMILIES.get(
                    str(a.scenario.tags.get("family", "")), {}
                ).get("cross_scale", 1.0))
                bound = scale * (DEFAULT_METHOD_BANDS[ma]
                                 + DEFAULT_METHOD_BANDS[mb])
                worst = 0.0
                for node, values in a.samples.items():
                    other = b.samples.get(node)
                    if other is None:
                        continue
                    worst = max(worst, float(np.max(np.abs(
                        np.asarray(values) - np.asarray(other)))))
                family = a.scenario.tags.get("family", a.scenario.circuit.factory)
                source = a.scenario.tags.get("source", "?")
                rows.append(CheckRow(
                    kind="cross",
                    subject=f"{family}/{source}",
                    method=f"{ma} vs {mb}",
                    max_err=worst, bound=bound,
                    status="ok" if worst <= bound else "violation",
                ))
    return rows


def _invariant_rows(violations: List[InvariantViolation], subject: str,
                    method: str, total_label: str) -> List[CheckRow]:
    if not violations:
        return [CheckRow(kind="invariant", subject=subject, method=method,
                         max_err=None, bound=None, status="ok",
                         detail=total_label)]
    return [CheckRow(kind="invariant", subject=subject, method=method,
                     max_err=None, bound=None, status="violation",
                     detail=v.describe()) for v in violations]


def _slope_invariants(smoke: bool) -> List[CheckRow]:
    t_stop = _horizon(smoke)
    rows: List[CheckRow] = []
    for source in SOURCE_NAMES + ("step",):
        waveform = make_drive(source, t_stop)
        violations = check_slope_consistency(waveform, t_stop, subject=source)
        rows.extend(_invariant_rows(
            violations, subject=f"source:{source}", method="-",
            total_label="Eq.13 slope consistency",
        ))
    return rows


def _energy_invariants(smoke: bool,
                       methods: Sequence[str] = ("benr", "trap", "er")) -> List[CheckRow]:
    """Passivity of the ringing RLC ladder after the pulse drive stops."""
    from repro.verify.circuits import driven_family

    t_stop = _horizon(smoke)
    config = MATRIX_FAMILIES["rlc_line"]
    params = dict(config["smoke" if smoke else "full"])
    circuit = driven_family(family="rlc_line", source="pulse",
                            t_stop=t_stop, **params)
    drive = make_drive("pulse", t_stop)
    quiescent_from = max(b for b in drive.breakpoints(t_stop)) if \
        drive.breakpoints(t_stop) else 0.0
    rows: List[CheckRow] = []
    mna = circuit.build()
    for method in methods:
        options = SimOptions(t_stop=t_stop, h_init=config["h_init"],
                             h_max=config["h_max"], store_states=True)
        result = TransientSimulator(mna, method=method, options=options).run()
        if not result.stats.completed:
            rows.append(CheckRow(
                kind="invariant", subject="energy-decay:rlc_line",
                method=method, max_err=None, bound=None, status="violation",
                detail=f"run failed: {result.stats.failure_reason}",
            ))
            continue
        energy = rlc_line_energy(result, int(params["num_segments"]))
        violations = check_energy_decay(
            result.time_array, energy, quiescent_from,
            subject=f"rlc_line/{method}", rel_slack=1e-4,
        )
        rows.extend(_invariant_rows(
            violations, subject="energy-decay:rlc_line", method=method,
            total_label="passivity after drive quiescence",
        ))
    return rows


def _reference_pair(family: str, source: str, method: str, smoke: bool):
    """Default-knob run and uncached reference run of one driven case."""
    from repro.verify.circuits import driven_family

    t_stop = _horizon(smoke)
    config = MATRIX_FAMILIES[family]
    params = dict(config["smoke" if smoke else "full"])
    mna = driven_family(family=family, source=source,
                        t_stop=t_stop, **params).build()
    options = SimOptions(t_stop=t_stop, h_init=config["h_init"],
                         h_max=config["h_max"], store_states=True)
    default = TransientSimulator(mna, method=method, options=options).run()
    reference = reference_simulator(mna, method=method, options=options).run()
    return default, reference


def _lu_accounting_invariants(
        smoke: bool,
        cases: Sequence[Tuple[str, str, str]] = (
            ("rc_ladder", "ramp", "er"),
            ("rc_ladder", "ramp", "benr"),
            ("rlc_line", "pulse", "trap"),
        )) -> List[CheckRow]:
    """Default runs vs the uncached reference on linear representatives."""
    rows: List[CheckRow] = []
    for family, source, method in cases:
        default, reference = _reference_pair(family, source, method, smoke)
        subject = f"{family}/{source}"
        violations = check_lu_accounting(
            default, reference, subject=f"{subject}/{method}",
        )
        rows.extend(_invariant_rows(
            violations, subject=f"lu-accounting:{subject}", method=method,
            total_label="#LU(ref) == #LU + #LUhit, bit-identical",
        ))
    return rows


def _symbolic_reuse_invariants(
        smoke: bool,
        cases: Sequence[Tuple[str, str, str]] = (
            ("rc_ladder", "ramp", "benr"),
            ("rlc_line", "pulse", "trap"),
        )) -> List[CheckRow]:
    """Symbolic-ordering reuse is exact work-preserving refactorization.

    Runs each case with the default knobs and with the uncached reference
    (a fresh ordering for every factorization).  The default run must
    reuse a pattern-matched ordering at least once and the reference
    never; beyond that the pair must pass :func:`check_lu_accounting` at
    trajectory tolerance 0 -- a cache hit runs the same numeric pass on the
    same permuted matrix as a fresh ordering (``NATURAL`` on ``P A P^T``
    for the symmetric minimum-degree ordering of these linear circuits),
    it skips no factorization the cache does not count, and
    ``#LU == orderings + symbolic_reuses`` holds on both runs.
    """
    rows: List[CheckRow] = []
    for family, source, method in cases:
        default, reference = _reference_pair(family, source, method, smoke)
        subject = f"{family}/{source}/{method}"
        violations = check_lu_accounting(default, reference, subject=subject,
                                         trajectory_tol=0.0)
        reused = default.stats.lu.num_symbolic_reuses
        reused_ref = reference.stats.lu.num_symbolic_reuses
        if reused <= 0 or reused_ref != 0:
            violations.append(InvariantViolation(
                "symbolic-reuse", subject,
                f"num_symbolic_reuses: default {reused} (expected > 0), "
                f"reference {reused_ref} (expected 0)",
            ))
        rows.extend(_invariant_rows(
            violations, subject=f"symbolic-reuse:{family}/{source}",
            method=method,
            total_label="#LU == orderings + symbolic reuses, bit-identical",
        ))
    return rows


def _adaptive_reuse_invariants(
        smoke: bool,
        cases: Sequence[Tuple[str, str, str]] = (
            ("rc_ladder", "ramp", "benr"),
            ("rc_mesh", "pulse", "trap"),
        )) -> List[CheckRow]:
    """Ladder + stale-reuse runs: counted savings, in-band trajectories.

    Runs each case with the cache-aware stepping knobs *off* (the exact
    baseline) and *on* (``step_ladder="geometric"`` plus a 5% stale
    cross-``h`` bypass).  The on-run must (a) satisfy the extended solve
    accounting identity ``#solves == (#LU - fallbacks) + reused +
    stale``, (b) not pay more factorizations than the exact
    run -- the whole point of the mechanism -- and (c) stay inside the
    per-family differential band (twice the method's oracle band, scaled
    by the family's ``cross_scale``) of the exact trajectory.
    """
    from repro.verify.circuits import driven_family

    t_stop = _horizon(smoke)
    size = "smoke" if smoke else "full"
    rows: List[CheckRow] = []
    for family, source, method in cases:
        config = MATRIX_FAMILIES[family]
        params = dict(config[size])
        node = family_observe_node(family, params)
        mna = driven_family(family=family, source=source,
                            t_stop=t_stop, **params).build()
        results = {}
        for reuse in (False, True):
            options = SimOptions(
                t_stop=t_stop, h_init=config["h_init"],
                h_max=config["h_max"], store_states=True,
                step_ladder="geometric" if reuse else "off",
                h_bypass_tol=0.05 if reuse else 0.0,
            )
            results[reuse] = TransientSimulator(
                mna, method=method, options=options).run()
        subject = f"{family}/{source}/{method}"
        exact, reused = results[False], results[True]
        violations = list(check_adaptive_reuse_accounting(
            reused, subject=f"{subject}/ladder+stale"))
        if reused.stats.lu.num_factorizations > exact.stats.lu.num_factorizations:
            violations.append(InvariantViolation(
                "adaptive-reuse", subject,
                f"ladder+stale paid more LUs than the exact run: "
                f"{reused.stats.lu.num_factorizations} vs "
                f"{exact.stats.lu.num_factorizations}",
            ))
        band = float(config["cross_scale"]) * 2.0 * DEFAULT_METHOD_BANDS[method]
        violations.extend(check_adaptive_band(
            exact, reused, node, band, subject=subject))
        rows.extend(_invariant_rows(
            violations, subject=f"adaptive-reuse:{family}/{source}",
            method=method,
            total_label="ladder+stale: counted reuse, in-band trajectories",
        ))
    return rows


def _golden_checks(campaign: CampaignResult, store: GoldenStore,
                   regenerate: bool, allow_widen: bool,
                   tolerance: float) -> List[CheckRow]:
    rows: List[CheckRow] = []
    regenerated = 0
    for outcome in campaign:
        if not outcome.ok or not outcome.samples:
            continue
        scenario = outcome.scenario
        if regenerate:
            store.save(
                scenario, np.asarray(outcome.sample_times), outcome.samples,
                tolerance=tolerance,
                summary=outcome.deterministic_summary(),
                allow_widen=allow_widen,
            )
            regenerated += 1
            continue
        if not store.has(scenario):
            continue
        check = store.check(scenario, np.asarray(outcome.sample_times),
                            outcome.samples)
        rows.append(CheckRow(
            kind="golden",
            subject=scenario.name,
            method=scenario.method,
            max_err=check.max_error, bound=check.tolerance,
            status="ok" if check.ok else "violation",
            detail=f"key {check.key[:12]}",
        ))
    if regenerate:
        rows.append(CheckRow(
            kind="golden", subject=f"regenerated {regenerated} goldens",
            method="-", max_err=None, bound=tolerance, status="ok",
            detail=str(store.root),
        ))
    return rows


# -- the runner -----------------------------------------------------------------------------


def run_matrix(
    smoke: bool = False,
    workers: Optional[int] = None,
    golden_root: Optional[Union[str, Path]] = DEFAULT_GOLDEN_ROOT,
    regenerate: bool = False,
    allow_widen: bool = False,
    golden_tolerance: float = DEFAULT_GOLDEN_TOLERANCE,
    timeout: Optional[float] = 300.0,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    backend=None,
) -> VerifyReport:
    """Run the full differential verification matrix.

    Returns the :class:`VerifyReport`; ``report.ok`` is the gate.  With
    ``regenerate`` the golden store is rewritten from this run instead
    of checked (refusing tolerance widening unless ``allow_widen``).
    ``backend`` picks the campaign execution backend (name or
    :class:`~repro.campaign.backends.base.ExecutionBackend` instance;
    ``None`` means ``"auto"``).  Every scenario is simulated by the
    current program: the matrix adopts no stored outcomes, because
    neither the result cache nor its keys know the code version.
    """
    scenarios = matrix_scenarios(smoke=smoke)
    oracle_pairs = oracle_scenarios(smoke=smoke)
    campaign = run_campaign(
        scenarios, workers=workers, timeout=timeout,
        sample_points=sample_points, backend=backend,
    )

    report = VerifyReport(metadata={
        "smoke": smoke,
        "num_scenarios": len(scenarios) + len(oracle_pairs),
        "num_matrix_scenarios": len(scenarios),
        "num_oracle_scenarios": len(oracle_pairs),
        "families": sorted(MATRIX_FAMILIES),
        "sources": list(SOURCE_NAMES),
        "methods": list(MATRIX_METHODS) + ["fe", "expm-std"],
        "campaign": dict(campaign.metadata),
    })
    report.checks.extend(_status_checks(campaign))
    report.checks.extend(_oracle_checks(oracle_pairs))
    report.checks.extend(_pairwise_checks(campaign))
    report.checks.extend(_slope_invariants(smoke))
    report.checks.extend(_energy_invariants(smoke))
    report.checks.extend(_lu_accounting_invariants(smoke))
    report.checks.extend(_symbolic_reuse_invariants(smoke))
    report.checks.extend(_adaptive_reuse_invariants(smoke))
    if golden_root is not None:
        store = GoldenStore(golden_root)
        report.checks.extend(_golden_checks(
            campaign, store, regenerate=regenerate, allow_widen=allow_widen,
            tolerance=golden_tolerance,
        ))
    return report
