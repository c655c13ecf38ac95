"""Differential matrix runner: scenario construction, checks, report."""

import numpy as np
import pytest

from repro.campaign.runner import run_campaign
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.integrators import INTEGRATOR_REGISTRY
from repro.reporting.verify_tables import (
    render_verify_report,
    render_verify_summary,
)
from repro.verify.circuits import (
    SOURCE_NAMES,
    driven_family,
    family_observe_node,
    make_drive,
)
from repro.verify.invariants import (
    check_energy_decay,
    check_lu_accounting,
    check_slope_consistency,
    check_symbolic_accounting,
)
from repro.verify.matrix import (
    MATRIX_FAMILIES,
    MATRIX_METHODS,
    CheckRow,
    VerifyReport,
    _symbolic_reuse_invariants,
    matrix_scenarios,
    oracle_scenarios,
    run_matrix,
)
from repro.verify.reference import reference_simulator


class TestScenarioConstruction:
    def test_matrix_covers_families_sources_methods(self):
        scenarios = matrix_scenarios(smoke=True)
        families = {s.tags["family"] for s in scenarios}
        sources = {s.tags["source"] for s in scenarios}
        methods = {s.method for s in scenarios}
        assert len(families) >= 4
        assert len(sources) >= 3
        assert set(MATRIX_METHODS) == methods
        assert len(scenarios) == len(families) * len(sources) * len(methods)
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)

    def test_every_registered_integrator_is_covered(self):
        """Matrix methods plus the oracle-scenario methods must reach every
        implementation in the registry (aliases collapse onto one class)."""
        covered = set(MATRIX_METHODS)
        for scenario, _ in oracle_scenarios():
            covered.add(scenario.method)
        classes_covered = {INTEGRATOR_REGISTRY[m] for m in covered}
        assert classes_covered == set(INTEGRATOR_REGISTRY.values())

    def test_scenarios_are_json_native(self):
        """Every scenario parameter must survive a dict round trip without
        losing identity -- the property golden keys depend on."""
        import json
        for scenario in matrix_scenarios(smoke=True):
            payload = json.loads(json.dumps(scenario.to_dict()))
            assert payload == scenario.to_dict()

    def test_driven_family_builds_each_combination(self):
        for family, config in MATRIX_FAMILIES.items():
            params = dict(config["smoke"])
            for source in SOURCE_NAMES:
                ckt = driven_family(family=family, source=source,
                                    t_stop=0.25e-9, **params)
                mna = ckt.build()
                node = family_observe_node(family, params)
                assert mna.node_index(node) >= 0, (family, source, node)

    def test_driven_family_rejects_unknown(self):
        with pytest.raises(ValueError, match="driven_family supports"):
            driven_family(family="power_grid", source="ramp")
        with pytest.raises(ValueError, match="unknown source"):
            driven_family(family="rc_ladder", source="square",
                          num_segments=4)


class TestInvariantChecks:
    def test_slope_consistency_passes_for_builtin_sources(self):
        for source in SOURCE_NAMES + ("step",):
            waveform = make_drive(source, 1e-9)
            assert check_slope_consistency(waveform, 1e-9) == []

    def test_slope_consistency_catches_a_lying_waveform(self):
        from repro.circuit.sources import PWL

        class LyingPWL(PWL):
            def slope(self, t):  # wrong by construction
                return super().slope(t) * 1.5

        lying = LyingPWL([(0.0, 0.0), (0.5e-9, 1.0), (1e-9, 1.0)])
        violations = check_slope_consistency(lying, 1e-9)
        assert violations
        assert any(v.invariant == "slope-consistency" for v in violations)

    def test_energy_decay_passes_for_decaying_trace(self):
        t = np.linspace(0.0, 1e-9, 50)
        energy = np.exp(-t / 0.2e-9)
        assert check_energy_decay(t, energy, quiescent_from=0.0) == []

    def test_energy_decay_catches_growth(self):
        t = np.linspace(0.0, 1e-9, 50)
        energy = np.exp(-t / 0.2e-9)
        energy[30] += 0.05
        violations = check_energy_decay(t, energy, quiescent_from=0.0)
        assert violations and violations[0].invariant == "energy-decay"
        assert "grew" in violations[0].detail

    def test_lu_accounting_identity_on_linear_circuit(self):
        mna = driven_family(family="rc_ladder", source="ramp",
                            t_stop=0.25e-9, num_segments=8).build()
        options = SimOptions(t_stop=0.25e-9, h_init=2e-12, h_max=4e-12,
                             store_states=True)
        cached = TransientSimulator(mna, "er", options=options).run()
        uncached = reference_simulator(mna, "er", options=options).run()
        assert uncached.stats.lu.num_reused == 0
        assert check_lu_accounting(cached, uncached) == []

    def test_lu_accounting_catches_dishonest_counters(self):
        mna = driven_family(family="rc_ladder", source="ramp",
                            t_stop=0.25e-9, num_segments=8).build()
        options = SimOptions(t_stop=0.25e-9, h_init=2e-12, h_max=4e-12,
                             store_states=True)
        result = TransientSimulator(mna, "er", options=options).run()
        tampered = TransientSimulator(mna, "er", options=options).run()
        tampered.stats.lu.num_reused += 5  # silently inflated hit counter
        violations = check_lu_accounting(tampered, result)
        assert any(v.invariant == "lu-accounting" for v in violations)

    def test_symbolic_accounting_identity_on_real_run(self):
        mna = driven_family(family="rc_ladder", source="ramp",
                            t_stop=0.25e-9, num_segments=8).build()
        options = SimOptions(t_stop=0.25e-9, h_init=2e-12, h_max=4e-12)
        result = TransientSimulator(mna, "benr", options=options).run()
        assert result.stats.lu.num_symbolic_reuses > 0
        assert check_symbolic_accounting(result) == []
        reference = reference_simulator(mna, "benr", options=options).run()
        assert reference.stats.lu.num_orderings == \
            reference.stats.lu.num_factorizations
        assert check_symbolic_accounting(reference) == []

    def test_symbolic_accounting_catches_dishonest_counters(self):
        mna = driven_family(family="rc_ladder", source="ramp",
                            t_stop=0.25e-9, num_segments=8).build()
        options = SimOptions(t_stop=0.25e-9, h_init=2e-12, h_max=4e-12)
        result = TransientSimulator(mna, "benr", options=options).run()
        result.stats.lu.num_symbolic_reuses += 3  # inflated reuse counter
        violations = check_symbolic_accounting(result)
        assert any(v.invariant == "symbolic-accounting" for v in violations)

    def test_symbolic_reuse_invariants_pass_on_smoke_case(self):
        rows = _symbolic_reuse_invariants(
            smoke=True, cases=(("rc_ladder", "ramp", "benr"),))
        assert rows and all(row.ok for row in rows), [
            row.detail for row in rows if not row.ok]


class TestReport:
    def make_report(self):
        return VerifyReport(checks=[
            CheckRow("oracle", "rc_step", "er", 1e-10, 2e-3, "ok"),
            CheckRow("cross", "rc_ladder/sin", "er vs trap", 1e-4, 0.03, "ok"),
            CheckRow("cross", "rc_mesh/ramp", "er vs benr", 0.5, 0.03,
                     "violation", "trajectories diverged"),
        ], metadata={"smoke": True})

    def test_violations_and_counts(self):
        report = self.make_report()
        assert not report.ok
        assert len(report.violations) == 1
        assert report.counts() == {"oracle": (1, 0), "cross": (2, 1)}

    def test_rendering(self):
        report = self.make_report()
        table = render_verify_report(report)
        assert "rc_mesh/ramp" in table and "violation" in table
        only = render_verify_report(report, only_violations=True)
        assert "rc_step" not in only
        summary = render_verify_summary(report)
        assert "cross: 1/2 failed" in summary and "oracle: 1 ok" in summary

    def test_save_round_trip(self, tmp_path):
        report = self.make_report()
        path = report.save(tmp_path / "report.json")
        import json
        data = json.loads(path.read_text())
        assert data["metadata"]["smoke"] is True
        assert len(data["checks"]) == 3


@pytest.mark.tier2
class TestFullSmokeMatrix:
    """The end-to-end gate: the smoke matrix must report 0 violations.

    This is the same sweep CI runs via ``python -m repro.verify --matrix
    --smoke``; it simulates ~130 scenarios and takes a couple of minutes,
    hence tier-2 (nightly).
    """

    def test_smoke_matrix_has_zero_violations(self, tmp_path):
        report = run_matrix(smoke=True, golden_root=tmp_path / "goldens")
        assert report.metadata["num_matrix_scenarios"] >= 60
        assert report.ok, render_verify_report(report, only_violations=True)

    def test_golden_regenerate_then_check_round_trip(self, tmp_path):
        root = tmp_path / "goldens"
        first = run_matrix(smoke=True, golden_root=root, regenerate=True,
                           backend="process")
        assert first.ok
        second = run_matrix(smoke=True, golden_root=root, backend="process")
        golden_checks = [c for c in second.checks if c.kind == "golden"]
        assert len(golden_checks) >= 60
        assert all(c.ok for c in golden_checks), [
            c.subject for c in golden_checks if not c.ok]
