"""Tests for the repro.campaign scenario-sweep subsystem."""

import pytest

from repro.benchcircuits import (
    build_circuit,
    circuit_factory_names,
    factory_accepts_seed,
    get_circuit_factory,
    register_circuit_factory,
)
from repro.campaign import (
    CampaignResult,
    CircuitSpec,
    Scenario,
    ScenarioOutcome,
    apply_option_overrides,
    default_workers,
    execute_scenario,
    grid_sweep,
    run_campaign,
)
from repro.core.options import RETIRED_SIM_FIELDS, SimOptions
from repro.reporting import render_campaign_table, render_method_matrix
from repro.wire import JobContext

FAST_OPTIONS = SimOptions(t_stop=0.1e-9, h_init=2e-12, store_states=False)
FAST_CONTEXT = JobContext(base_options=FAST_OPTIONS.to_dict())


def small_scenarios(methods=("benr", "er"), budgets=(1e-3, 1e-4)):
    return grid_sweep(
        circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
        methods=list(methods),
        option_grid={"err_budget": list(budgets)},
        observe=["n2_2"],
    )


class TestRegistry:
    def test_builtin_factories_registered(self):
        names = circuit_factory_names()
        for expected in ("rc_ladder", "rc_mesh", "power_grid", "coupled_lines",
                         "driven_coupled_bus", "freecpu_like_circuit",
                         "ckt1", "ckt8"):
            assert expected in names

    def test_build_circuit(self):
        ckt = build_circuit("rc_ladder", num_segments=3)
        assert ckt.num_nodes >= 3

    def test_testcase_factory_builds_circuit(self):
        ckt = build_circuit("ckt1", scale=0.1)
        assert ckt.num_devices > 0

    def test_unknown_factory(self):
        with pytest.raises(KeyError, match="no_such_factory"):
            get_circuit_factory("no_such_factory")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_circuit_factory("rc_ladder", lambda: None)

    def test_factory_accepts_seed(self):
        assert factory_accepts_seed("rc_mesh")
        assert not factory_accepts_seed("rc_ladder")


class TestScenario:
    def test_round_trip(self):
        scenario = Scenario(
            name="s1",
            circuit=CircuitSpec("rc_mesh", {"rows": 4, "cols": 4, "seed": 3}),
            method="er-c",
            options={"err_budget": 1e-5, "gamma": 0.05},
            seed=3,
            observe=["n1_1"],
            tags={"corner": "slow"},
        )
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario

    def test_scenarios_are_picklable(self):
        import pickle

        scenario = small_scenarios()[0]
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_sim_options_applies_overrides(self):
        scenario = Scenario(
            name="s", circuit=CircuitSpec("rc_ladder"),
            options={"err_budget": 5e-6, "gamma": 0.2},
        )
        base = SimOptions(t_stop=3e-9)
        options = scenario.sim_options(base)
        assert options.t_stop == 3e-9
        assert options.err_budget == 5e-6
        assert options.gamma == 0.2
        # the base object is untouched
        assert base == SimOptions(t_stop=3e-9)

    def test_dotted_override_three_levels(self):
        # the nested Newton/DC settings are constants: a dotted override
        # is accepted at its fixed value only and refused by name otherwise
        with pytest.raises(ValueError, match=r"'dc\.newton\.abstol' is retired"):
            apply_option_overrides(SimOptions(), {"dc.newton.abstol": 1e-10})
        assert apply_option_overrides(SimOptions(), {"dc.newton.abstol": 1e-6}) == SimOptions()

    def test_dotted_override_rejects_scalar_head(self):
        with pytest.raises(ValueError):
            apply_option_overrides(SimOptions(), {"t_stop.bogus": 1.0})

    def test_variant_key_ignores_method_and_name(self):
        scenarios = small_scenarios(methods=("benr", "er"), budgets=(1e-3,))
        assert scenarios[0].variant_key() == scenarios[1].variant_key()

    def test_build_circuit_via_spec(self):
        spec = CircuitSpec("rc_mesh", {"rows": 4, "cols": 4})
        ckt = spec.build()
        assert ckt.num_nodes >= 16


class TestSweepPlanners:
    def test_grid_sweep_shape_and_names(self):
        scenarios = grid_sweep(
            circuits=["rc_ladder", ("rc_mesh", {"rows": 4, "cols": 4})],
            methods=["benr", "er", "er-c"],
            option_grid={"err_budget": [1e-3, 1e-4]},
        )
        assert len(scenarios) == 2 * 3 * 2
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)

    def test_grid_sweep_seed_fixed_across_methods_and_options(self):
        scenarios = grid_sweep(
            circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
            methods=["benr", "er"],
            option_grid={"err_budget": [1e-3, 1e-4]},
        )
        seeds = {s.circuit.params["seed"] for s in scenarios}
        assert len(seeds) == 1, "option/method variants must share the netlist seed"

    def test_grid_sweep_param_grid_changes_seed_inputs(self):
        scenarios = grid_sweep(
            circuits=[("rc_mesh", {"rows": 4, "cols": 4})],
            methods=["er"],
            param_grid={"coupling_fraction": [0.2, 0.8]},
        )
        assert scenarios[0].circuit.params["coupling_fraction"] == 0.2
        assert scenarios[1].circuit.params["coupling_fraction"] == 0.8

    def test_grid_sweep_respects_pinned_seed(self):
        scenarios = grid_sweep(
            circuits=[("rc_mesh", {"rows": 4, "cols": 4, "seed": 77})],
            methods=["er"],
        )
        assert scenarios[0].circuit.params["seed"] == 77

    def test_grid_sweep_is_reproducible(self):
        kwargs = dict(
            circuits=[("rc_mesh", {"rows": 4, "cols": 4})],
            methods=["er", "benr"],
            param_grid={"coupling_fraction": [0.2, 0.8]},
            option_grid={"err_budget": [1e-3, 1e-4]},
            base_seed=5,
        )
        first = grid_sweep(**kwargs)
        second = grid_sweep(**kwargs)
        assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
        reseeded = grid_sweep(**{**kwargs, "base_seed": 6})
        assert [s.name for s in reseeded] == [s.name for s in first]
        assert ({s.circuit.params["seed"] for s in reseeded}
                .isdisjoint(s.circuit.params["seed"] for s in first))

    def test_grid_sweep_option_variants_share_their_param_point_seed(self):
        scenarios = grid_sweep(
            circuits=[("rc_mesh", {"rows": 4, "cols": 4})],
            methods=["er"],
            param_grid={"coupling_fraction": [0.5, 0.9]},
            option_grid={"err_budget": [1e-3, 1e-5]},
        )
        seeds = {}
        for s in scenarios:
            seeds.setdefault(s.tags["coupling_fraction"], set()).add(
                s.circuit.params["seed"])
            assert s.seed == s.circuit.params["seed"]
        assert all(len(group) == 1 for group in seeds.values()), \
            "option-only variants must compare on the identical netlist"
        assert seeds[0.5] != seeds[0.9]

    def test_grid_sweep_names_and_tags_carry_coordinates(self):
        scenarios = grid_sweep(
            circuits=[("rc_mesh", {"rows": 4, "cols": 4})],
            methods=["er"],
            param_grid={"coupling_fraction": [0.25]},
            option_grid={"err_budget": [1e-4]},
            observe=["n0"],
        )
        (scenario,) = scenarios
        assert scenario.name == "rc_mesh[coupling_fraction=0.25](err_budget=0.0001)/er"
        assert scenario.tags == {"coupling_fraction": 0.25, "err_budget": 1e-4}
        assert scenario.options == {"err_budget": 1e-4}
        assert scenario.observe == ["n0"]

    def test_grid_sweep_rejects_duplicate_scenario_names(self):
        with pytest.raises(ValueError, match="duplicate scenario name"):
            grid_sweep(["rc_ladder", "rc_ladder"], ["er"])

    def test_grid_sweep_rejects_unknown_circuit_designator(self):
        with pytest.raises(TypeError, match="circuits must be"):
            grid_sweep([("rc_ladder", {}, "extra")], ["er"])

    def test_module_referenced_factory_gets_seed_injection(self):
        """A user factory referenced via CircuitSpec(module=...) must be
        importable by the planner so its variants receive their seeds."""
        scenarios = grid_sweep(
            [CircuitSpec("user_random_mesh", module="_campaign_user_factory")],
            ["er"], param_grid={"rows": [3, 4, 5]},
        )
        seeds = [s.circuit.params.get("seed") for s in scenarios]
        assert all(seed is not None for seed in seeds)
        assert len(set(seeds)) == 3, "each variant must build a distinct netlist"


class TestSerialExecution:
    def test_campaign_runs_and_aggregates(self):
        scenarios = small_scenarios()
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial")
        assert len(campaign) == len(scenarios)
        assert campaign.num_ok == len(scenarios)
        assert campaign.metadata["mode"] == "serial"
        for outcome in campaign:
            assert outcome.summary["#step"] > 0
            assert outcome.structure["#N"] > 0
            assert outcome.samples["n2_2"]

    def test_assembly_cache_reused_within_worker(self):
        scenarios = small_scenarios()
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial")
        hits = [o.cache_hit for o in campaign]
        assert hits[0] is False
        assert all(hits[1:]), "scenarios sharing a circuit spec must reuse the assembly"

    def test_cache_reuse_does_not_change_results(self):
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,)) * 1
        twice = scenarios + [
            Scenario.from_dict({**scenarios[0].to_dict(), "name": "again"})
        ]
        campaign = run_campaign(twice, base_options=FAST_OPTIONS, backend="serial")
        first, second = campaign.outcomes
        assert second.cache_hit
        assert first.deterministic_summary() == second.deterministic_summary()
        assert first.samples == second.samples

    def test_dc_operating_point_shared_across_method_sweep(self):
        """Method sweeps on one circuit solve DC once per worker: the first
        scenario computes it, every later one reuses it (the DC system
        does not depend on the integration method) with identical results."""
        scenarios = small_scenarios()
        assert len({s.method for s in scenarios}) > 1
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial")
        hits = [o.dc_cache_hit for o in campaign]
        assert hits[0] is False
        assert all(hits[1:]), "method sweep must reuse the cached DC point"
        # reusing the DC point must not change any scenario's outcome:
        # rerun the last scenario alone (cold caches) and compare
        cold = run_campaign([scenarios[-1]], base_options=FAST_OPTIONS,
                            backend="serial")
        warm_outcome = campaign.outcomes[-1]
        cold_outcome = cold.outcomes[0]
        assert not cold_outcome.dc_cache_hit
        assert warm_outcome.deterministic_summary() == cold_outcome.deterministic_summary()
        assert warm_outcome.samples == cold_outcome.samples

    def test_dc_cache_key_separates_dc_relevant_options(self):
        """Scenarios differing in the LU memory budget must not share a DC
        point (the budget applies to the DC factorizations too)."""
        base = small_scenarios(methods=("er",), budgets=(1e-3,))[0]
        budgeted = Scenario.from_dict({**base.to_dict(), "name": "budgeted"})
        budgeted.options = {**budgeted.options, "max_factor_nnz": 10**9}
        campaign = run_campaign([base, budgeted], base_options=FAST_OPTIONS,
                                backend="serial")
        assert campaign.outcomes[0].dc_cache_hit is False
        assert campaign.outcomes[1].dc_cache_hit is False

    def test_error_capture(self):
        bad = Scenario(name="bad", circuit=CircuitSpec("no_such_factory"))
        campaign = run_campaign([bad], base_options=FAST_OPTIONS, backend="serial")
        outcome = campaign.outcome_for("bad")
        assert outcome.status == "error"
        assert "no_such_factory" in outcome.error
        assert outcome.traceback

    @pytest.mark.parametrize("fields, message", [
        ({"method": "no_such_method"}, "unknown integration method"),
        ({"method": 3}, "method must be a string"),
        ({"name": ["d"]}, "name must be a string"),
        ({"circuit": {"factory": 7}}, "factory must be a string"),
        ({"observe": "abc"}, "observe must be a list"),
        ({"observe": [None]}, "node name must be a string"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": False}, "seed must be an integer"),
    ])
    def test_unrunnable_scenario_is_refused_when_built(self, fields, message):
        data = dict({"name": "bad", "circuit": {"factory": "rc_ladder"}},
                    **fields)
        with pytest.raises((TypeError, ValueError), match=message):
            Scenario.from_dict(data)

    def test_failure_does_not_stop_campaign(self):
        scenarios = [
            Scenario(name="bad", circuit=CircuitSpec("rc_ladder", {"num_segments": 0})),
            Scenario(name="good", circuit=CircuitSpec("rc_ladder", {"num_segments": 3})),
        ]
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial")
        assert campaign.outcome_for("bad").status == "error"
        assert campaign.outcome_for("good").status == "ok"
        assert len(campaign.failures) == 1

    def test_timeout_capture(self):
        slow = Scenario(
            name="slow",
            circuit=CircuitSpec("rc_mesh", {"rows": 6, "cols": 6}),
            method="benr",
            # force thousands of tiny steps so the scenario cannot finish
            options={"t_stop": 1e-9, "h_init": 1e-14, "h_max": 1e-14},
        )
        campaign = run_campaign([slow], backend="serial", timeout=0.2)
        outcome = campaign.outcome_for("slow")
        assert outcome.status == "timeout"
        assert "timeout" in outcome.error

    def test_duplicate_names_rejected(self):
        scenario = small_scenarios()[0]
        with pytest.raises(ValueError, match="unique"):
            run_campaign([scenario, scenario], backend="serial")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(small_scenarios(), backend="warp")

    def test_progress_callback(self):
        seen = []
        scenarios = small_scenarios(methods=("er",))
        run_campaign(
            scenarios, base_options=FAST_OPTIONS, backend="serial",
            progress=lambda outcome, done, total: seen.append((outcome.scenario.name, done, total)),
        )
        assert len(seen) == len(scenarios)
        assert seen[-1][1] == seen[-1][2] == len(scenarios)


class TestTable1AsCampaign:
    def test_campaign_counts_equal_direct_runs(self):
        """Table I runs as a campaign, which shares one MNA and one DC
        solve across the methods of a case; that route must not move a
        count.  ckt6 keeps the budget failure: BENR exceeds its fill-in
        budget (the paper's "OoM") while ER and ER-C complete."""
        from repro.benchcircuits.testcases import make_ckt
        from repro.core.simulator import TransientSimulator

        case = make_ckt("ckt6", scale=0.3)
        options = {"t_stop": 0.1e-9, "h_init": case.h_init,
                   "err_budget": case.err_budget,
                   "max_factor_nnz": case.factor_budget,
                   "store_states": False}
        methods = ("benr", "er", "er-c")
        campaign = run_campaign(
            [Scenario(name=method, circuit=CircuitSpec("ckt6", {"scale": 0.3}),
                      method=method, options=options) for method in methods],
            backend="serial")
        assert [o.dc_cache_hit for o in campaign] == [False, True, True]
        assert [o.status for o in campaign] == ["failed", "ok", "ok"]
        # a failed reference leaves every speedup NA, the ok runs' too
        assert [row["SP"] for row in campaign.rows(reference_method="benr")] \
            == [None, None, None]
        keys = ("#step", "#NRa", "#ma", "#LU", "peak_factor_nnz", "completed")
        for method, outcome in zip(methods, campaign):
            direct = TransientSimulator(case.circuit, method=method,
                                        options=SimOptions(**options)).run()
            assert {k: outcome.summary[k] for k in keys} == \
                {k: direct.summary()[k] for k in keys}, method


class TestParallelExecution:
    def test_process_pool_matches_serial(self):
        scenarios = small_scenarios()
        serial = run_campaign(scenarios, base_options=FAST_OPTIONS,
                              backend="serial")
        parallel = run_campaign(
            scenarios, base_options=FAST_OPTIONS, backend="process", workers=2
        )
        assert parallel.metadata["mode"] == "process"
        for a, b in zip(serial, parallel):
            assert a.scenario.name == b.scenario.name
            assert a.deterministic_summary() == b.deterministic_summary()
            assert a.samples == b.samples

    def test_process_pool_captures_scenario_errors(self):
        scenarios = [
            Scenario(name="bad", circuit=CircuitSpec("rc_ladder", {"num_segments": 0})),
            small_scenarios(methods=("er",), budgets=(1e-3,))[0],
        ]
        campaign = run_campaign(
            scenarios, base_options=FAST_OPTIONS, backend="process", workers=2
        )
        assert campaign.outcome_for("bad").status == "error"
        assert campaign.num_ok == 1

    def test_default_workers_bounded_by_scenarios(self):
        assert default_workers(1) == 1
        assert 1 <= default_workers(1000)


class TestAggregation:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                            backend="serial")

    def test_rows_with_reference(self, campaign):
        rows = campaign.rows(reference_method="benr")
        by_name = {row["scenario"]: row for row in rows}
        for row in rows:
            if row["method"] == "BENR":
                assert row["SP"] == pytest.approx(1.0)
                assert row["max_err"] == 0.0
            else:
                assert row["SP"] is not None and row["SP"] > 0
                assert row["max_err"] is not None and row["max_err"] >= 0
        assert len(by_name) == len(campaign)

    def test_by_variant_groups_methods(self, campaign):
        groups = campaign.by_variant()
        assert len(groups) == 2  # two err_budget values
        for group in groups.values():
            assert sorted(o.scenario.method for o in group) == ["benr", "er"]

    def test_render_campaign_table(self, campaign):
        text = render_campaign_table(campaign, reference_method="benr")
        assert "scenario" in text and "SP" in text and "max_err" in text
        assert "BENR" in text and "ER" in text

    def test_render_method_matrix(self, campaign):
        text = render_method_matrix(campaign, reference_method="benr")
        assert "variant" in text
        assert "benr #step" in text and "er SP" in text

    def test_render_method_matrix_normalizes_method_case(self, campaign):
        text = render_method_matrix(campaign, methods=["BENR", "ER"])
        lowered = render_method_matrix(campaign, methods=["benr", "er"])
        assert text == lowered
        # the data cells are populated, not blank NA blocks
        assert text.count("NA") == 0

    def test_json_round_trip(self, campaign):
        restored = CampaignResult.from_json(campaign.to_json())
        assert len(restored) == len(campaign)
        for a, b in zip(campaign, restored):
            assert a.to_dict() == b.to_dict()
        assert restored.metadata["mode"] == "serial"

    def test_save_load(self, campaign, tmp_path):
        path = campaign.save(tmp_path / "campaign.json")
        restored = CampaignResult.load(path)
        assert restored.rows(reference_method="benr") == campaign.rows(reference_method="benr")

    def test_outcome_for_unknown(self, campaign):
        with pytest.raises(KeyError):
            campaign.outcome_for("nope")

    def test_failed_reference_yields_na(self):
        scenarios = [
            Scenario(name="ref", circuit=CircuitSpec("rc_ladder", {"num_segments": 0}),
                     method="benr"),
            Scenario(name="er", circuit=CircuitSpec("rc_ladder", {"num_segments": 0}),
                     method="er"),
        ]
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial")
        rows = campaign.rows(reference_method="benr")
        assert all(row["SP"] is None for row in rows)


class TestExecuteScenario:
    def test_returns_plain_dict(self):
        scenario = small_scenarios(methods=("er",), budgets=(1e-3,))[0]
        data = execute_scenario(scenario.to_dict(), FAST_CONTEXT)
        outcome = ScenarioOutcome.from_dict(data)
        assert outcome.ok
        assert outcome.worker is not None
        assert outcome.runtime_seconds > 0

    def test_accepts_pre_retirement_base_options(self):
        """A queued job whose base options carry the retired keys (the
        nested ``newton`` / ``dc`` dicts included) at their fixed values
        runs as if they were absent."""
        scenario = small_scenarios(methods=("er",), budgets=(1e-3,))[0]
        legacy = dict(FAST_OPTIONS.to_dict(), **RETIRED_SIM_FIELDS)
        data = execute_scenario(scenario.to_dict(),
                                JobContext(base_options=legacy))
        outcome = ScenarioOutcome.from_dict(data)
        assert outcome.ok, outcome.error
        fresh = ScenarioOutcome.from_dict(
            execute_scenario(scenario.to_dict(), FAST_CONTEXT))
        for key in ("#steps", "#LU", "#LUhit", "t_end_reached", "observables"):
            assert outcome.summary.get(key) == fresh.summary.get(key), key

    def test_refuses_changed_retired_base_option(self):
        # refused where the job context is built, before any execution
        with pytest.raises(ValueError, match="cache_linearization"):
            JobContext(base_options=dict(FAST_OPTIONS.to_dict(),
                                         cache_linearization=False))
        with pytest.raises(ValueError, match="dc.newton.max_iterations"):
            JobContext(base_options=dict(
                FAST_OPTIONS.to_dict(), dc={"newton": {"max_iterations": 9}}))
