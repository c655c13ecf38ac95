"""Adaptive scheduling and its persisted cost model.

``schedule="adaptive"`` dispatches predicted-longest-first.  Its
predictions come from cache-adopted outcomes and per-(circuit, method)
runtime records appended next to the result cache (or by service
workers, next to the broker), loaded automatically so *first-run*
campaigns get real LPT predictions.
"""

import json

import pytest

from repro.campaign import (
    CircuitSpec,
    ResultCache,
    RuntimeModel,
    Scenario,
    ScenarioOutcome,
    append_history,
    grid_sweep,
    history_path_for,
    load_history,
    plan_schedule,
    run_campaign,
    save_history,
)
from repro.campaign.schedule import (
    record_from_outcome,
    record_from_outcome_dict,
)
from repro.core.options import SimOptions

FAST_OPTIONS = SimOptions(t_stop=0.05e-9, h_init=2e-12, store_states=False)


def outcome(circuit="rc_ladder", params=None, method="er", runtime=1.0,
            nnz=10, status="ok", name="s"):
    scenario = Scenario(name=name,
                        circuit=CircuitSpec(circuit, params or {"num_segments": 3}),
                        method=method)
    out = ScenarioOutcome(scenario=scenario, status=status,
                          runtime_seconds=runtime)
    if nnz:
        out.structure = {"nnzC": nnz, "nnzG": nnz}
    return out


class TestRecords:
    def test_record_from_outcome(self):
        record = record_from_outcome(outcome(runtime=2.5, nnz=7))
        assert record["method"] == "er"
        assert record["runtime_seconds"] == 2.5
        assert record["nnz"] == 14.0
        assert "rc_ladder" in record["circuit"]

    def test_non_ok_and_zero_runtime_produce_no_record(self):
        assert record_from_outcome(outcome(status="error")) is None
        assert record_from_outcome(outcome(runtime=0.0)) is None

    def test_record_from_outcome_dict_matches_object_path(self):
        obj = outcome(runtime=1.5)
        assert record_from_outcome_dict(obj.to_dict()) == \
            record_from_outcome(obj)

    def test_record_from_outcome_dict_rejects_garbage(self):
        assert record_from_outcome_dict({}) is None
        assert record_from_outcome_dict({"status": "ok"}) is None
        assert record_from_outcome_dict(
            {"status": "ok", "runtime_seconds": "soon",
             "scenario": {"circuit": {"factory": "x"}}}) is None


class TestHistoryFile:
    def test_save_then_load_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        written = save_history(path, [
            outcome(runtime=1.0), outcome(runtime=3.0),
            outcome(method="benr", runtime=8.0),
            outcome(status="error"),  # dropped
        ])
        assert written == 3
        model = load_history(path)
        assert model.num_records == 3
        assert model.num_pairs == 2
        # mean of the two er runs
        assert model.predict(outcome().scenario) == pytest.approx(2.0)
        assert model.predict(outcome(method="benr").scenario) == pytest.approx(8.0)

    def test_append_accumulates_across_calls(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, [record_from_outcome(outcome(runtime=1.0))])
        append_history(path, [record_from_outcome(outcome(runtime=2.0))])
        assert load_history(path).num_records == 2

    def test_load_tolerates_missing_and_torn_lines(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl").num_records == 0
        path = tmp_path / "history.jsonl"
        save_history(path, [outcome(runtime=1.0)])
        with open(path, "a") as handle:
            handle.write('{"circuit": "x", "met')  # torn concurrent append
        model = load_history(path)
        assert model.num_records == 1

    def test_unknown_circuit_without_nnz_has_no_prediction(self, tmp_path):
        path = tmp_path / "history.jsonl"
        save_history(path, [outcome(runtime=1.0)])
        other = Scenario(name="o", circuit=CircuitSpec("rc_mesh", {"rows": 2}),
                         method="er")
        assert load_history(path).predict(other) is None


class TestAdaptiveCampaignPersistence:
    def scenarios(self):
        return [
            Scenario(name="small", method="er",
                     circuit=CircuitSpec("rc_ladder", {"num_segments": 3})),
            Scenario(name="big", method="er",
                     circuit=CircuitSpec("rc_ladder", {"num_segments": 24})),
        ]

    def test_first_run_writes_history_next_to_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        campaign = run_campaign(self.scenarios(), base_options=FAST_OPTIONS,
                                backend="serial", cache=cache)
        history = history_path_for(cache.root)
        assert history.exists()
        model = load_history(history)
        assert model.num_records == len(campaign)
        assert model.num_pairs == 2  # two distinct circuits, one method

    def test_fresh_campaign_gets_predictions_from_persisted_history(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(self.scenarios(), base_options=FAST_OPTIONS,
                     backend="serial", cache=ResultCache(cache_dir))
        # same scenarios, *empty* cache knowledge path: wipe the entries
        # but keep the history -- nothing can be adopted, yet the
        # adaptive schedule is fitted from the persisted records
        for entry in cache_dir.glob("*.json"):
            entry.unlink()
        campaign = run_campaign(self.scenarios(), base_options=FAST_OPTIONS,
                                backend="serial", cache=ResultCache(cache_dir),
                                schedule="adaptive")
        record = campaign.metadata["schedule"]
        assert record["policy"] == "adaptive"
        assert record["history_records"] == 2
        predicted = record["predicted_seconds"]
        assert predicted["small"] is not None
        assert predicted["big"] is not None

    def test_adopted_outcomes_do_not_duplicate_history_records(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(self.scenarios(), base_options=FAST_OPTIONS,
                     backend="serial", cache=cache)
        # warm rerun adopts everything from the cache: no new records
        run_campaign(self.scenarios(), base_options=FAST_OPTIONS,
                     backend="serial", cache=cache)
        assert load_history(history_path_for(cache.root)).num_records == 2


MESH_OPTIONS = SimOptions(t_stop=0.1e-9, h_init=2e-12, store_states=False)


def mesh_scenarios(methods=("benr", "er"), budgets=(1e-3, 1e-4)):
    return grid_sweep(
        circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
        methods=list(methods),
        option_grid={"err_budget": list(budgets)},
        observe=["n2_2"],
    )


def history_only_cache(cache_dir, scenarios):
    """Run ``scenarios`` against ``cache_dir``, then drop the cached
    outcomes and keep the persisted runtime history: an adaptive re-run
    must execute everything, with predictions from the history alone."""
    plain = run_campaign(scenarios, base_options=MESH_OPTIONS,
                         backend="serial", cache=cache_dir)
    for entry in cache_dir.glob("*.json"):
        entry.unlink()
    return plain


class TestAdaptiveScheduling:
    def test_outcomes_stay_in_plan_order(self, tmp_path):
        scenarios = mesh_scenarios()
        plain = history_only_cache(tmp_path / "cache", scenarios)
        adaptive = run_campaign(scenarios, base_options=MESH_OPTIONS,
                                backend="serial", schedule="adaptive",
                                cache=tmp_path / "cache")
        assert adaptive.metadata["num_executed"] == len(scenarios)
        assert [o.scenario.name for o in adaptive] == \
            [s.name for s in scenarios]
        for a, b in zip(plain, adaptive):
            assert a.deterministic_summary() == b.deterministic_summary()

    def test_dispatch_order_is_recorded_and_largest_first(self, tmp_path):
        scenarios = mesh_scenarios()
        history_only_cache(tmp_path / "cache", scenarios)
        adaptive = run_campaign(scenarios, base_options=MESH_OPTIONS,
                                backend="serial", schedule="adaptive",
                                cache=tmp_path / "cache")
        record = adaptive.metadata["schedule"]
        assert record["policy"] == "adaptive"
        assert record["history_records"] == len(scenarios)
        order = record["dispatch_order"]
        assert sorted(order) == sorted(s.name for s in scenarios)
        predicted = record["predicted_seconds"]
        # every scenario has (circuit, method) history -> all predicted,
        # and the dispatch order is non-increasing in predicted runtime
        values = [predicted[name] for name in order]
        assert all(v is not None for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_cache_adopted_outcomes_feed_predictions(self, tmp_path):
        """With no persisted history, the outcomes adopted from the cache
        alone predict the pending scenarios of the same pairs."""
        scenarios = mesh_scenarios()
        cache = tmp_path / "cache"
        first = run_campaign(scenarios[:2], base_options=MESH_OPTIONS,
                             backend="serial", cache=cache)
        history_path_for(cache).unlink()
        adaptive = run_campaign(scenarios, base_options=MESH_OPTIONS,
                                backend="serial", schedule="adaptive",
                                cache=cache)
        assert adaptive.metadata["num_cached"] == len(first)
        record = adaptive.metadata["schedule"]
        assert record["history_records"] == 0
        runtime = {o.scenario.method: o.runtime_seconds for o in first}
        for scenario in scenarios[2:]:
            assert record["predicted_seconds"][scenario.name] == \
                pytest.approx(runtime[scenario.method])

    def test_plan_schedule_puts_unknowns_first(self):
        scenarios = mesh_scenarios(methods=("benr", "er"), budgets=(1e-3,))
        history_run = run_campaign([scenarios[0]], base_options=MESH_OPTIONS,
                                   backend="serial")
        foreign = Scenario.from_dict({**scenarios[1].to_dict(),
                                      "name": "foreign"})
        foreign.circuit = type(foreign.circuit)(
            "rc_ladder", {"num_segments": 5})
        order, predictions = plan_schedule(
            list(enumerate([scenarios[0], foreign])), list(history_run))
        assert predictions["foreign"] is None
        assert order[0] == 1  # the unknown dispatches first

    def test_runtime_model_prefers_pair_history(self):
        scenarios = mesh_scenarios()
        campaign = run_campaign(scenarios, base_options=MESH_OPTIONS,
                                backend="serial")
        model = RuntimeModel(campaign)
        for scenario in scenarios:
            # each (circuit, method) pair ran twice (two budgets); the
            # prediction must be exactly that pair's mean runtime
            pair_runs = [o.runtime_seconds for o in campaign
                         if o.scenario.method == scenario.method]
            expected = sum(pair_runs) / len(pair_runs)
            assert model.predict(scenario) == pytest.approx(expected)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            run_campaign(mesh_scenarios(), backend="serial", schedule="chaos")
