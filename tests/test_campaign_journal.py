"""Journal, checkpoint/resume and adaptive-scheduling tests."""

import json

import pytest

from repro.campaign import (
    CampaignJournal,
    JournalContextError,
    RuntimeModel,
    Scenario,
    grid_sweep,
    plan_schedule,
    run_campaign,
)
from repro.reporting import DETERMINISTIC_COLUMNS, render_campaign_table
from repro.core.options import SimOptions

FAST_OPTIONS = SimOptions(t_stop=0.1e-9, h_init=2e-12, store_states=False)


def small_scenarios(methods=("benr", "er"), budgets=(1e-3, 1e-4)):
    return grid_sweep(
        circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
        methods=list(methods),
        option_grid={"err_budget": list(budgets)},
        observe=["n2_2"],
    )


def journal_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def truncate_to_outcomes(path, keep: int):
    """Rewrite the journal keeping the header and the first ``keep``
    outcome lines -- the on-disk state of an interrupted campaign."""
    kept, outcomes = [], 0
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "outcome":
            outcomes += 1
            if outcomes > keep:
                continue
        if record["type"] == "checkpoint" and outcomes > keep:
            continue
        kept.append(line)
    path.write_text("\n".join(kept) + "\n")


class TestJournalFile:
    def test_records_header_outcomes_and_checkpoints(self, tmp_path):
        path = tmp_path / "run.jsonl"
        scenarios = small_scenarios()
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=path, checkpoint_every=2)
        records = journal_lines(path)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "header"
        assert kinds.count("outcome") == len(scenarios)
        # 4 outcomes, checkpoint every 2 -> at least 2 checkpoints
        assert kinds.count("checkpoint") >= 2
        last_checkpoint = [r for r in records if r["type"] == "checkpoint"][-1]
        assert last_checkpoint["done"] == len(scenarios)
        assert last_checkpoint["aggregates"]["ok"] == len(scenarios)
        per_method = last_checkpoint["aggregates"]["per_method"]
        assert set(per_method) == {"benr", "er"}

    def test_replay_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        scenarios = small_scenarios()
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=path)
        with path.open("a") as handle:
            handle.write('{"type": "outcome", "hash": "interru')
        header, outcomes = CampaignJournal(path).replay()
        assert header is not None
        assert len(outcomes) == len(scenarios)

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=path)
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=path)
        # not resumed -> rewritten from scratch, not appended
        records = journal_lines(path)
        assert sum(1 for r in records if r["type"] == "header") == 1
        assert sum(1 for r in records if r["type"] == "outcome") == len(scenarios)


class TestResume:
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        """The acceptance round-trip: interrupt after k outcomes, resume,
        and the aggregate tables over the deterministic columns are
        byte-identical to the uninterrupted run's."""
        scenarios = small_scenarios()
        path = tmp_path / "run.jsonl"
        uninterrupted = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                     backend="serial", journal=path)
        columns = list(DETERMINISTIC_COLUMNS) + ["max_err"]
        expected_table = render_campaign_table(
            uninterrupted, reference_method="benr", columns=columns)

        # interrupt: keep only the first 2 outcomes in the journal
        truncate_to_outcomes(path, keep=2)
        resumed = run_campaign(scenarios, base_options=FAST_OPTIONS,
                               backend="serial", journal=path, resume=True)
        assert resumed.metadata["num_resumed"] == 2
        assert resumed.metadata["num_executed"] == 2
        resumed_table = render_campaign_table(
            resumed, reference_method="benr", columns=columns)
        assert resumed_table == expected_table
        for a, b in zip(uninterrupted, resumed):
            assert a.deterministic_summary() == b.deterministic_summary()
            assert a.samples == b.samples

        # the journal now covers everything: resuming again runs nothing
        third = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend="serial", journal=path, resume=True)
        assert third.metadata["num_executed"] == 0
        assert third.metadata["num_resumed"] == len(scenarios)
        assert render_campaign_table(third, reference_method="benr",
                                     columns=columns) == expected_table

    def test_resumed_outcomes_are_marked(self, tmp_path):
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3, 1e-4))
        path = tmp_path / "run.jsonl"
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=path)
        truncate_to_outcomes(path, keep=1)
        resumed = run_campaign(scenarios, base_options=FAST_OPTIONS,
                               backend="serial", journal=path, resume=True)
        marks = [o.reused_from for o in resumed]
        assert marks.count("journal") == 1
        assert marks.count(None) == 1

    def test_resume_reruns_timeout_outcomes(self, tmp_path):
        """Recorded timeouts are wall-clock policy, not scenario results:
        resuming (typically with a bigger budget) re-runs them."""
        from repro.campaign import CircuitSpec

        slow = Scenario(
            name="slow",
            circuit=CircuitSpec("rc_mesh", {"rows": 6, "cols": 6}),
            method="benr",
            options={"t_stop": 1e-9, "h_init": 1e-14, "h_max": 1e-14},
        )
        path = tmp_path / "run.jsonl"
        first = run_campaign([slow], backend="serial", journal=path, timeout=0.2)
        assert first.outcome_for("slow").status == "timeout"
        second = run_campaign([slow], backend="serial", journal=path,
                              resume=True, timeout=0.2)
        assert second.metadata["num_resumed"] == 0
        assert second.metadata["num_executed"] == 1

    def test_resume_reruns_recorded_errors(self, tmp_path):
        """An error line in the journal may be infrastructure debris
        (dead workers, full disk); resume must give it a fresh chance
        instead of making the failure permanent."""
        import json as json_module

        from repro.campaign import CircuitSpec
        from repro.campaign.backends.base import ExecutionBackend

        scenario = small_scenarios(methods=("er",), budgets=(1e-3,))[0]
        path = tmp_path / "run.jsonl"
        run_campaign([scenario], base_options=FAST_OPTIONS, backend="serial",
                     journal=path)
        # forge the recorded outcome into a backend-synthesized failure
        lines = []
        for line in path.read_text().splitlines():
            record = json_module.loads(line)
            if record["type"] == "outcome":
                record["data"] = ExecutionBackend.failure_outcome(
                    scenario.to_dict(), "no workers available")
            lines.append(json_module.dumps(record))
        path.write_text("\n".join(lines) + "\n")

        resumed = run_campaign([scenario], base_options=FAST_OPTIONS,
                               backend="serial", journal=path, resume=True)
        assert resumed.metadata["num_resumed"] == 0
        assert resumed.metadata["num_executed"] == 1
        assert resumed.outcome_for(scenario.name).ok

    def test_resume_refuses_different_context(self, tmp_path):
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        path = tmp_path / "run.jsonl"
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=path)
        other = SimOptions(t_stop=0.2e-9, h_init=2e-12, store_states=False)
        with pytest.raises(JournalContextError, match="context"):
            run_campaign(scenarios, base_options=other, backend="serial",
                         journal=path, resume=True)

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            run_campaign(small_scenarios(), backend="serial", resume=True)


class TestAdaptiveScheduling:
    def test_outcomes_stay_in_plan_order(self):
        scenarios = small_scenarios()
        plain = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend="serial")
        adaptive = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial", schedule="adaptive",
                                history=list(plain))
        assert [o.scenario.name for o in adaptive] == \
            [s.name for s in scenarios]
        for a, b in zip(plain, adaptive):
            assert a.deterministic_summary() == b.deterministic_summary()

    def test_dispatch_order_is_recorded_and_largest_first(self):
        scenarios = small_scenarios()
        plain = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend="serial")
        adaptive = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend="serial", schedule="adaptive",
                                history=list(plain))
        record = adaptive.metadata["schedule"]
        assert record["policy"] == "adaptive"
        order = record["dispatch_order"]
        assert sorted(order) == sorted(s.name for s in scenarios)
        predicted = record["predicted_seconds"]
        # every scenario has (circuit, method) history -> all predicted,
        # and the dispatch order is non-increasing in predicted runtime
        values = [predicted[name] for name in order]
        assert all(v is not None for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_plan_schedule_puts_unknowns_first(self):
        scenarios = small_scenarios(methods=("benr", "er"), budgets=(1e-3,))
        history_run = run_campaign([scenarios[0]], base_options=FAST_OPTIONS,
                                   backend="serial")
        pending = list(enumerate(scenarios))
        order, predictions = plan_schedule(pending, list(history_run))
        # scenario 1 (er) has no (circuit, method) pair history but the
        # circuit is known -> nnz-based estimate; both are predicted here,
        # so make one truly unknown:
        foreign = Scenario.from_dict({**scenarios[1].to_dict(),
                                      "name": "foreign"})
        foreign.circuit = type(foreign.circuit)(
            "rc_ladder", {"num_segments": 5})
        order, predictions = plan_schedule(
            list(enumerate([scenarios[0], foreign])), list(history_run))
        assert predictions["foreign"] is None
        assert order[0] == 1  # the unknown dispatches first

    def test_runtime_model_prefers_pair_history(self):
        scenarios = small_scenarios()
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
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
            run_campaign(small_scenarios(), backend="serial", schedule="chaos")
