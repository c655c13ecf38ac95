"""Result-cache tests: scenario-hash keyed outcome reuse."""

import pytest

from repro.campaign import (
    CircuitSpec,
    ResultCache,
    Scenario,
    context_hash,
    grid_sweep,
    run_campaign,
)
from repro.core.options import SimOptions

FAST_OPTIONS = SimOptions(t_stop=0.1e-9, h_init=2e-12, store_states=False)


def small_scenarios(methods=("benr", "er"), budgets=(1e-3, 1e-4)):
    return grid_sweep(
        circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
        methods=list(methods),
        option_grid={"err_budget": list(budgets)},
        observe=["n2_2"],
    )


class TestResultCache:
    def test_unchanged_plan_simulates_zero_scenarios(self, tmp_path):
        scenarios = small_scenarios()
        first = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend="serial", cache=tmp_path / "cache")
        assert first.metadata["num_executed"] == len(scenarios)
        assert first.metadata["num_cached"] == 0

        second = run_campaign(scenarios, base_options=FAST_OPTIONS,
                              backend="serial", cache=tmp_path / "cache")
        assert second.metadata["num_executed"] == 0
        assert second.metadata["num_cached"] == len(scenarios)
        assert all(o.reused_from == "cache" for o in second)
        for a, b in zip(first, second):
            assert a.deterministic_summary() == b.deterministic_summary()
            assert a.samples == b.samples

    def test_replan_simulates_only_changed_scenarios(self, tmp_path):
        scenarios = small_scenarios(budgets=(1e-3, 1e-4))
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=tmp_path / "cache")
        # re-plan: one budget kept, one new -> exactly the new ones run
        replanned = small_scenarios(budgets=(1e-3, 5e-4))
        second = run_campaign(replanned, base_options=FAST_OPTIONS,
                              backend="serial", cache=tmp_path / "cache")
        kept = [o for o in second if o.scenario.options["err_budget"] == 1e-3]
        fresh = [o for o in second if o.scenario.options["err_budget"] == 5e-4]
        assert all(o.reused_from == "cache" for o in kept)
        assert all(o.reused_from is None for o in fresh)
        assert second.metadata["num_executed"] == len(fresh)

    def test_rename_and_retag_still_hits(self, tmp_path):
        """name/tags are presentation metadata outside the content hash:
        a renamed sweep reuses its outcomes, relabelled for the tables."""
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=tmp_path / "cache")
        renamed = [Scenario.from_dict({**s.to_dict(), "name": f"renamed-{i}",
                                       "tags": {"corner": "slow"}})
                   for i, s in enumerate(scenarios)]
        second = run_campaign(renamed, base_options=FAST_OPTIONS,
                              backend="serial", cache=tmp_path / "cache")
        assert second.metadata["num_executed"] == 0
        outcome = second.outcome_for("renamed-0")
        assert outcome.scenario.tags == {"corner": "slow"}
        rows = second.rows()
        assert rows[0]["scenario"] == "renamed-0"

    def test_different_base_options_miss(self, tmp_path):
        """The campaign context (base options, grid, timeout) is outcome-
        relevant but outside the scenario hash; it must key the cache."""
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=tmp_path / "cache")
        longer = SimOptions(t_stop=0.2e-9, h_init=2e-12, store_states=False)
        second = run_campaign(scenarios, base_options=longer, backend="serial",
                              cache=tmp_path / "cache")
        assert second.metadata["num_cached"] == 0
        assert second.metadata["num_executed"] == len(scenarios)

    def test_different_timeout_still_hits(self, tmp_path):
        """The timeout is execution policy: an ok outcome's content does
        not depend on the budget it ran under, so changing it must not
        invalidate the cache."""
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=tmp_path / "cache", timeout=120.0)
        second = run_campaign(scenarios, base_options=FAST_OPTIONS,
                              backend="serial", cache=tmp_path / "cache")
        assert second.metadata["num_executed"] == 0
        assert second.metadata["num_cached"] == len(scenarios)

    def test_failures_are_not_cached(self, tmp_path):
        bad = Scenario(name="bad",
                       circuit=CircuitSpec("rc_ladder", {"num_segments": 0}))
        first = run_campaign([bad], base_options=FAST_OPTIONS, backend="serial",
                             cache=tmp_path / "cache")
        assert first.outcome_for("bad").status == "error"
        second = run_campaign([bad], base_options=FAST_OPTIONS, backend="serial",
                              cache=tmp_path / "cache")
        # the failure ran again (and could have healed) instead of being
        # served from the cache
        assert second.metadata["num_cached"] == 0
        assert second.metadata["num_executed"] == 1

    def test_journal_adopted_outcomes_warm_the_cache(self, tmp_path):
        """Resuming with both a journal and a (cold) cache must store the
        journal-adopted ok outcomes, so the next re-plan hits."""
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3, 1e-4))
        journal = tmp_path / "run.jsonl"
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     journal=journal)
        resumed = run_campaign(scenarios, base_options=FAST_OPTIONS,
                               backend="serial", journal=journal, resume=True,
                               cache=tmp_path / "cache")
        assert resumed.metadata["num_resumed"] == len(scenarios)
        third = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend="serial", cache=tmp_path / "cache")
        assert third.metadata["num_cached"] == len(scenarios)
        assert third.metadata["num_executed"] == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        cache = ResultCache(tmp_path / "cache")
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=cache)
        ctx = context_hash(FAST_OPTIONS.to_dict(), 101)
        path = cache.path(scenarios[0], ctx)
        assert path.exists()
        path.write_text("{not json")
        second = run_campaign(scenarios, base_options=FAST_OPTIONS,
                              backend="serial", cache=cache)
        assert second.metadata["num_executed"] == 1
        assert second.outcome_for(scenarios[0].name).ok

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3, 1e-4))
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=cache)
        assert len(cache) == len(scenarios)


class TestAtomicPut:
    """PR-5 concurrency hardening: many service workers, one directory."""

    def outcome_dict(self, scenario):
        return {
            "scenario": scenario.to_dict(),
            "status": "ok",
            "summary": {"#step": 5},
        }

    def test_put_leaves_no_temp_files_and_is_invisible_to_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenario = Scenario(name="s",
                            circuit=CircuitSpec("rc_ladder",
                                                {"num_segments": 3}))
        cache.put(scenario, "ctx", self.outcome_dict(scenario))
        names = [p.name for p in (tmp_path / "cache").iterdir()]
        assert len(names) == 1
        assert names[0].endswith(".json")
        assert len(cache) == 1

    def test_get_by_key_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenario = Scenario(name="s",
                            circuit=CircuitSpec("rc_ladder",
                                                {"num_segments": 3}))
        cache.put(scenario, "ctx", self.outcome_dict(scenario))
        entry = cache.get_by_key(cache.key(scenario, "ctx"))
        assert entry["status"] == "ok"
        assert entry["reused_from"] == "cache"
        assert cache.get_by_key("no-such-key") is None

    def test_concurrent_writers_and_readers_never_see_torn_entries(
            self, tmp_path):
        """Hammer one entry from writer threads while readers poll: every
        read is either a miss (before the first write lands) or a fully
        formed outcome -- never a ValueError, never a partial dict."""
        import threading

        cache = ResultCache(tmp_path / "cache")
        scenario = Scenario(name="s",
                            circuit=CircuitSpec("rc_ladder",
                                                {"num_segments": 3}))
        ctx = "ctx"
        stop = threading.Event()
        problems = []

        def writer(tag):
            data = self.outcome_dict(scenario)
            data["summary"]["writer"] = tag
            while not stop.is_set():
                try:
                    cache.put(scenario, ctx, data)
                except Exception as exc:  # noqa: BLE001
                    problems.append(("put", repr(exc)))
                    return

        def reader():
            while not stop.is_set():
                try:
                    entry = cache.get(scenario, ctx)
                except Exception as exc:  # noqa: BLE001
                    problems.append(("get", repr(exc)))
                    return
                if entry is not None and entry.get("status") != "ok":
                    problems.append(("torn", entry))
                    return

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        import time as time_module
        time_module.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert problems == []
        assert len(cache) == 1
        final = cache.get(scenario, ctx)
        assert final["status"] == "ok"
