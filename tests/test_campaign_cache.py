"""Result-cache tests: scenario-hash keyed outcome reuse, durable puts
and resuming an interrupted campaign through the cache."""

import os

import pytest

from repro.campaign import (
    CircuitSpec,
    QueueBackend,
    ResultCache,
    Scenario,
    context_hash,
    grid_sweep,
    run_campaign,
)
from repro.core.options import SimOptions
from repro.reporting import DETERMINISTIC_COLUMNS, render_campaign_table
from repro.wire import JobContext

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

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3,))
        cache = ResultCache(tmp_path / "cache")
        run_campaign(scenarios, base_options=FAST_OPTIONS, backend="serial",
                     cache=cache)
        ctx = context_hash(JobContext(base_options=FAST_OPTIONS.to_dict()))
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


class TestCacheHoldsOnlyOutcomes:
    """Executed work leaves exactly one entry per ``ok`` outcome in the
    cache directory -- no runtime log that grows with every run."""

    @pytest.mark.parametrize("backend", ["serial", "process", "queue"])
    def test_cached_campaign_writes_no_runtime_history(self, tmp_path,
                                                       backend):
        data = tmp_path / "svc"
        cache_dir = data / "cache"
        if backend == "queue":
            backend = QueueBackend(data_dir=data, workers=1)
        scenarios = small_scenarios(budgets=(1e-3,))
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend=backend, workers=2, cache=cache_dir)
        assert campaign.num_ok == len(scenarios)
        assert not list(tmp_path.rglob("runtime_history.jsonl"))
        assert sorted(p.suffix for p in cache_dir.iterdir()) == \
            [".json"] * len(scenarios)

    def test_run_campaign_has_no_schedule_parameter(self):
        """Dispatch follows the plan order; there is no other policy."""
        with pytest.raises(TypeError):
            run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                         backend="serial", schedule="adaptive")


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


class TestDurablePut:
    def test_each_ok_put_fsyncs_once_before_the_rename(self, tmp_path,
                                                       monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        cache = ResultCache(tmp_path / "cache")
        for segments in (3, 4):
            scenario = Scenario(name=f"s{segments}",
                                circuit=CircuitSpec("rc_ladder",
                                                    {"num_segments": segments}))
            cache.put(scenario, "ctx", {"scenario": scenario.to_dict(),
                                        "status": "ok", "summary": {}})
        assert events == ["fsync", "replace"] * 2
        assert len(cache) == 2

    def test_non_ok_outcome_writes_nothing(self, tmp_path, monkeypatch):
        events = []
        monkeypatch.setattr(os, "fsync", lambda fd: events.append("fsync"))
        cache = ResultCache(tmp_path / "cache")
        scenario = Scenario(name="s",
                            circuit=CircuitSpec("rc_ladder",
                                                {"num_segments": 3}))
        for status in ("error", "timeout", "failed"):
            assert cache.put(scenario, "ctx", {"scenario": scenario.to_dict(),
                                               "status": status}) is None
        assert events == []
        assert not (tmp_path / "cache").exists()


class Interrupted(Exception):
    """Raised from a progress callback to cut a campaign short."""


class TestResumeThroughCache:
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        """Interrupt a campaign after k outcomes, re-run it against the
        same cache, and the aggregate tables over the deterministic
        columns are byte-identical to an uninterrupted run's: every
        outcome delivered before the interruption was already stored."""
        scenarios = small_scenarios()
        uninterrupted = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                     backend="serial")
        columns = list(DETERMINISTIC_COLUMNS) + ["max_err"]
        expected_table = render_campaign_table(
            uninterrupted, reference_method="benr", columns=columns)

        k = 2

        def interrupt(outcome, done, total):
            if done == k:
                raise Interrupted

        cache = tmp_path / "cache"
        with pytest.raises(Interrupted):
            run_campaign(scenarios, base_options=FAST_OPTIONS,
                         backend="serial", cache=cache, progress=interrupt)
        resumed = run_campaign(scenarios, base_options=FAST_OPTIONS,
                               backend="serial", cache=cache)
        assert resumed.metadata["num_cached"] == k
        assert resumed.metadata["num_executed"] == len(scenarios) - k
        assert render_campaign_table(
            resumed, reference_method="benr", columns=columns) == expected_table
        for a, b in zip(uninterrupted, resumed):
            assert a.deterministic_summary() == b.deterministic_summary()
            assert a.samples == b.samples

        # the cache now covers everything: a third run executes nothing
        third = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend="serial", cache=cache)
        assert third.metadata["num_executed"] == 0
        assert render_campaign_table(
            third, reference_method="benr", columns=columns) == expected_table

    def test_resumed_outcomes_are_marked(self, tmp_path):
        scenarios = small_scenarios(methods=("er",), budgets=(1e-3, 1e-4))

        def interrupt(outcome, done, total):
            raise Interrupted

        cache = tmp_path / "cache"
        with pytest.raises(Interrupted):
            run_campaign(scenarios, base_options=FAST_OPTIONS,
                         backend="serial", cache=cache, progress=interrupt)
        resumed = run_campaign(scenarios, base_options=FAST_OPTIONS,
                               backend="serial", cache=cache)
        assert [o.reused_from for o in resumed] == ["cache", None]
