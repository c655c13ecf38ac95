"""Queue-backend specifics beyond the shared backend-contract suite.

The equivalence / timeout / failure-capture contract is covered by
``tests/test_campaign_backends.py`` (parameterized over every backend,
including ``queue``).  Here: broker-level fault tolerance with real
worker subprocesses (crash -> lease expiry -> redelivery), bounded
redelivery of poison scenarios, external workers attached to a broker
file (and the idle timeout when none is), and job dedupe across
campaigns sharing one broker.
"""

import threading
import time

import pytest

from repro.campaign import (
    CircuitSpec,
    QueueBackend,
    Scenario,
    grid_sweep,
    resolve_backend,
    run_campaign,
)
from repro.campaign.backends._spawn import (
    spawn_module_worker,
    terminate_workers,
)
from repro.core.options import SimOptions
from repro.service.broker import JobBroker
from repro.service.worker import QueueWorker

FAST_OPTIONS = SimOptions(t_stop=0.1e-9, h_init=2e-12, store_states=False)


def small_scenarios(methods=("er",), budgets=(1e-3,)):
    return grid_sweep(
        circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
        methods=list(methods),
        option_grid={"err_budget": list(budgets)},
        observe=["n2_2"],
    )


class TestResolveQueueBackend:
    def test_name_resolves(self):
        backend = resolve_backend("queue", workers=2)
        assert isinstance(backend, QueueBackend)
        assert backend.workers == 2

    def test_mode_string_accepted(self):
        campaign = run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                                backend="queue", workers=2)
        assert campaign.metadata["mode"] == "queue"
        assert campaign.num_ok == len(campaign)

    def test_metadata_records_broker(self, tmp_path):
        backend = QueueBackend(broker=tmp_path / "q.sqlite3", workers=1)
        campaign = run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                                backend=backend)
        assert campaign.metadata["broker"] == str(tmp_path / "q.sqlite3")
        assert campaign.metadata["workers"] == 1


class TestFaultTolerance:
    def test_worker_death_redelivers_job(self, tmp_path, monkeypatch):
        """A queue worker that dies mid-scenario stops extending its
        lease; the visibility timeout expires and a sibling picks the
        job up (the flag file makes the crash one-shot)."""
        flag = tmp_path / "crash.flag"
        scenarios = [
            Scenario(
                name="killer",
                circuit=CircuitSpec("die_once", {"flag_path": str(flag)},
                                    module="_campaign_death_factory"),
                method="er", options={"t_stop": 0.05e-9},
            ),
            Scenario(
                name="bystander",
                circuit=CircuitSpec("rc_ladder", {"num_segments": 3}),
                method="er", options={"t_stop": 0.05e-9},
            ),
        ]
        monkeypatch.setattr(QueueBackend, "LEASE_SECONDS", 2.0)
        backend = QueueBackend(workers=2)
        campaign = run_campaign(scenarios, backend=backend)
        assert flag.exists(), "the crash factory never fired"
        assert campaign.outcome_for("killer").status == "ok"
        assert campaign.outcome_for("bystander").status == "ok"

    def test_poison_scenario_fails_bounded(self, tmp_path, monkeypatch):
        """A scenario that kills every worker it touches exhausts its
        attempt budget and comes back as an error outcome instead of
        cycling through the fleet forever."""
        scenarios = [
            Scenario(
                name="fatal",
                circuit=CircuitSpec(
                    "die_once",
                    {"flag_path": str(tmp_path / "x.flag"), "always": True},
                    module="_campaign_death_factory"),
                method="er", options={"t_stop": 0.05e-9},
            ),
        ]
        monkeypatch.setattr(QueueBackend, "LEASE_SECONDS", 1.0)
        monkeypatch.setattr(QueueBackend, "MAX_ATTEMPTS", 2)
        backend = QueueBackend(workers=2)
        campaign = run_campaign(scenarios, backend=backend)
        outcome = campaign.outcome_for("fatal")
        assert outcome.status == "error"
        assert "budget exhausted" in outcome.error or "fleet exited" in outcome.error


class TestExternalWorkers:
    def test_worker_started_before_campaign_drains_it(self, tmp_path):
        """The multi-host workflow starts workers first: a
        ``python -m repro.service.worker --broker PATH`` process attached
        to an empty broker picks up the jobs of a later ``spawn=False``
        campaign and outlives it."""
        broker_path = tmp_path / "q.sqlite3"
        JobBroker(broker_path)  # the worker attaches to an existing file
        worker = spawn_module_worker(
            "repro.service.worker",
            ["--broker", str(broker_path)])
        try:
            scenarios = small_scenarios(methods=("er", "benr"))
            backend = QueueBackend(broker=broker_path, spawn=False)
            campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                    backend=backend)
            assert campaign.num_ok == len(scenarios)
            assert campaign.metadata["spawn"] is False
            assert {o.worker for o in campaign} == {worker.pid}
            assert JobBroker(broker_path).counters()["simulations"] == \
                len(scenarios)
            assert worker.poll() is None, \
                "an attached worker persists across campaigns"
        finally:
            terminate_workers([worker])

    def test_results_are_read_when_acked_not_on_the_poll_timer(
            self, tmp_path, monkeypatch):
        """Each ack's commit wakes the campaign's result loop, so a long
        ``POLL_INTERVAL`` does not delay the campaign."""
        monkeypatch.setattr(QueueBackend, "POLL_INTERVAL", 30.0)
        broker_path = tmp_path / "q.sqlite3"
        worker = QueueWorker(JobBroker(broker_path))
        stop = threading.Event()

        def drain():
            while not stop.is_set():
                if not worker.run_once():
                    time.sleep(0.01)

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        try:
            started = time.monotonic()
            campaign = run_campaign(
                small_scenarios(methods=("er", "benr")),
                base_options=FAST_OPTIONS,
                backend=QueueBackend(broker=broker_path, spawn=False))
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert campaign.num_ok == len(campaign) == 2
        assert elapsed < 15.0

    def test_no_worker_idle_timeout_delivers_errors(self, tmp_path,
                                                    monkeypatch):
        """With ``spawn=False`` and nobody attached, the campaign does not
        hang: after ``IDLE_TIMEOUT`` seconds without progress every
        remaining scenario comes back as an error outcome."""
        monkeypatch.setattr(QueueBackend, "IDLE_TIMEOUT", 1.0)
        scenarios = small_scenarios(methods=("er", "benr"))
        backend = QueueBackend(broker=tmp_path / "q.sqlite3", spawn=False)
        start = time.monotonic()
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend=backend)
        assert time.monotonic() - start < 30.0
        assert len(campaign) == len(scenarios)
        for outcome in campaign:
            assert outcome.status == "error"
            assert "no queue worker made progress" in outcome.error


class TestSharedBroker:
    def test_second_campaign_reuses_done_jobs(self, tmp_path):
        """Two campaigns sharing one broker coalesce on job identity:
        the repeat run simulates nothing (its jobs are already done)."""
        broker_path = tmp_path / "q.sqlite3"
        scenarios = small_scenarios(methods=("er", "benr"))
        first = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend=QueueBackend(broker=broker_path, workers=2))
        assert first.num_ok == len(scenarios)
        sims_before = JobBroker(broker_path).counters().get("simulations", 0)
        assert sims_before == len(scenarios)

        second = run_campaign(scenarios, base_options=FAST_OPTIONS,
                              backend=QueueBackend(broker=broker_path,
                                                   workers=2))
        assert second.num_ok == len(scenarios)
        sims_after = JobBroker(broker_path).counters().get("simulations", 0)
        assert sims_after == sims_before, \
            "repeat campaign through a shared broker must not re-simulate"
        # adopted-from-the-queue outcomes are marked, so campaign policy
        # (history records, reports) does not mistake them for fresh runs
        assert all(o.reused_from == "queue" for o in second)
        assert all(o.reused_from is None for o in first)
        for a, b in zip(first, second):
            assert a.deterministic_summary() == b.deterministic_summary()

    def test_identical_content_within_campaign_simulates_once(self, tmp_path):
        """Scenario name/tags are outside the job identity: two scenarios
        with equal content map to one job and both outcomes carry their
        own labels."""
        base = Scenario(
            name="first",
            circuit=CircuitSpec("rc_ladder", {"num_segments": 3}),
            method="er", options={"t_stop": 0.05e-9},
        )
        twin = Scenario(
            name="second",
            circuit=CircuitSpec("rc_ladder", {"num_segments": 3}),
            method="er", options={"t_stop": 0.05e-9},
            tags={"copy": True},
        )
        broker_path = tmp_path / "q.sqlite3"
        campaign = run_campaign(
            [base, twin],
            backend=QueueBackend(broker=broker_path, workers=1))
        assert campaign.outcome_for("first").status == "ok"
        assert campaign.outcome_for("second").status == "ok"
        assert campaign.outcome_for("second").scenario.tags == {"copy": True}
        # the twin's delivery is a coalesced copy, not a second run
        assert campaign.outcome_for("first").reused_from is None
        assert campaign.outcome_for("second").reused_from == "queue"
        assert JobBroker(broker_path).counters()["simulations"] == 1


class TestQueueWorkersShareCache:
    def test_data_dir_campaigns_populate_and_hit_the_cache(self, tmp_path):
        """With a service data directory, spawned workers consult the
        shared ResultCache -- a wiped broker still answers warm."""
        data = tmp_path / "svc"
        scenarios = small_scenarios()
        first = run_campaign(scenarios, base_options=FAST_OPTIONS,
                             backend=QueueBackend(data_dir=data, workers=1))
        assert first.num_ok == len(scenarios)
        broker_path = data / "broker.sqlite3"
        assert broker_path.exists()
        # wipe the broker (results gone; the -wal/-shm sidecars too) but
        # keep the cache: the rerun's jobs are fresh, yet the worker
        # answers them from disk
        for stale in data.glob("broker.sqlite3*"):
            stale.unlink()
        second = run_campaign(scenarios, base_options=FAST_OPTIONS,
                              backend=QueueBackend(data_dir=data, workers=1))
        assert second.num_ok == len(scenarios)
        counters = JobBroker(broker_path).counters()
        assert counters.get("worker_cache_hits", 0) == len(scenarios)
        assert counters.get("simulations", 0) == 0
