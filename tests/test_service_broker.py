"""Broker lifecycle tests: lease expiry, redelivery, ack/nack, priorities.

The broker is the durable heart of the service: these tests drive it
directly (no HTTP, no subprocesses) through every queue transition the
fault model promises -- including the crash-during-lease path, where an
abandoned lease must expire and the job must be redelivered to the next
worker, at most ``max_attempts`` times in total.
"""

import threading
import time

import pytest

from repro.campaign.cache import ResultCache
from repro.service.broker import CommitWatch, JobBroker
from repro.service.worker import QueueWorker


@pytest.fixture
def broker(tmp_path):
    return JobBroker(tmp_path / "broker.sqlite3", lease_seconds=30.0,
                     max_attempts=3)


def scenario_payload(name="s", segments=3):
    return {
        "name": name,
        "circuit": {"factory": "rc_ladder",
                    "params": {"num_segments": segments}},
        "method": "er",
        "options": {"t_stop": 0.05e-9},
    }


class TestQueueBasics:
    def test_enqueue_lease_ack_roundtrip(self, broker):
        job = broker.enqueue({"name": "a"}, context={"timeout": None},
                             job_id="job-a")
        assert job.fresh and job.status == "queued"

        leased = broker.lease("w1")
        assert leased.id == "job-a"
        assert leased.status == "leased"
        assert leased.attempts == 1
        assert leased.context == {"timeout": None}

        assert broker.ack("job-a", "w1", {"status": "ok", "answer": 42})
        done = broker.get("job-a")
        assert done.status == "done"
        assert done.result_status == "ok"
        assert done.result["answer"] == 42
        assert broker.lease("w1") is None  # queue drained

    def test_priority_ordering_then_fifo(self, broker):
        broker.enqueue({"n": 1}, job_id="low-early", priority=0)
        broker.enqueue({"n": 2}, job_id="high", priority=9)
        broker.enqueue({"n": 3}, job_id="low-late", priority=0)
        order = [broker.lease("w").id for _ in range(3)]
        assert order == ["high", "low-early", "low-late"]

    def test_enqueue_same_id_coalesces(self, broker):
        first = broker.enqueue({"n": 1}, job_id="dup")
        second = broker.enqueue({"n": 1}, job_id="dup")
        assert first.fresh and not second.fresh
        assert broker.depth()["queued"] == 1

    def test_enqueue_resets_failed_and_non_ok_done_jobs(self, broker):
        broker.enqueue({"n": 1}, job_id="j", max_attempts=1)
        leased = broker.lease("w")
        broker.nack(leased.id, "w", "boom", requeue=False)
        assert broker.get("j").status == "failed"
        # a failed job must never be permanent: resubmission requeues it
        again = broker.enqueue({"n": 1}, job_id="j")
        assert again.fresh and again.status == "queued"
        assert again.attempts == 0
        # same for a done job whose recorded outcome is not ok
        leased = broker.lease("w")
        broker.ack("j", "w", {"status": "timeout"})
        assert broker.get("j").result_status == "timeout"
        assert broker.enqueue({"n": 1}, job_id="j").fresh
        # ...but a done job with an ok outcome coalesces
        leased = broker.lease("w")
        broker.ack("j", "w", {"status": "ok"})
        assert not broker.enqueue({"n": 1}, job_id="j").fresh


class TestLeaseExpiry:
    def test_expired_lease_is_redelivered(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.2,
                           max_attempts=3)
        broker.enqueue({"n": 1}, job_id="crashy")
        first = broker.lease("doomed-worker")
        assert first.id == "crashy"
        # worker "crashes": no extend, no ack; nobody else can see the
        # job until the visibility timeout runs out
        assert broker.lease("other") is None
        time.sleep(0.3)
        redelivered = broker.lease("other")
        assert redelivered is not None
        assert redelivered.id == "crashy"
        assert redelivered.attempts == 2
        assert broker.ack("crashy", "other", {"status": "ok"})

    def test_late_ack_from_expired_lease_is_rejected(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.2)
        broker.enqueue({"n": 1}, job_id="j")
        broker.lease("slow")
        time.sleep(0.3)
        redelivered = broker.lease("fast")
        assert redelivered.lease_owner == "fast"
        # the original worker wakes up and tries to ack: refused
        assert not broker.ack("j", "slow", {"status": "ok", "src": "slow"})
        assert broker.ack("j", "fast", {"status": "ok", "src": "fast"})
        assert broker.get("j").result["src"] == "fast"

    def test_extend_keeps_lease_alive(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.3)
        broker.enqueue({"n": 1}, job_id="long")
        job = broker.lease("w1")
        for _ in range(3):
            time.sleep(0.15)
            assert broker.extend(job.id, "w1")
        # well past the original deadline, but extended throughout
        assert broker.lease("thief") is None
        assert broker.ack(job.id, "w1", {"status": "ok"})

    def test_extend_after_expiry_fails(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.2)
        broker.enqueue({"n": 1}, job_id="j")
        broker.lease("w1")
        time.sleep(0.3)
        broker.lease("w2")  # redelivered
        assert not broker.extend("j", "w1")

    def test_poison_job_fails_after_attempt_budget(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.1,
                           max_attempts=2)
        broker.enqueue({"n": 1}, job_id="poison")
        for expected_attempt in (1, 2):
            job = broker.lease(f"victim{expected_attempt}")
            assert job.attempts == expected_attempt
            time.sleep(0.15)  # crash: lease expires
        # budget exhausted: the next lease call fails the job instead
        assert broker.lease("survivor") is None
        failed = broker.get("poison")
        assert failed.status == "failed"
        assert "budget exhausted" in failed.error


class TestNack:
    def test_nack_requeues_within_budget(self, broker):
        broker.enqueue({"n": 1}, job_id="j")
        job = broker.lease("w1")
        assert broker.nack(job.id, "w1", "transient")
        requeued = broker.get("j")
        assert requeued.status == "queued"
        assert requeued.error == "transient"
        assert broker.lease("w2").id == "j"

    def test_nack_without_lease_is_rejected(self, broker):
        broker.enqueue({"n": 1}, job_id="j")
        broker.lease("w1")
        assert not broker.nack("j", "impostor", "nope")

    def test_nack_exhausted_budget_fails(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", max_attempts=1)
        broker.enqueue({"n": 1}, job_id="j")
        job = broker.lease("w1")
        assert broker.nack(job.id, "w1", "fatal")
        assert broker.get("j").status == "failed"


class TestConcurrency:
    def test_concurrent_leases_never_share_a_job(self, broker):
        for i in range(20):
            broker.enqueue({"n": i}, job_id=f"job{i}")
        got = []
        lock = threading.Lock()

        def drain(worker_id):
            while True:
                job = broker.lease(worker_id)
                if job is None:
                    return
                with lock:
                    got.append(job.id)
                broker.ack(job.id, worker_id, {"status": "ok"})

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(got) == sorted(f"job{i}" for i in range(20))
        assert len(set(got)) == 20  # exactly-once dispatch
        assert broker.depth()["done"] == 20


class TestCountersAndStats:
    def test_counters_accumulate(self, broker):
        broker.incr("simulations")
        broker.incr("simulations", 2)
        broker.incr("cache_answers")
        assert broker.counters() == {"simulations": 3, "cache_answers": 1}

    def test_stats_shape(self, broker):
        broker.enqueue({"n": 1})
        stats = broker.stats()
        assert stats["jobs"]["queued"] == 1
        assert "counters" in stats

    def test_depth_counts_expired_leases_as_queued(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.1)
        broker.enqueue({"n": 1})
        broker.lease("w")
        assert broker.depth()["leased"] == 1
        time.sleep(0.15)
        assert broker.depth()["queued"] == 1
        assert broker.pending() == 1


class TestStatuses:
    def test_statuses_bucket_expired_leases_and_skip_unknown_ids(
            self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=30.0)
        for job_id in ("done", "live", "expired", "queued"):
            broker.enqueue({"n": job_id}, job_id=job_id)
        broker.lease("w")
        broker.ack("done", "w", {"status": "ok"})
        broker.lease("w")
        broker.lease("w", lease_seconds=0.05)
        time.sleep(0.1)
        assert broker.statuses(["done", "live", "expired", "queued",
                                "nope"]) == {
            "done": "done", "live": "leased", "expired": "queued",
            "queued": "queued"}
        assert broker.statuses([]) == {}


class TestQueueWorker:
    """The in-process worker loop (the subprocess CLI wraps exactly this)."""

    def test_worker_executes_and_records(self, broker, tmp_path):
        job = broker.enqueue(scenario_payload(), job_id="sim-job")
        worker = QueueWorker(broker, lease_seconds=30.0)
        assert worker.run_once()
        assert worker.num_executed == 1
        done = broker.get("sim-job")
        assert done.status == "done"
        assert done.result["status"] == "ok"
        assert broker.counters()["simulations"] == 1

    def test_worker_writes_no_runtime_history(self, broker, tmp_path):
        """An executed job leaves the broker file and cache entries
        behind, and no per-run history file anywhere."""
        cache = ResultCache(tmp_path / "cache")
        broker.enqueue(scenario_payload(), job_id="j")
        assert QueueWorker(broker, cache=cache).run_once()
        assert broker.counters()["simulations"] == 1
        assert len(cache) == 1
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_worker_answers_from_shared_cache(self, broker, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # first execution populates the cache...
        broker.enqueue(scenario_payload(), job_id="warmup")
        warm_worker = QueueWorker(broker, cache=cache)
        assert warm_worker.run_once()
        assert len(cache) == 1
        # ...an identical job (different id: e.g. resubmitted after the
        # broker was wiped) is answered from disk without simulating
        broker.enqueue(scenario_payload(), job_id="warm")
        worker = QueueWorker(broker, cache=cache)
        assert worker.run_once()
        assert worker.num_executed == 0
        assert worker.num_cache_hits == 1
        assert broker.get("warm").result["reused_from"] == "cache"
        assert broker.counters()["worker_cache_hits"] == 1
        assert broker.counters()["simulations"] == 1  # only the warmup

    def test_invalid_stored_context_fails_the_job(self, broker):
        # a direct broker user may store a context no front door accepts;
        # the worker refuses it as a classified job failure, not a crash
        broker.enqueue(scenario_payload(), job_id="bad",
                       context={"sample_points": 1})
        worker = QueueWorker(broker)
        assert worker.run_once()
        job = broker.get("bad")
        assert job.status == "failed"
        assert "invalid job context" in job.error
        assert worker.num_executed == 0

    def test_invalid_stored_scenario_fails_the_job(self, broker):
        # a job stored before scenarios were validated may name a method
        # no integrator implements; the worker fails it instead of dying
        broker.enqueue(dict(scenario_payload(), method="foo"), job_id="bad")
        worker = QueueWorker(broker)
        assert worker.run_once()
        job = broker.get("bad")
        assert job.status == "failed"
        assert "invalid scenario" in job.error
        assert worker.num_executed == 0

    def test_run_exits_when_idle(self, broker):
        broker.enqueue(scenario_payload(), job_id="only")
        worker = QueueWorker(broker)
        handled = worker.run(exit_when_idle=True)
        assert handled == 1
        assert broker.pending() == 0


class _Stop(Exception):
    """Raised by a test's job hook to end a worker's ``run`` loop."""


def start_worker(worker):
    """Run ``worker`` in a thread until it leases one job; returns the
    thread and a list that receives ``(job id, monotonic time)``."""
    leased = []

    def process(job):
        leased.append((job.id, time.monotonic()))
        raise _Stop

    def target():
        try:
            worker.run()
        except _Stop:
            pass

    worker.process = process
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, leased


@pytest.fixture
def waiting(monkeypatch):
    """Set once a worker (or anything else) starts a commit wait."""
    event = threading.Event()
    original = CommitWatch.wait

    def wait(self, since, timeout):
        event.set()
        return original(self, since, timeout)

    monkeypatch.setattr(CommitWatch, "wait", wait)
    return event


class TestCommitWatch:
    def test_wait_returns_on_a_commit_and_times_out_without_one(self, broker):
        with broker.watch() as watch:
            version = watch.version()
            started = time.monotonic()
            assert not watch.wait(version, 0.05)
            assert time.monotonic() - started >= 0.05
            broker.incr("anything")
            assert watch.wait(version, 30.0)

    def test_empty_lease_commits_nothing(self, broker):
        with broker.watch() as watch:
            version = watch.version()
            assert broker.lease("w") is None
            assert watch.version() == version

    def test_runnable_sees_queued_and_expired_leases_only(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3", lease_seconds=0.2)
        with broker.watch() as watch:
            assert not watch.runnable()
            broker.enqueue({"n": 1}, job_id="j")
            assert watch.runnable()
            broker.lease("w")
            assert not watch.runnable()
            time.sleep(0.3)
            assert watch.runnable()

    def test_connection_is_lazy_and_closed_on_exit(self, broker):
        with broker.watch() as watch:
            assert watch._conn is None
            watch.version()
            assert watch._conn is not None
        assert watch._conn is None


class TestIdleWake:
    """An idle worker leases on the commit that queues a job; the
    ``IDLE_POLL`` timer stays as the fallback that finds expired leases."""

    def test_job_enqueued_while_waiting_is_leased_at_once(
            self, broker, monkeypatch, waiting):
        monkeypatch.setattr(QueueWorker, "IDLE_POLL", 30.0)
        thread, leased = start_worker(QueueWorker(broker))
        assert waiting.wait(10.0)
        enqueued = time.monotonic()
        broker.enqueue(scenario_payload(), job_id="fresh")
        thread.join(5.0)
        assert not thread.is_alive()
        assert [job_id for job_id, _ in leased] == ["fresh"]
        assert leased[0][1] - enqueued < 0.5

    def test_commit_between_snapshot_and_wait_is_not_lost(
            self, broker, monkeypatch):
        """The job lands after the worker found nothing runnable and
        before its wait starts: the version read before the check has
        moved, so the wait returns at once."""
        monkeypatch.setattr(QueueWorker, "IDLE_POLL", 30.0)
        runnable = CommitWatch.runnable

        def runnable_then_enqueue(self):
            found = runnable(self)
            if not found and broker.get("late") is None:
                broker.enqueue(scenario_payload(), job_id="late")
            return found

        monkeypatch.setattr(CommitWatch, "runnable", runnable_then_enqueue)
        started = time.monotonic()
        thread, leased = start_worker(QueueWorker(broker))
        thread.join(5.0)
        assert not thread.is_alive()
        assert [job_id for job_id, _ in leased] == ["late"]
        assert leased[0][1] - started < 0.5

    def test_expired_lease_is_redelivered_without_a_commit(self, tmp_path):
        broker = JobBroker(tmp_path / "q.sqlite3")
        broker.enqueue(scenario_payload(), job_id="crashy")
        assert broker.lease("doomed-worker", lease_seconds=0.3).id == "crashy"
        thread, leased = start_worker(QueueWorker(broker))
        thread.join(10.0)
        assert not thread.is_alive()
        assert [job_id for job_id, _ in leased] == ["crashy"]
        assert broker.get("crashy").attempts == 2

    def test_other_workers_publish_wakes_without_a_lease(
            self, broker, monkeypatch, waiting):
        monkeypatch.setattr(QueueWorker, "IDLE_POLL", 30.0)
        leases, checks = [], []
        lease, runnable = broker.lease, CommitWatch.runnable

        def counted_lease(*args, **kwargs):
            leases.append(1)
            return lease(*args, **kwargs)

        def counted_runnable(self):
            checks.append(1)
            return runnable(self)

        monkeypatch.setattr(broker, "lease", counted_lease)
        monkeypatch.setattr(CommitWatch, "runnable", counted_runnable)
        thread, leased = start_worker(QueueWorker(broker))
        assert waiting.wait(10.0)
        assert (len(checks), len(leases)) == (1, 0)
        QueueWorker(broker, worker_id="other").publish(force=True)
        deadline = time.monotonic() + 5.0
        while len(checks) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(checks) == 2, "the publish did not wake the idle worker"
        assert not leases, "a wake with nothing runnable leased"
        broker.enqueue(scenario_payload(), job_id="stop")
        thread.join(5.0)
        assert not thread.is_alive()
        assert [job_id for job_id, _ in leased] == ["stop"]
        assert len(leases) == 1
