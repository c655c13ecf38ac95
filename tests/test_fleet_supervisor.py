"""FleetSupervisor lifecycle: spawn, retire, crash-loop breaker, zombies.

Tier-1 tests drive the supervisor against a real broker but with an
injected ``spawn_fn`` producing fake processes -- every lifecycle branch
(scale-up kinds, clean retirement, exponential backoff, circuit breaker,
zombie reaping, state publication) runs in milliseconds.  The tier-2
test at the bottom is the real thing: a burst of HTTP submissions, a
supervisor scaling from zero pre-started workers, the queue draining,
and the fleet retiring back to the floor.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import FleetPolicy, FleetSupervisor
from repro.service import layout


class FakeProcess:
    """A Popen stand-in whose exit is scripted by the test."""

    _next_pid = 40000

    def __init__(self, exit_code=None):
        #: None = stays alive until terminate(); int = exits immediately
        self._exit_code = exit_code
        self.terminated = False
        FakeProcess._next_pid += 1
        self.pid = FakeProcess._next_pid
        self.returncode = None

    def poll(self):
        if self._exit_code is not None:
            self.returncode = self._exit_code
        return self.returncode

    def terminate(self):
        self.terminated = True
        self._exit_code = -15

    def kill(self):
        self.terminate()

    def wait(self, timeout=None):
        return self.poll()


@pytest.fixture
def broker(tmp_path):
    return layout.open_broker(tmp_path / "svc")


@pytest.fixture(autouse=True)
def fast_timings(monkeypatch):
    """Millisecond ticks and backoffs; a long uptime bar for streaks."""
    monkeypatch.setattr(FleetSupervisor, "INTERVAL", 0.01)
    monkeypatch.setattr(FleetSupervisor, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(FleetSupervisor, "BACKOFF_CAP", 0.05)
    monkeypatch.setattr(FleetSupervisor, "MIN_UPTIME", 10.0)


def make_supervisor(broker, spawn_fn, **kwargs):
    kwargs.setdefault("policy", FleetPolicy(max_workers=4))
    return FleetSupervisor(broker=broker, spawn_fn=spawn_fn, **kwargs)


def fill_queue(broker, count):
    for i in range(count):
        broker.enqueue({"name": f"job{i}"}, job_id=f"job{i}")


class TestScaling:
    def test_backlog_spawns_floor_then_surge_workers(self, broker):
        spawned = []

        def spawn(worker_id, kind):
            spawned.append((worker_id, kind))
            return FakeProcess()

        fill_queue(broker, 4)
        supervisor = make_supervisor(
            broker, spawn,
            policy=FleetPolicy(max_workers=4, min_workers=1))
        decision = supervisor.tick()
        assert decision.action == "scale_up"
        assert [kind for _, kind in spawned] == ["floor", "surge"]
        assert supervisor.spawns == 2

    def test_scale_up_respects_the_ceiling(self, broker):
        fill_queue(broker, 100)
        supervisor = make_supervisor(
            broker, lambda *_: FakeProcess(),
            policy=FleetPolicy(max_workers=3))
        supervisor.tick()
        assert len(supervisor.workers) == 3
        assert supervisor.tick().action == "hold"
        assert len(supervisor.workers) == 3

    def test_surge_worker_exit_zero_is_a_retirement(self, broker):
        fill_queue(broker, 2)
        process = FakeProcess()
        supervisor = make_supervisor(broker, lambda *_: process)
        supervisor.tick()
        assert len(supervisor.workers) == 1
        # the queue drains and the surge worker exits cleanly
        for i in range(2):
            job = broker.lease("w")
            broker.ack(job.id, "w", {"status": "ok"})
        process._exit_code = 0
        supervisor.tick()
        assert supervisor.retires == 1
        assert supervisor.crashes == 0
        assert not supervisor.workers

    def test_retired_workers_heartbeat_is_not_counted_live(self, broker):
        fill_queue(broker, 2)
        process = FakeProcess()
        supervisor = make_supervisor(broker, lambda *_: process)
        supervisor.tick()
        worker_id = supervisor.workers[0].worker_id
        # the worker published a snapshot just before retiring
        broker.publish_worker_metrics(worker_id, {"worker_id": worker_id})
        for i in range(2):
            job = broker.lease("w")
            broker.ack(job.id, "w", {"status": "ok"})
        process._exit_code = 0
        supervisor.tick()
        assert supervisor.observe().live_workers == 0


class TestCrashLoop:
    def test_consecutive_crashes_trip_the_breaker(self, broker, monkeypatch):
        monkeypatch.setattr(FleetSupervisor, "BREAKER_THRESHOLD", 3)
        fill_queue(broker, 8)
        supervisor = make_supervisor(
            broker, lambda *_: FakeProcess(exit_code=1),
            policy=FleetPolicy(max_workers=1))
        deadline = time.monotonic() + 10.0
        while supervisor.breaker_trips == 0 and time.monotonic() < deadline:
            supervisor.tick()
            time.sleep(0.02)  # let each backoff window lapse
        assert supervisor.breaker_trips == 1
        assert supervisor.consecutive_crashes >= 3
        # the breaker caps the damage: exactly threshold spawns, no more
        assert supervisor.spawns == 3
        for _ in range(5):
            assert supervisor.tick().action == "backoff"
        assert supervisor.spawns == 3
        assert "crash-loop" in supervisor.tick().reason

    def test_breaker_state_reaches_the_published_document(self, broker,
                                                         monkeypatch):
        monkeypatch.setattr(FleetSupervisor, "BREAKER_THRESHOLD", 2)
        fill_queue(broker, 4)
        supervisor = make_supervisor(
            broker, lambda *_: FakeProcess(exit_code=1),
            policy=FleetPolicy(max_workers=1))
        deadline = time.monotonic() + 10.0
        while supervisor.breaker_trips == 0 and time.monotonic() < deadline:
            supervisor.tick()
            time.sleep(0.02)
        state = broker.supervisor_state()
        assert state["breaker_open"] is True
        assert state["breaker_trips"] == 1
        assert state["crashes"] >= 2
        assert state["supervisor_id"] == supervisor.supervisor_id

    def test_breaker_half_opens_after_cooldown(self, broker, monkeypatch):
        monkeypatch.setattr(FleetSupervisor, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(FleetSupervisor, "BREAKER_COOLDOWN", 0.05)
        fill_queue(broker, 4)
        supervisor = make_supervisor(
            broker, lambda *_: FakeProcess(exit_code=1),
            policy=FleetPolicy(max_workers=1))
        deadline = time.monotonic() + 10.0
        while supervisor.breaker_trips == 0 and time.monotonic() < deadline:
            supervisor.tick()
            time.sleep(0.02)
        spawns_at_trip = supervisor.spawns
        time.sleep(0.1)  # cooldown lapses -> half-open retry allowed
        deadline = time.monotonic() + 10.0
        while supervisor.spawns == spawns_at_trip \
                and time.monotonic() < deadline:
            supervisor.tick()
            time.sleep(0.02)
        assert supervisor.spawns > spawns_at_trip

    def test_exponential_backoff_grows_between_crashes(self, broker,
                                                       monkeypatch):
        monkeypatch.setattr(FleetSupervisor, "BACKOFF_BASE", 0.5)
        monkeypatch.setattr(FleetSupervisor, "BACKOFF_CAP", 30.0)
        monkeypatch.setattr(FleetSupervisor, "BREAKER_THRESHOLD", 99)
        supervisor = make_supervisor(
            broker, lambda *_: FakeProcess(exit_code=1))
        now = time.monotonic()
        supervisor._record_crash(now, uptime=0.0, detail="x")
        first = supervisor._backoff_until - now
        supervisor._record_crash(now, uptime=0.0, detail="x")
        second = supervisor._backoff_until - now
        supervisor._record_crash(now, uptime=0.0, detail="x")
        third = supervisor._backoff_until - now
        assert first == pytest.approx(0.5)
        assert second == pytest.approx(1.0)
        assert third == pytest.approx(2.0)

    def test_healthy_uptime_resets_the_streak(self, broker, monkeypatch):
        monkeypatch.setattr(FleetSupervisor, "MIN_UPTIME", 1.0)
        monkeypatch.setattr(FleetSupervisor, "BREAKER_THRESHOLD", 99)
        supervisor = make_supervisor(
            broker, lambda *_: FakeProcess(exit_code=1))
        now = time.monotonic()
        supervisor._record_crash(now, uptime=0.0, detail="x")
        supervisor._record_crash(now, uptime=0.0, detail="x")
        assert supervisor.consecutive_crashes == 2
        # a crash after healthy uptime is a fresh streak of one
        supervisor._record_crash(now, uptime=5.0, detail="x")
        assert supervisor.consecutive_crashes == 1


class TestZombies:
    def test_stale_heartbeat_reaps_a_live_process(self, broker, monkeypatch):
        monkeypatch.setattr(FleetSupervisor, "STALE_HEARTBEAT", 0.5)
        fill_queue(broker, 2)
        process = FakeProcess()
        supervisor = make_supervisor(broker, lambda *_: process)
        supervisor.tick()
        assert len(supervisor.workers) == 1
        # simulate a hung worker: alive, but spawned long ago and its
        # last (only) heartbeat is far in the past
        worker = supervisor.workers[0]
        worker.spawned_wall -= 10.0
        supervisor.tick()
        assert supervisor.zombies_reaped == 1
        assert process.terminated
        assert not supervisor.workers

    def test_fresh_spawn_gets_startup_grace(self, broker):
        fill_queue(broker, 2)
        supervisor = make_supervisor(broker, lambda *_: FakeProcess())
        supervisor.tick()
        supervisor.tick()
        assert supervisor.zombies_reaped == 0
        assert len(supervisor.workers) == 1


class TestPublication:
    def test_every_tick_publishes_supervisor_state(self, broker):
        supervisor = make_supervisor(broker, lambda *_: FakeProcess())
        supervisor.tick()
        state = broker.supervisor_state()
        assert state is not None
        assert state["type"] == "fleet_supervisor_state"
        assert state["ticks"] == 1
        assert state["last_action"] == "hold"

    def test_stale_state_ages_out_of_the_view(self, broker):
        supervisor = make_supervisor(broker, lambda *_: FakeProcess())
        supervisor.tick()
        assert broker.supervisor_state(max_age=60.0) is not None
        assert broker.supervisor_state(max_age=-1.0) is None

    def test_metrics_carry_each_supervisor_series_once(self, tmp_path):
        """The front end derives the supervisor families from the published
        state; a supervisor sharing its process adds no second copy."""
        import urllib.request

        from repro.service.server import ServiceServer

        server = ServiceServer(data_dir=tmp_path / "svc")
        server.start()
        try:
            supervisor = FleetSupervisor(data_dir=tmp_path / "svc",
                                         spawn_fn=lambda *_: FakeProcess())
            supervisor.tick()
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode()
        finally:
            server.shutdown()
        series = [line.split(" ")[0] for line in text.splitlines()
                  if line.startswith("repro_fleet_supervisor_")
                  and "{" not in line.split(" ")[0]]
        assert sorted(series) == [
            "repro_fleet_supervisor_breaker_open",
            "repro_fleet_supervisor_breaker_trips_total",
            "repro_fleet_supervisor_live_workers",
            "repro_fleet_supervisor_up",
        ]

    def test_shutdown_terminates_the_fleet(self, broker):
        fill_queue(broker, 4)
        processes = []

        def spawn(*_):
            processes.append(FakeProcess())
            return processes[-1]

        supervisor = make_supervisor(broker, spawn)
        supervisor.tick()
        assert processes
        supervisor.shutdown()
        assert all(p.terminated for p in processes)
        assert not supervisor.workers


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestCommandLine:
    def test_sigterm_stops_the_workers(self, tmp_path):
        """``kill -TERM`` of ``python -m repro.fleet`` takes Ctrl-C's path:
        the supervisor terminates its floor worker before it exits."""
        data = tmp_path / "svc"
        broker = layout.open_broker(data)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        supervisor = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet", "--data", str(data),
             "--min-workers", "1", "--max-workers", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        worker_pid = None
        try:
            deadline = time.monotonic() + 60.0
            snapshots = {}
            while not snapshots and time.monotonic() < deadline:
                assert supervisor.poll() is None, "the supervisor exited"
                time.sleep(0.1)
                snapshots = broker.worker_metrics(max_age=None)
            assert snapshots, "the floor worker never published"
            (record,) = snapshots.values()
            worker_pid = record["snapshot"]["pid"]

            supervisor.send_signal(signal.SIGTERM)
            code = supervisor.wait(timeout=30.0)
            # terminate_workers grants the worker 5 s before killing it
            deadline = time.monotonic() + 5.0
            while _alive(worker_pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker_pid), "the worker outlived its supervisor"
            assert code == 0
        finally:
            if supervisor.poll() is None:
                supervisor.kill()
                supervisor.wait()
            if worker_pid is not None and _alive(worker_pid):
                os.kill(worker_pid, signal.SIGKILL)


@pytest.mark.tier2
class TestEndToEnd:
    def test_burst_scales_from_zero_then_retires_to_the_floor(self, tmp_path,
                                                              monkeypatch):
        """Supervisor-alone: no manually started workers anywhere."""
        import json
        import urllib.request

        from repro.service.server import ServiceServer

        server = ServiceServer(data_dir=tmp_path / "svc")
        server.start()
        monkeypatch.setattr(FleetSupervisor, "INTERVAL", 0.2)
        monkeypatch.setattr(FleetSupervisor, "MIN_UPTIME", 1.0)
        supervisor = FleetSupervisor(
            data_dir=tmp_path / "svc",
            policy=FleetPolicy(max_workers=3, min_workers=0))
        try:
            body = json.dumps({
                "scenarios": [
                    {"name": f"s{i}",
                     "circuit": {"factory": "rc_ladder",
                                 "params": {"num_segments": 4 + i}},
                     "method": "er",
                     "options": {"t_stop": 0.05e-9}}
                    for i in range(6)
                ],
                "base_options": {"t_stop": 0.1e-9, "h_init": 2e-12,
                                 "store_states": False},
            }).encode()
            request = urllib.request.Request(
                f"{server.url}/campaigns", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as resp:
                submitted = json.loads(resp.read())
            assert submitted["admitted"] == 6

            peak = 0
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                supervisor.tick()
                peak = max(peak, len(supervisor.workers))
                depth = server.broker.depth()
                if depth["queued"] == 0 and depth["leased"] == 0 \
                        and not supervisor.workers:
                    break
                time.sleep(0.2)

            depth = server.broker.depth()
            assert depth["done"] == 6, depth
            assert peak >= 2, "the burst should scale past one worker"
            assert supervisor.spawns == peak
            assert supervisor.retires == supervisor.spawns
            assert supervisor.crashes == 0
            assert not supervisor.workers, "fleet must retire to the floor"

            # the front end surfaces the supervisor on /metrics
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode()
            assert "repro_fleet_supervisor_up 1" in text
            assert "repro_fleet_supervisor_events_total" in text
        finally:
            supervisor.shutdown()
            server.shutdown()
