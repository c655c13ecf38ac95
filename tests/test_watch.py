"""The watch dashboard: client digestion, plain rendering, CLI snapshot.

Two rigs: a **fake** front end serving canned ``/stats`` + ``/metrics``
documents (deterministic, golden-ish render assertions, rate math under
our control) and a **real** ``ServiceServer`` scraped by the actual
``python -m repro.watch --once --json`` subprocess -- proving the
dashboard needs no TTY and no third-party packages.
"""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.server import ServiceServer
from repro.telemetry import prometheus
from repro.telemetry.metrics import MetricsRegistry
from repro.watch.__main__ import main as watch_main
from repro.watch.client import FleetSnapshot, WatchClient
from repro.watch.render import render_snapshot, sparkline

CANNED_STATS = {
    "uptime_seconds": 125.0,
    "broker": {"path": "/tmp/b",
               "jobs": {"queued": 3, "leased": 1, "done": 40, "failed": 2}},
    "counters": {"admitted": 30, "coalesced": 10, "cache_answers": 10,
                 "simulations": 28, "worker_cache_hits": 12},
    "cache": {"root": "/tmp/c", "entries": 17},
    "campaigns": 1,
    "backpressure": {"max_queue_depth": 100, "rejections": 4},
    "workers": {
        "host:1": {"busy": True, "current_job": "a" * 40, "pid": 1,
                   "num_executed": 20, "num_cache_hits": 8,
                   "steps_total": 5000, "heartbeat_age_seconds": 2.0},
        "host:2": {"busy": False, "current_job": None, "pid": 2,
                   "num_executed": 8, "num_cache_hits": 4,
                   "steps_total": 2100, "heartbeat_age_seconds": 31.0},
    },
}

CANNED_CAMPAIGNS = {"campaigns": [
    {"campaign_id": "abc123", "total": 10, "done": 5, "failed": 1,
     "finished": False, "created_at": 1000.0,
     "status_url": "/campaigns/abc123"},
]}


class _FakeFrontEnd:
    """Minimal canned HTTP server; per-path hit counts for assertions."""

    def __init__(self, steps_total=7100.0):
        self.steps_total = steps_total
        registry = MetricsRegistry()
        registry.counter("repro_integrator_steps_total", "Steps.").inc(
            steps_total)
        self.registry = registry
        fake = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                if self.path == "/stats":
                    body = json.dumps(CANNED_STATS).encode()
                    ctype = "application/json"
                elif self.path == "/campaigns":
                    body = json.dumps(CANNED_CAMPAIGNS).encode()
                    ctype = "application/json"
                elif self.path == "/healthz":
                    body = json.dumps({"status": "ok"}).encode()
                    ctype = "application/json"
                elif self.path == "/metrics":
                    body = prometheus.render_text(
                        fake.registry.snapshot()).encode()
                    ctype = prometheus.CONTENT_TYPE
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    def advance_steps(self, amount):
        self.registry.get("repro_integrator_steps_total").inc(amount)

    def reset_steps(self, new_total):
        """Simulate a restarted fleet member republishing from zero."""
        registry = MetricsRegistry()
        registry.counter("repro_integrator_steps_total", "Steps.").inc(
            new_total)
        self.registry = registry

    def shutdown(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def fake():
    frontend = _FakeFrontEnd()
    yield frontend
    frontend.shutdown()


class TestSparkline:
    def test_empty_and_flat_and_scaled(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "▁▁▁"
        line = sparkline([0.0, 4.0, 8.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(range(100), width=32)) == 32


class TestAgainstFakeFrontEnd:
    def test_snapshot_digests_canned_documents(self, fake):
        client = WatchClient(fake.url)
        snap = client.poll()
        assert snap.healthy
        assert snap.queue == {"queued": 3, "leased": 1, "done": 40,
                              "failed": 2}
        fractions = snap.fractions()
        assert fractions["coalesced_or_cached"] == pytest.approx(0.4)
        assert fractions["worker_cache_hit"] == pytest.approx(0.3)
        assert set(snap.workers) == {"host:1", "host:2"}
        assert snap.campaigns[0]["campaign_id"] == "abc123"

    def test_rates_derive_from_successive_polls(self, fake):
        client = WatchClient(fake.url)
        first = client.poll()
        assert first.rates == {}
        fake.advance_steps(500)
        second = client.poll()
        dt = second.ts - first.ts
        assert second.rates["steps_per_sec"] == pytest.approx(500 / dt)
        assert second.history["steps_per_sec"] == \
            [second.rates["steps_per_sec"]]

    def test_counter_reset_reports_new_level_not_zero(self, fake):
        """A restarted fleet member must not flatline the rate.

        When a counter goes backwards (process restart republishing from
        zero), everything the new process counted happened since the last
        poll, so the new absolute level is the increase -- the Prometheus
        counter-reset rule.  A regression here clamps the rate to 0.0 and
        hides exactly the restarts the dashboard exists to surface.
        """
        client = WatchClient(fake.url)
        first = client.poll()
        fake.reset_steps(250)
        second = client.poll()
        dt = second.ts - first.ts
        assert second.rates["steps_per_sec"] == pytest.approx(250 / dt)
        assert second.rates["steps_per_sec"] > 0.0

    def test_plain_render_contains_every_section(self, fake):
        client = WatchClient(fake.url)
        text = render_snapshot(client.poll())
        assert "[healthy]" in text and "up 2m" in text
        assert "queue   3 queued / 1 leased / 40 done / 2 failed" in text
        assert "saved 40%" in text and "hit rate 30%" in text
        assert "backpressure limit 100, 4 rejected (429)" in text
        assert "workers (2)" in text
        assert "host:1" in text and "busy" in text
        assert "host:2" in text and "idle" in text
        assert "5000" in text and "2100" in text
        assert "campaigns (1)" in text and "abc123" in text
        assert "5/10" in text and "##########.........." in text
        assert "17 entries" in text

    def test_late_acks_render_only_when_counted(self, fake):
        snap = WatchClient(fake.url).poll()
        assert "late acks" not in render_snapshot(snap)
        snap.stats = {**snap.stats,
                      "counters": {**snap.counters, "late_acks": 3}}
        assert "late    3 late acks" in render_snapshot(snap)

    def test_render_tolerates_minimal_document(self):
        text = render_snapshot(FleetSnapshot(url="u", ts=0.0, healthy=True))
        assert "0 queued" in text and "0 simulations" in text
        assert "0 entries" in text

    def test_unreachable_front_end_degrades(self):
        client = WatchClient("http://127.0.0.1:9", timeout=0.5)
        snap = client.poll()
        assert not snap.healthy and snap.error
        text = render_snapshot(snap)
        assert "UNREACHABLE" in text

    def test_to_dict_is_json_ready(self, fake):
        client = WatchClient(fake.url)
        document = json.loads(json.dumps(client.poll().to_dict()))
        assert document["healthy"] is True
        assert document["queue"]["done"] == 40


class TestAlerts:
    def test_thresholds_hold_on_a_quiet_fleet(self, fake):
        snap = WatchClient(fake.url).poll()
        assert snap.alerts(max_queue_depth=3, max_heartbeat_age=60.0) == []

    def test_queue_depth_violation_names_the_numbers(self, fake):
        snap = WatchClient(fake.url).poll()
        alerts = snap.alerts(max_queue_depth=2)
        assert len(alerts) == 1
        assert "queue depth 3" in alerts[0]

    def test_stale_heartbeat_names_the_worker(self, fake):
        snap = WatchClient(fake.url).poll()
        alerts = snap.alerts(max_heartbeat_age=30.0)
        assert len(alerts) == 1
        assert "host:2" in alerts[0]

    def test_unreachable_service_is_not_an_alert(self):
        snap = WatchClient("http://127.0.0.1:9", timeout=0.5).poll()
        assert snap.alerts(max_queue_depth=0, max_heartbeat_age=0.0) == []


class TestFleetSection:
    def test_no_supervisor_no_fleet_line(self, fake):
        snap = WatchClient(fake.url).poll()
        assert snap.fleet is None
        assert "\nfleet " not in render_snapshot(snap)

    def test_supervisor_state_renders_one_line(self, fake):
        snap = WatchClient(fake.url).poll()
        snap.stats = dict(snap.stats)
        snap.stats["fleet"] = {
            "supervisor_id": "host:99", "live_workers": 2,
            "worker_floor": 0, "worker_ceiling": 4,
            "spawns": 5, "retires": 3, "crashes": 1, "zombies_reaped": 0,
            "breaker_open": False, "last_action": "hold",
            "last_reason": "2 worker(s) cover queue depth 3",
        }
        text = render_snapshot(snap)
        assert "fleet   supervisor host:99: 2 live" in text
        assert "5 spawned, 3 retired, 1 crashed" in text
        assert "breaker closed" in text
        assert "last: hold" in text

    def test_open_breaker_is_shouted(self, fake):
        snap = WatchClient(fake.url).poll()
        snap.stats = dict(snap.stats)
        snap.stats["fleet"] = {"supervisor_id": "h:1", "breaker_open": True}
        assert "breaker OPEN" in render_snapshot(snap)


class TestCliAgainstRealServer:
    def run_watch(self, *argv):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.watch", *argv],
            capture_output=True, text=True, timeout=120, env=env)

    def test_once_json_snapshot_is_complete(self, tmp_path):
        server = ServiceServer(data_dir=tmp_path / "svc")
        server.start()
        try:
            proc = self.run_watch("--once", "--json", "--url", server.url)
            assert proc.returncode == 0, proc.stderr
            document = json.loads(proc.stdout)
            assert document["healthy"] is True
            for key in ("queue", "counters", "fractions", "rates",
                        "workers", "campaigns", "stats"):
                assert key in document
            assert document["queue"] == {"queued": 0, "leased": 0,
                                         "done": 0, "failed": 0}
        finally:
            server.shutdown()

    def test_once_plain_renders_and_exits_nonzero_when_down(self):
        proc = self.run_watch("--once", "--url", "http://127.0.0.1:9",
                              "--timeout", "0.5")
        assert proc.returncode == 1
        assert "UNREACHABLE" in proc.stdout

    def test_json_without_once_is_an_error(self):
        proc = self.run_watch("--json")
        assert proc.returncode == 2
        assert "--json requires --once" in proc.stderr

    def test_alert_flags_require_once(self):
        proc = self.run_watch("--alert-queue-depth", "5")
        assert proc.returncode == 2
        assert "--alert-* thresholds require --once" in proc.stderr

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e300"])
    def test_interval_must_be_positive_and_bounded(self, value, capsys):
        # the live loop would crash in time.sleep after its first redraw
        with pytest.raises(SystemExit) as excinfo:
            watch_main(["--interval", value, "--url", "http://127.0.0.1:9"])
        assert excinfo.value.code == 2
        assert "must be a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2", "nan", "inf", "1e300"])
    def test_timeout_must_be_positive_and_bounded(self, value, capsys):
        # a zero socket timeout reports a live front end as unreachable,
        # and one past time_t crashes the poll with OverflowError
        with pytest.raises(SystemExit) as excinfo:
            watch_main(["--once", "--timeout", value,
                        "--url", "http://127.0.0.1:9"])
        assert excinfo.value.code == 2
        assert "must be a positive number" in capsys.readouterr().err

    def test_alert_violation_exits_2_with_reason(self, fake):
        proc = self.run_watch("--once", "--url", fake.url,
                              "--alert-queue-depth", "2")
        assert proc.returncode == 2, proc.stderr
        assert "ALERT: queue depth 3" in proc.stderr

    def test_alert_thresholds_holding_exit_0(self, fake):
        proc = self.run_watch("--once", "--url", fake.url,
                              "--alert-queue-depth", "3",
                              "--alert-heartbeat-age", "60")
        assert proc.returncode == 0, proc.stderr
        assert "ALERT" not in proc.stderr

    def test_token_is_sent_as_bearer_auth(self, tmp_path):
        server = ServiceServer(data_dir=tmp_path / "svc",
                               auth_token="hunter2")
        server.start()
        try:
            denied = self.run_watch("--once", "--url", server.url)
            # /metrics stays open but /stats bounces: the poll degrades
            assert denied.returncode == 1
            allowed = self.run_watch("--once", "--json", "--url", server.url,
                                     "--token", "hunter2")
            assert allowed.returncode == 0, allowed.stderr
            assert json.loads(allowed.stdout)["healthy"] is True
        finally:
            server.shutdown()
