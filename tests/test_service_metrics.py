"""``GET /metrics`` and admission backpressure, end to end.

A live server with one real worker must expose valid Prometheus text
covering the broker, worker, coalescer and integrator-reuse metric
families -- and running one actual job must move the job, cache and
coalescing counters.  Backpressure is exercised with ``max_queue_depth``
forced to zero: every submission bounces with 429 + Retry-After and the
rejection is itself counted.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign.backends._spawn import (
    spawn_module_worker,
    terminate_workers,
)
from repro.service.server import ServiceServer
from repro.telemetry import prometheus

FAST_BASE_OPTIONS = {"t_stop": 0.1e-9, "h_init": 2e-12, "store_states": False}


def scenario_body(name="m", segments=4, method="trapezoidal"):
    return {
        "name": name,
        "circuit": {"factory": "rc_ladder",
                    "params": {"num_segments": segments}},
        "method": method,
        "options": {"t_stop": 0.05e-9},
    }


def http(url, body=None, timeout=60.0):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def scrape(url, timeout=30.0):
    """Fetch and parse /metrics; asserts the content type on the way."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=timeout) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    return text, prometheus.parse_text(text)


def wait_for_result(url, job_id, deadline=120.0):
    end = time.time() + deadline
    while time.time() < end:
        status, document, _ = http(f"{url}/jobs/{job_id}/result")
        if status == 200:
            return document
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish within {deadline}s")


@pytest.fixture
def service(tmp_path):
    server = ServiceServer(data_dir=tmp_path / "svc")
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def fleet(tmp_path):
    workers = [spawn_module_worker(
        "repro.service.worker",
        ["--data", str(tmp_path / "svc")])]
    yield workers
    terminate_workers(workers)


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition_format(self, service):
        text, parsed = scrape(service.url)
        # well-formed: every family re-parses, HELP/TYPE present
        assert parsed.names()
        for name in ("repro_broker_jobs", "repro_service_uptime_seconds",
                     "repro_fleet_worker_up", "repro_service_cache_entries"):
            assert name in text
        assert parsed.types.get("repro_server_requests_total") == "counter"
        assert parsed.total("repro_fleet_worker_up") == 0
        assert parsed.total("repro_broker_jobs") == 0

    def test_live_job_moves_job_cache_and_coalesce_counters(
            self, service, fleet):
        url = service.url
        body = {"scenario": scenario_body(), "base_options": FAST_BASE_OPTIONS}
        status, first, _ = http(f"{url}/scenarios", body)
        assert status == 202
        result = wait_for_result(url, first["job_id"])
        assert result["status"] == "ok"
        # warm duplicate: answered from cache at admission
        status, dup, _ = http(f"{url}/scenarios", body)
        assert status == 200 and dup["decision"] == "cache"
        deadline = time.time() + 30
        while time.time() < deadline:
            text, parsed = scrape(url)
            if parsed.total("repro_worker_jobs_total", outcome="executed") >= 1:
                break
            time.sleep(0.2)

        # broker lifecycle
        assert parsed.total("repro_broker_enqueues_total") >= 1
        assert parsed.total("repro_broker_leases_total") >= 1
        assert parsed.total("repro_broker_acks_total", accepted="yes") >= 1
        assert parsed.value("repro_broker_jobs", status="done") >= 1
        # coalescer admissions: one cold, one warm
        assert parsed.total("repro_coalescer_admissions_total",
                            decision="admitted") >= 1
        assert parsed.total("repro_coalescer_admissions_total",
                            decision="cache") >= 1
        # worker-published integrator metrics, relabeled per worker
        assert parsed.total("repro_integrator_steps_total") > 0
        assert parsed.total("repro_integrator_runs_total", completed="yes") >= 1
        # (other suites may run a QueueWorker in-process, leaving
        # unlabeled samples in this process's registry -- the claim here
        # is that the *published* worker snapshot arrives relabeled)
        worker_samples = parsed.samples["repro_worker_jobs_total"]
        assert any("worker" in labels for labels, _ in worker_samples)
        # fleet gauges see the live worker
        assert parsed.total("repro_fleet_worker_up") == 1
        # durable counters exported with a name label
        assert parsed.value("repro_service_counter_total",
                            name="simulations") >= 1


class TestBackpressure:
    def test_submissions_bounce_with_retry_after(self, tmp_path):
        server = ServiceServer(data_dir=tmp_path / "bp",
                               max_queue_depth=0)
        server.start()
        try:
            url = server.url
            # an empty queue is *at* the limit, not over it: the first
            # submission must still be admitted (the depth-0 regression)
            status, _, _ = http(
                f"{url}/scenarios",
                {"scenario": scenario_body(name="bp-first"),
                 "base_options": FAST_BASE_OPTIONS})
            assert status == 202

            # now one job is queued (no workers drain it), so depth 1 > 0:
            # further submissions bounce with the back-off hint
            status, document, headers = http(
                f"{url}/scenarios",
                {"scenario": scenario_body(name="bp-second"),
                 "base_options": FAST_BASE_OPTIONS})
            assert status == 429
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1
            assert "queue depth" in document["error"]

            status, _, _ = http(f"{url}/campaigns",
                                {"scenarios": [scenario_body(name="bp-camp")],
                                 "base_options": FAST_BASE_OPTIONS})
            assert status == 429

            _, stats, _ = http(f"{url}/stats")
            assert stats["backpressure"]["max_queue_depth"] == 0
            assert stats["backpressure"]["rejections"] == 2
            _, parsed = scrape(url)
            assert parsed.total(
                "repro_server_backpressure_rejections_total") >= 2
        finally:
            server.shutdown()

    def test_depth_below_limit_admits(self, tmp_path):
        server = ServiceServer(data_dir=tmp_path / "ok",
                               max_queue_depth=10)
        server.start()
        try:
            status, document, _ = http(
                f"{server.url}/scenarios",
                {"scenario": scenario_body(),
                 "base_options": FAST_BASE_OPTIONS})
            assert status == 202
        finally:
            server.shutdown()

    def test_depth_exactly_at_limit_admits(self, tmp_path):
        """The boundary case: a queue exactly at --max-queue-depth admits.

        The limit is a capacity, not a fence -- rejection starts strictly
        *over* it.  With a depth limit of 2 and no workers draining, the
        first three distinct submissions see depths 0, 1 and 2 (each at or
        under the limit) and must all land; the fourth sees depth 3 and
        must bounce.  The scenarios differ in ``segments`` (not just name)
        so the coalescer cannot fold them into one queued job.
        """
        server = ServiceServer(data_dir=tmp_path / "edge",
                               max_queue_depth=2)
        server.start()
        try:
            url = server.url
            for index in range(3):
                status, _, _ = http(
                    f"{url}/scenarios",
                    {"scenario": scenario_body(name=f"edge-{index}",
                                               segments=4 + index),
                     "base_options": FAST_BASE_OPTIONS})
                assert status == 202, f"submission at depth {index} must admit"
            status, document, _ = http(
                f"{url}/scenarios",
                {"scenario": scenario_body(name="edge-overflow", segments=17),
                 "base_options": FAST_BASE_OPTIONS})
            assert status == 429
            assert "exceeds the configured limit 2" in document["error"]
            _, stats, _ = http(f"{url}/stats")
            assert stats["backpressure"]["rejections"] == 1
        finally:
            server.shutdown()
