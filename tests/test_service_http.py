"""End-to-end HTTP tests: live server, two real queue workers, coalescing.

The acceptance test of the service layer: a campaign submitted over
HTTP is executed by worker subprocesses attached to the broker, progress
streams as results land, and a duplicate submission -- in flight or warm
-- performs **zero additional simulations** (asserted via the broker's
``simulations`` counter, which only the workers increment).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign.backends._spawn import (
    spawn_module_worker,
    terminate_workers,
)
from repro.campaign import CircuitSpec, ResultCache, Scenario, context_hash
from repro.campaign.backends.queue import job_id_for
from repro.core.options import SimOptions
from repro.service.server import ApiError, ServiceServer
from repro.wire import JobContext

FAST_BASE_OPTIONS = {"t_stop": 0.1e-9, "h_init": 2e-12, "store_states": False}


def scenario_body(name="web", segments=4, method="er"):
    return {
        "name": name,
        "circuit": {"factory": "rc_ladder",
                    "params": {"num_segments": segments}},
        "method": method,
        "options": {"t_stop": 0.05e-9},
    }


@pytest.fixture
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(ServiceServer, "POLL_INTERVAL", 0.05)
    server = ServiceServer(data_dir=tmp_path / "svc")
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def fleet(tmp_path):
    """Two real queue workers attached to the service data directory."""
    workers = [
        spawn_module_worker(
            "repro.service.worker",
            ["--data", str(tmp_path / "svc")])
        for _ in range(2)
    ]
    yield workers
    terminate_workers(workers)


def http(url, body=None, timeout=60.0):
    """One JSON round trip; returns (status, document)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_for_result(url, job_id, deadline=120.0):
    import time

    end = time.time() + deadline
    while time.time() < end:
        status, document = http(f"{url}/jobs/{job_id}/result")
        if status == 200:
            return document
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish within {deadline}s")


class TestSubmitAndCoalesce:
    def test_campaign_over_http_with_duplicate_submits_zero_extra_sims(
            self, service, fleet):
        url = service.url
        campaign_body = {
            "scenarios": [scenario_body("a", 4), scenario_body("b", 5)],
            "base_options": FAST_BASE_OPTIONS,
        }
        status, first = http(f"{url}/campaigns", campaign_body)
        assert status == 202
        assert first["total"] == 2 and first["admitted"] == 2

        # duplicate of an *in-flight* campaign: every scenario coalesces
        status, dup = http(f"{url}/campaigns", campaign_body)
        assert status == 202
        assert dup["admitted"] == 0
        assert dup["coalesced"] + dup["cached"] == 2
        # ...onto the very same job ids
        assert dup["jobs"] == first["jobs"]

        for job_id in first["jobs"].values():
            result = wait_for_result(url, job_id)
            assert result["status"] == "ok"

        _, stats = http(f"{url}/stats")
        sims = stats["counters"]["simulations"]
        assert sims == 2, "each admitted scenario simulates exactly once"

        # duplicate of a *finished* campaign: answered from the result
        # cache at admission time, still zero extra simulations
        status, warm = http(f"{url}/campaigns", campaign_body)
        assert warm["cached"] == 2 and warm["admitted"] == 0
        _, stats = http(f"{url}/stats")
        assert stats["counters"]["simulations"] == sims
        assert stats["counters"]["cache_answers"] >= 2

    def test_single_scenario_roundtrip_and_warm_answer(self, service, fleet):
        url = service.url
        body = {"scenario": scenario_body("solo", 6),
                "base_options": FAST_BASE_OPTIONS}
        status, document = http(f"{url}/scenarios", body)
        assert status == 202
        assert document["decision"] == "admitted"
        result = wait_for_result(url, document["job_id"])
        assert result["status"] == "ok"
        assert result["summary"]["completed"] is True

        # warm resubmit answers inline (200, result embedded, no job)
        status, warm = http(f"{url}/scenarios", body)
        assert status == 200
        assert warm["decision"] == "cache"
        assert warm["result"]["status"] == "ok"

    def test_job_id_is_pinned(self, service, tmp_path):
        """Job ids and cache keys of one fixed scenario and context, as
        the releases before them computed: existing cache directories and
        broker rows keep hitting."""
        pinned = ("4b605eb0235cb679d8ee675d038e02b6a60917af46ed0f410799dbcf"
                  "49ec0f9d-4f906a7ae612106a")
        scenario = Scenario(name="pin", method="er", circuit=CircuitSpec(
            "rc_ladder", {"num_segments": 4}))
        options = SimOptions(**FAST_BASE_OPTIONS).to_dict()
        context = JobContext(base_options=options, timeout=5.0,
                             sample_points=11)
        assert job_id_for(scenario.to_dict(), context) == pinned
        assert ResultCache(tmp_path).key(
            scenario, context_hash(context)) == pinned
        # partial base options over HTTP are spelled out to the same key
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario.to_dict(), "base_options": FAST_BASE_OPTIONS,
            "sample_points": 11})
        assert status == 202
        assert document["job_id"] == pinned

    def test_stream_emits_one_event_per_scenario_then_summary(
            self, service, fleet):
        url = service.url
        status, submitted = http(f"{url}/campaigns", {
            "scenarios": [scenario_body("s1", 4), scenario_body("s2", 5)],
            "base_options": FAST_BASE_OPTIONS,
        })
        events = []
        with urllib.request.urlopen(url + submitted["stream_url"],
                                    timeout=120.0) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            for line in response:
                events.append(json.loads(line))
        assert [e["event"] for e in events[:-1]] == ["result"] * 2
        assert {e["name"] for e in events[:-1]} == {"s1", "s2"}
        assert events[-1]["event"] == "end"
        assert events[-1]["finished"] is True
        assert events[-1]["done"] == 2


class TestValidationAndErrors:
    def test_invalid_scenario_is_400(self, service):
        status, document = http(f"{service.url}/scenarios",
                                {"scenario": {"circuit": {}}})
        assert status == 400
        assert "invalid scenario" in document["error"]

    def test_invalid_base_options_is_400(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": {"no_such_option": 1},
        })
        assert status == 400
        assert "base_options" in document["error"]

    @pytest.mark.parametrize("h_max", [0, -1e-12])
    def test_non_positive_h_max_is_400_not_a_hung_job(self, service, h_max):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": {"t_stop": 1e-10, "h_init": 1e-12, "h_max": h_max},
        })
        assert status == 400
        assert "h_max must be positive" in document["error"]

    def test_retired_option_with_changed_value_is_400(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": dict(FAST_BASE_OPTIONS, cache_linearization=False),
        })
        assert status == 400
        assert "cache_linearization" in document["error"]

    def test_retired_bypass_tol_decodes_only_at_zero(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": dict(FAST_BASE_OPTIONS, bypass_tol=0.05),
        })
        assert status == 400
        assert "bypass_tol" in document["error"]
        status, _ = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": dict(FAST_BASE_OPTIONS, bypass_tol=0.0),
        })
        assert status == 202

    def test_negative_gshunt_is_400(self, service):
        # accepted, it would simulate an active circuit and report success;
        # the shunt is retired, so only its fixed value 0 decodes
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": dict(FAST_BASE_OPTIONS, gshunt=-1e-4),
        })
        assert status == 400
        assert "'gshunt' is retired" in document["error"]

    def test_retired_nested_newton_value_is_400(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": dict(FAST_BASE_OPTIONS, newton={"max_iterations": 9}),
        })
        assert status == 400
        assert "'newton.max_iterations' is retired" in document["error"]
        status, _ = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(),
            "base_options": dict(FAST_BASE_OPTIONS, newton={"max_iterations": 50}),
        })
        assert status == 202

    def test_invalid_priority_is_400(self, service):
        status, document = http(f"{service.url}/scenarios", {
            "scenario": scenario_body(), "priority": "high",
        })
        assert status == 400
        assert "priority" in document["error"]

    @pytest.mark.parametrize("route", ["scenarios", "campaigns"])
    @pytest.mark.parametrize("bad, message", [
        ({"sample_points": 1}, "sample_points"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": 1e12}, "timeout"),
    ])
    def test_invalid_context_is_400_and_enqueues_nothing(
            self, service, route, bad, message):
        body = {"scenario": scenario_body()} if route == "scenarios" \
            else {"scenarios": [scenario_body("a"), scenario_body("b", 5)]}
        status, document = http(f"{service.url}/{route}", dict(body, **bad))
        assert status == 400
        assert message in document["error"]
        assert set(service.broker.depth().values()) == {0}

    @pytest.mark.parametrize("route", ["scenarios", "campaigns"])
    @pytest.mark.parametrize("fields, message", [
        ({"method": "foo"}, "unknown integration method"),
        ({"method": 3}, "method must be a string"),
        ({"circuit": {"factory": "nope"}}, "unknown circuit factory"),
        ({"name": ["d"]}, "name must be a string"),
        ({"circuit": {"factory": "rc_ladder", "module": 5}},
         "module must be a string"),
        # pairs with mixed key types cannot be hashed into a job id
        ({"options": [["t_stop", 1e-10], [1, 2]]}, "options must be a mapping"),
        ({"circuit": {"factory": "rc_ladder", "params": [[1, 2], ["a", 3]]}},
         "params must be a mapping"),
        # neither is coerced: a string is not three node names, and a
        # fractional or boolean seed is not an integer seed
        ({"observe": "abc"}, "observe must be a list"),
        ({"observe": ["n1", 2]}, "node name must be a string"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
    ])
    def test_scenario_that_can_only_fail_is_400_and_enqueues_nothing(
            self, service, route, fields, message):
        scenario = dict(scenario_body("a"), **fields)
        body = {"scenario": scenario} if route == "scenarios" \
            else {"scenarios": [scenario, scenario_body("b", 5)]}
        status, document = http(f"{service.url}/{route}", body)
        assert status == 400
        assert message in document["error"]
        assert set(service.broker.depth().values()) == {0}

    def test_duplicate_names_in_campaign_is_400(self, service):
        status, document = http(f"{service.url}/campaigns", {
            "scenarios": [scenario_body("same"), scenario_body("same", 5)],
        })
        assert status == 400
        assert "unique" in document["error"]

    def test_unknown_job_and_campaign_are_404(self, service):
        assert http(f"{service.url}/jobs/nope")[0] == 404
        assert http(f"{service.url}/jobs/nope/result")[0] == 404
        assert http(f"{service.url}/campaigns/nope")[0] == 404

    def test_unknown_route_is_404(self, service):
        status, document = http(f"{service.url}/teapot")
        assert status == 404
        assert "no route" in document["error"]

    def test_pending_result_is_202(self, service):
        # no workers attached: the job stays queued
        status, document = http(f"{service.url}/scenarios",
                                {"scenario": scenario_body("stuck")})
        assert status == 202
        status, pending = http(f"{service.url}/jobs/{document['job_id']}/result")
        assert status == 202
        assert pending["status"] == "queued"

    def test_api_error_direct(self, service):
        with pytest.raises(ApiError) as excinfo:
            service.submit_scenario({"scenario": "not-a-dict"})
        assert excinfo.value.status == 400


class TestLifecycle:
    def test_shutdown_without_a_serving_thread_returns(self, tmp_path):
        """What ``serve`` runs after Ctrl-C, also when the signal came
        before the serve loop began."""
        server = ServiceServer(data_dir=tmp_path / "svc")
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()


class TestHealthAndStats:
    def test_healthz(self, service):
        status, document = http(f"{service.url}/healthz")
        assert status == 200
        assert document["ok"] is True
        assert set(document["jobs"]) == {"queued", "leased", "done", "failed"}

    def test_stats_shape_and_rendering(self, service):
        http(f"{service.url}/scenarios", {"scenario": scenario_body()})
        status, stats = http(f"{service.url}/stats")
        assert status == 200
        assert stats["broker"]["jobs"]["queued"] == 1
        assert stats["counters"]["admitted"] == 1
        assert set(stats) == {"uptime_seconds", "broker", "counters", "cache",
                              "campaigns", "workers", "fleet", "backpressure"}
        # the watch dashboard renders the same document
        from repro.watch import WatchClient, render_snapshot

        text = render_snapshot(WatchClient(service.url).poll())
        assert "1 queued" in text
        assert "1 admitted" in text and "0 simulations" in text


class TestSubmitCli:
    """Bad ``submit`` input is a usage error (exit 2), never a traceback;
    every case here fails before any request is sent."""

    def run_submit(self, argv):
        from repro.service.__main__ import cmd_submit
        return cmd_submit(["--url", "http://127.0.0.1:9", *argv])

    @pytest.mark.parametrize("flag", ["--params", "--options"])
    def test_malformed_json_argument_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run_submit(["--circuit", "rc_ladder", flag, "{bad"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: not valid JSON" in err and "Traceback" not in err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run_submit(["--file", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--file:" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
    def test_malformed_file_is_a_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "campaign.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            self.run_submit(["--file", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--file:" in err and "Traceback" not in err
