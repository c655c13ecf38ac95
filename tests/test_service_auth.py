"""Bearer-token auth and restart-durable campaign records.

Two service-hardening behaviors share this module because both are
about a front end you can trust to come and go: requests without the
shared secret bounce with 401 (except the probe routes operators and
Prometheus need open), and campaign records live in the broker so a
restarted front end keeps serving ``GET /campaigns/<id>`` -- including
the NDJSON stream -- with byte-identical terminal payloads.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.server import ServiceServer

TOKEN = "s3cret-fleet-token"


@pytest.fixture(autouse=True)
def fast_stream_poll(monkeypatch):
    monkeypatch.setattr(ServiceServer, "POLL_INTERVAL", 0.05)


def http(url, body=None, token=None, timeout=30.0):
    """(status, document) with optional bearer token."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, json.loads(body) if body else {}


@pytest.fixture
def secured(tmp_path):
    server = ServiceServer(data_dir=tmp_path / "svc", auth_token=TOKEN)
    server.start()
    yield server
    server.shutdown()


SCENARIO = {"name": "s", "circuit": {"factory": "rc_ladder",
                                     "params": {"num_segments": 4}},
            "method": "er", "options": {"t_stop": 0.05e-9}}


class TestBearerAuth:
    def test_missing_token_is_401(self, secured):
        status, document = http(f"{secured.url}/stats")
        assert status == 401
        assert "bearer" in document["error"].lower()

    def test_wrong_token_is_401(self, secured):
        status, _ = http(f"{secured.url}/stats", token="wrong")
        assert status == 401
        status, _ = http(f"{secured.url}/scenarios",
                         {"scenario": SCENARIO}, token="wrong")
        assert status == 401

    def test_correct_token_passes(self, secured):
        status, document = http(f"{secured.url}/stats", token=TOKEN)
        assert status == 200
        assert "broker" in document

    def test_healthz_and_metrics_stay_open(self, secured):
        status, document = http(f"{secured.url}/healthz")
        assert status == 200 and document["ok"] is True
        request = urllib.request.Request(f"{secured.url}/metrics")
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.status == 200
            text = response.read().decode()
        assert "repro_server_requests_total" in text

    def test_auth_failures_are_counted(self, secured):
        http(f"{secured.url}/stats", token="wrong")
        http(f"{secured.url}/stats", token="wrong")
        request = urllib.request.Request(f"{secured.url}/metrics")
        with urllib.request.urlopen(request, timeout=30.0) as response:
            text = response.read().decode()
        for line in text.splitlines():
            if line.startswith("repro_server_auth_failures_total"):
                assert float(line.rsplit(" ", 1)[1]) >= 2
                break
        else:
            raise AssertionError("auth-failure counter not exported")

    def test_open_server_ignores_authorization_header(self, tmp_path):
        server = ServiceServer(data_dir=tmp_path / "open")
        server.start()
        try:
            status, _ = http(f"{server.url}/stats", token="anything")
            assert status == 200
        finally:
            server.shutdown()


class TestCampaignPersistence:
    def wait_done(self, server, job_ids, deadline=120.0):
        import time
        end = time.time() + deadline
        while time.time() < end:
            depth = server.broker.depth()
            if depth["queued"] == 0 and depth["leased"] == 0:
                return
            time.sleep(0.1)
        raise AssertionError("campaign did not finish")

    def test_restarted_front_end_serves_identical_campaigns(self, tmp_path):
        from repro.campaign.backends._spawn import (
            spawn_module_worker,
            terminate_workers,
        )

        data = tmp_path / "svc"
        first = ServiceServer(data_dir=data)
        first.start()
        workers = [spawn_module_worker(
            "repro.service.worker",
            ["--data", str(data), "--exit-when-idle"])]
        try:
            status, submitted = http(f"{first.url}/campaigns", {
                "scenarios": [SCENARIO,
                              dict(SCENARIO, name="t",
                                   circuit={"factory": "rc_ladder",
                                            "params": {"num_segments": 5}})],
                "base_options": {"t_stop": 0.1e-9, "h_init": 2e-12,
                                 "store_states": False},
            })
            assert status == 202
            campaign_id = submitted["campaign_id"]
            self.wait_done(first, submitted["jobs"].values())

            status, before = http(f"{first.url}/campaigns/{campaign_id}")
            assert status == 200 and before["finished"] is True

            stream_url = f"/campaigns/{campaign_id}/stream"
            with urllib.request.urlopen(first.url + stream_url,
                                        timeout=60.0) as response:
                stream_before = response.read()
        finally:
            first.shutdown()
            terminate_workers(workers)

        # a brand-new front end process on the same data directory
        second = ServiceServer(data_dir=data)
        second.start()
        try:
            status, after = http(f"{second.url}/campaigns/{campaign_id}")
            assert status == 200
            assert after == before, "terminal payload must survive restart"

            with urllib.request.urlopen(second.url + stream_url,
                                        timeout=60.0) as response:
                assert response.read() == stream_before

            status, index = http(f"{second.url}/campaigns")
            assert campaign_id in {c["campaign_id"]
                                   for c in index["campaigns"]}
        finally:
            second.shutdown()

    def test_unknown_campaign_is_404_after_restart(self, tmp_path):
        data = tmp_path / "svc"
        first = ServiceServer(data_dir=data)
        first.start()
        first.shutdown()

        second = ServiceServer(data_dir=data)
        second.start()
        try:
            status, document = http(
                f"{second.url}/campaigns/deadbeef0000")
            assert status == 404
            assert "unknown campaign" in document["error"]
            assert "deadbeef0000" in document["error"]

            status, document = http(
                f"{second.url}/campaigns/deadbeef0000/stream")
            assert status == 404
        finally:
            second.shutdown()
