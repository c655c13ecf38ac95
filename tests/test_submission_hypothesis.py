"""Property-based test of the HTTP submission boundary.

Requires ``hypothesis`` (skipped when absent).  Whatever JSON a client
puts into the job-context fields (``base_options``, ``timeout``,
``sample_points``) or ``priority`` of ``POST /scenarios``, or into the
scenario items of ``POST /campaigns``, the front end answers with a
classified status -- 200 (cache), 202 (admitted or coalesced) or 400
(rejected) -- and never with a 5xx; and every scenario it enqueues names
a registered integration method.

Behind the front end, the worker decodes each leased broker row: whatever
JSON a stored job carries as its payload and context, the worker leaves
the job failed, or done with a non-``ok`` outcome, and never raises.
"""

import json
import urllib.error
import urllib.request
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.options import SimOptions  # noqa: E402
from repro.integrators import INTEGRATOR_REGISTRY  # noqa: E402
from repro.service.broker import JobBroker  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402
from repro.service.worker import QueueWorker  # noqa: E402

SCENARIO = {
    "name": "fuzz",
    "circuit": {"factory": "rc_ladder", "params": {"num_segments": 3}},
    "method": "er",
}

#: any JSON value: null, bool, numbers (NaN and infinities included),
#: strings, and nested arrays / objects of those
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)

#: option dicts whose keys are mostly real SimOptions fields, so values
#: reach SimOptions' own checks rather than the unknown-field refusal
OPTION_DICTS = st.dictionaries(
    st.sampled_from([f.name for f in fields(SimOptions)]) | st.text(max_size=8),
    JSON, max_size=4)

#: each field: a value of its declared type (out-of-range ones included)
#: or any JSON value at all
BODIES = st.fixed_dictionaries({"scenario": st.just(SCENARIO)}, optional={
    "base_options": st.none() | OPTION_DICTS | JSON,
    "timeout": st.none() | st.floats() | st.integers() | JSON,
    "sample_points": st.integers() | JSON,
    "priority": st.none() | st.integers() | JSON,
})


#: key/value pairs: what ``dict()`` would turn into a mapping with keys of
#: mixed types
PAIRS = st.lists(st.lists(st.none() | st.integers() | st.text(max_size=4),
                          min_size=2, max_size=2), max_size=3)

#: per scenario field: a valid value, a near miss, or any JSON value at all
SCENARIO_FIELDS = {
    "name": st.text(max_size=8) | JSON,
    "circuit": st.fixed_dictionaries(
        {"factory": st.sampled_from(["rc_ladder", "RC_Ladder", "nope"]) | JSON},
        optional={"params": PAIRS | JSON, "module": JSON}) | JSON,
    "method": st.sampled_from(sorted(INTEGRATOR_REGISTRY) + ["ER", "foo"])
    | JSON,
    "options": OPTION_DICTS | PAIRS | JSON,
    "seed": st.integers() | JSON,
    "observe": JSON,
    "tags": PAIRS | JSON,
}


@st.composite
def scenario_items(draw):
    """Valid scenarios with up to two fields replaced or dropped."""
    items = []
    for index in range(draw(st.integers(0, 3))):
        item = dict(SCENARIO, name=f"s{index}")
        for key in draw(st.sets(st.sampled_from(sorted(SCENARIO_FIELDS)),
                                max_size=2)):
            if draw(st.booleans()):
                item[key] = draw(SCENARIO_FIELDS[key])
            else:
                item.pop(key, None)
        items.append(item)
    return items


#: scenario items, alone or beside arbitrary job-context fields
CAMPAIGN_BODIES = st.fixed_dictionaries({"scenarios": scenario_items()}) | \
    st.fixed_dictionaries(
        {"scenarios": scenario_items() | st.lists(JSON, max_size=2) | JSON},
        optional={
            "base_options": st.none() | OPTION_DICTS | JSON,
            "timeout": st.none() | st.floats() | JSON,
            "sample_points": st.integers() | JSON,
            "priority": st.none() | st.integers() | JSON,
        })


def post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_arbitrary_context_values_never_answer_5xx(tmp_path):
    server = ServiceServer(data_dir=tmp_path / "svc").start()
    try:
        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(body=BODIES)
        def check(body):
            status, document = post(f"{server.url}/scenarios", body)
            assert status in (200, 202, 400), (status, document)

        check()
    finally:
        server.shutdown()


def test_arbitrary_campaign_items_never_answer_5xx(tmp_path):
    server = ServiceServer(data_dir=tmp_path / "svc").start()
    try:
        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(body=CAMPAIGN_BODIES)
        def check(body):
            status, document = post(f"{server.url}/campaigns", body)
            assert status in (200, 202, 400), (status, document)
            if status == 400:
                return
            jobs = server.broker.fetch(list(document["jobs"].values()))
            for job in jobs.values():
                method = job.payload["method"]
                assert method.strip().lower() in INTEGRATOR_REGISTRY, job.payload

        check()
    finally:
        server.shutdown()


#: stored payloads that are no valid scenario: any JSON value, or the
#: scenario with its circuit spec replaced by one
PAYLOADS = JSON | st.builds(lambda circuit: dict(SCENARIO, circuit=circuit),
                            JSON)


def test_arbitrary_stored_rows_never_raise_in_the_worker(tmp_path):
    broker = JobBroker(tmp_path / "broker.sqlite3")
    worker = QueueWorker(broker, lease_seconds=30.0)
    ids = iter(range(10 ** 6))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(payload=PAYLOADS, context=JSON)
    def check(payload, context):
        job_id = f"row-{next(ids)}"
        broker.enqueue(dict(SCENARIO), job_id=job_id)
        # the row as another writer (or a damaged file) may have left it
        with broker._conn() as conn:
            conn.execute("UPDATE jobs SET payload = ?, context = ?"
                         " WHERE id = ?",
                         (json.dumps(payload), json.dumps(context), job_id))
        job = broker.lease(worker.worker_id)
        assert job is not None and job.id == job_id
        worker.process(job)
        stored = broker.get(job_id)
        assert stored.status == "failed" or (
            stored.status == "done" and stored.result_status != "ok"), \
            (stored.status, stored.result_status, stored.error)

    check()
