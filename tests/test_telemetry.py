"""The metrics core: registry semantics, thread safety, exposition format.

The telemetry package is dependency-free and sits on hot paths, so its
contract is narrow and tested hard: registration is idempotent with
loud mismatches, concurrent increments never lose counts, and the
Prometheus renderer round-trips through its own parser (which is what
the watch client consumes).
"""

import math
import threading

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.prometheus import (
    labeled,
    make_family,
    merge,
    parse_text,
    render_text,
)


class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        family = registry.counter("jobs_total", "Jobs.")
        family.inc()
        family.inc(2.5)
        snap = registry.snapshot()
        assert snap["jobs_total"]["samples"][0]["value"] == 3.5
        with pytest.raises(ValueError):
            family.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Queue depth.")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert registry.snapshot()["depth"]["samples"][0]["value"] == 8

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", "Latency.",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        sample = registry.snapshot()["latency_seconds"]["samples"][0]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)
        buckets = dict((bound, n) for bound, n in sample["buckets"])
        assert buckets[0.1] == 1
        assert buckets[1.0] == 2
        assert buckets[math.inf] == 3

    def test_labels_create_distinct_children(self):
        registry = MetricsRegistry()
        family = registry.counter("acks_total", "Acks.", ("accepted",))
        family.labels("yes").inc(3)
        family.labels(accepted="no").inc()
        samples = {tuple(s["labels"].items()): s["value"]
                   for s in registry.snapshot()["acks_total"]["samples"]}
        assert samples[(("accepted", "yes"),)] == 3
        assert samples[(("accepted", "no"),)] == 1

    def test_unlabeled_convenience_raises_on_labeled_family(self):
        registry = MetricsRegistry()
        family = registry.counter("acks_total", "Acks.", ("accepted",))
        with pytest.raises(ValueError):
            family.inc()

    def test_reregistration_is_idempotent_but_mismatch_raises(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "Jobs.", ("kind",))
        again = registry.counter("jobs_total", "Jobs.", ("kind",))
        assert again is first
        with pytest.raises(ValueError):
            registry.gauge("jobs_total", "Jobs.")
        with pytest.raises(ValueError):
            registry.counter("jobs_total", "Jobs.", ("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("1bad", "Bad.")
        with pytest.raises(ValueError):
            registry.counter("has-dash", "Bad.")

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        family = registry.counter("hammer_total", "Hammered.", ("thread",))
        hist = registry.histogram("hammer_seconds", "Hammered.",
                                  buckets=DEFAULT_BUCKETS)
        per_thread, threads = 10_000, 8

        def worker(tid):
            child = family.labels(str(tid))
            for i in range(per_thread):
                child.inc()
                hist.observe(0.001 * (i % 7))

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        snap = registry.snapshot()
        total = sum(s["value"] for s in snap["hammer_total"]["samples"])
        assert total == per_thread * threads
        assert snap["hammer_seconds"]["samples"][0]["count"] == \
            per_thread * threads


class TestPrometheusText:
    def registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_jobs_total", "Jobs by outcome.",
                                   ("outcome",))
        counter.labels("ok").inc(5)
        counter.labels("failed").inc(1)
        registry.gauge("repro_depth", "Queue depth.").set(3)
        hist = registry.histogram("repro_run_seconds", "Runtime.",
                                  buckets=(0.5, 2.0))
        hist.observe(0.1)
        hist.observe(1.0)
        return registry

    def test_render_parse_round_trip(self):
        text = render_text(self.registry().snapshot())
        parsed = parse_text(text)
        assert parsed.types["repro_jobs_total"] == "counter"
        assert parsed.value("repro_jobs_total", outcome="ok") == 5
        assert parsed.total("repro_jobs_total") == 6
        assert parsed.value("repro_depth") == 3
        assert parsed.value("repro_run_seconds_count") == 2
        assert parsed.value("repro_run_seconds_sum") == pytest.approx(1.1)
        assert parsed.value("repro_run_seconds_bucket", le="0.5") == 1
        assert parsed.value("repro_run_seconds_bucket", le="+Inf") == 2

    def test_exposition_format_shape(self):
        text = render_text(self.registry().snapshot())
        lines = text.splitlines()
        assert "# HELP repro_jobs_total Jobs by outcome." in lines
        assert "# TYPE repro_jobs_total counter" in lines
        assert 'repro_jobs_total{outcome="ok"} 5' in lines
        assert text.endswith("\n")
        # every non-comment line is `name{labels} value` or `name value`
        for line in lines:
            if line and not line.startswith("#"):
                assert " " in line

    def test_label_escaping_round_trips(self):
        family = make_family("weird_total", "counter", 'Help with \\ and "q".',
                             [({"path": 'a\\b"c\nd'}, 1.0)])
        parsed = parse_text(render_text(family))
        assert parsed.value("weird_total", path='a\\b"c\nd') == 1.0

    def test_labeled_and_merge(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.").inc(2)
        relabeled = labeled(registry.snapshot(), worker="w1")
        extra = make_family("x_total", "counter", "X.", [({"worker": "w2"}, 7.0)])
        parsed = parse_text(render_text(merge(relabeled, extra)))
        assert parsed.value("x_total", worker="w1") == 2
        assert parsed.value("x_total", worker="w2") == 7
        assert parsed.total("x_total") == 9


class TestBackendDispatchCounter:
    def test_serial_backend_counts_dispatches(self, monkeypatch):
        from repro.campaign.backends import local as local_backends

        monkeypatch.setattr(
            local_backends, "execute_scenario",
            lambda payload, *args: {"status": "ok", "scenario": payload})
        family = local_backends._TM_DISPATCHES
        snap_before = family.snapshot()
        before = sum(s["value"] for s in snap_before["samples"]
                     if s["labels"].get("backend") == "serial")

        backend = local_backends.SerialBackend()
        delivered = {}
        from repro.wire import JobContext
        context = JobContext(sample_points=11)
        backend.execute([(0, {"name": "a"}), (1, {"name": "b"})], context,
                        lambda index, data: delivered.__setitem__(index, data))
        assert set(delivered) == {0, 1}
        snap_after = family.snapshot()
        after = sum(s["value"] for s in snap_after["samples"]
                    if s["labels"].get("backend") == "serial")
        assert after - before == 2
