"""Broker retention: ``JobBroker.gc`` and ``python -m repro.service gc``.

Retention must only ever touch terminal jobs (done/failed) and stale
worker-metrics rows; queued and leased work is sacred.  The CLI wraps
the same method with human age suffixes (``7d``) and a ``--dry-run``
that must not delete anything.
"""

import json
import time

import pytest

from repro.service.broker import JobBroker


def make_broker(tmp_path, **kwargs):
    return JobBroker(tmp_path / "broker.sqlite", **kwargs)


def finish_job(broker, job_id, when=None, status="ok"):
    """Drive one job to done and optionally backdate its finish time."""
    job = broker.lease("w1", lease_seconds=60.0)
    assert job is not None
    broker.ack(job.id, "w1", {"status": status, "scenario": {}})
    if when is not None:
        with broker._conn() as conn:
            conn.execute("UPDATE jobs SET finished_at=? WHERE id=?",
                         (when, job.id))
    return job.id


class TestBrokerGc:
    def test_age_retention_spares_young_and_active_jobs(self, tmp_path):
        broker = make_broker(tmp_path)
        old = broker.enqueue({"name": "old"}, job_id="old").id
        finish_job(broker, old, when=time.time() - 3600)
        young = broker.enqueue({"name": "young"}, job_id="young").id
        finish_job(broker, young)
        broker.enqueue({"name": "queued"}, job_id="queued")

        report = broker.gc(max_age=60.0)
        assert report["deleted_by_age"] == 1
        assert report["deleted_jobs"] == 1
        assert broker.fetch(["old"]) == {}
        assert broker.fetch(["young"])["young"].status == "done"
        assert broker.depth()["queued"] == 1
        assert broker.counters().get("gc_deleted_jobs") == 1

    def test_keep_retention_keeps_newest_terminal_jobs(self, tmp_path):
        broker = make_broker(tmp_path)
        now = time.time()
        for i in range(5):
            job_id = broker.enqueue({"name": f"j{i}"}, job_id=f"j{i}").id
            finish_job(broker, job_id, when=now - (5 - i))
        report = broker.gc(keep=2)
        assert report["deleted_by_count"] == 3
        assert report["remaining_jobs"] == 2
        remaining = broker.fetch([f"j{i}" for i in range(5)])
        assert sorted(remaining) == ["j3", "j4"]

    def test_dry_run_reports_without_deleting(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.enqueue({"name": "x"}, job_id="x").id
        finish_job(broker, job_id, when=time.time() - 3600)
        report = broker.gc(max_age=60.0, dry_run=True)
        assert report["dry_run"] is True
        assert report["deleted_by_age"] == 1
        assert report["vacuumed"] is False
        assert broker.fetch(["x"])["x"].status == "done"
        assert "gc_deleted_jobs" not in broker.counters()

    def test_stale_worker_metrics_rows_are_pruned(self, tmp_path):
        broker = make_broker(tmp_path)
        broker.publish_worker_metrics("fresh", {"busy": False})
        broker.publish_worker_metrics("stale", {"busy": False})
        with broker._conn() as conn:
            conn.execute(
                "UPDATE worker_metrics SET updated_at=? WHERE worker_id=?",
                (time.time() - 7200, "stale"))
        report = broker.gc()
        assert report["deleted_worker_snapshots"] == 1
        assert list(broker.worker_metrics(max_age=None)) == ["fresh"]

    def test_vacuum_reports_sizes(self, tmp_path):
        broker = make_broker(tmp_path)
        for i in range(20):
            job_id = broker.enqueue({"name": f"v{i}", "blob": "x" * 4096},
                                    job_id=f"v{i}").id
            finish_job(broker, job_id, when=time.time() - 3600)
        report = broker.gc(max_age=60.0, vacuum=True)
        assert report["vacuumed"] is True
        assert report["bytes_before"] >= report["bytes_after"] > 0


    @pytest.mark.parametrize("retention", [
        {"max_age": -3600.0}, {"max_age": float("nan")},
        {"max_age": float("inf")}, {"keep": -2}])
    def test_values_that_would_delete_everything_are_refused(
            self, tmp_path, retention):
        broker = make_broker(tmp_path)
        job_id = broker.enqueue({"name": "r"}, job_id="r").id
        finish_job(broker, job_id, when=time.time() - 60)
        with pytest.raises(ValueError):
            broker.gc(**retention)
        assert broker.fetch(["r"])["r"].status == "done"


class TestGcCli:
    def run_gc(self, argv):
        from repro.service.__main__ import cmd_gc
        return cmd_gc(argv)

    def test_cli_age_suffixes_and_json_report(self, tmp_path, capsys):
        broker = make_broker(tmp_path)
        job_id = broker.enqueue({"name": "c"}, job_id="c").id
        finish_job(broker, job_id, when=time.time() - 2 * 86400)
        rc = self.run_gc(["--broker", str(broker.path),
                          "--max-age", "1d", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deleted_by_age"] == 1
        assert broker.fetch(["c"]) == {}

    def test_cli_requires_some_retention_policy(self, tmp_path):
        broker = make_broker(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            self.run_gc(["--broker", str(broker.path)])
        assert excinfo.value.code != 0

    def test_cli_dry_run_needs_no_policy_and_deletes_nothing(
            self, tmp_path, capsys):
        broker = make_broker(tmp_path)
        job_id = broker.enqueue({"name": "d"}, job_id="d").id
        finish_job(broker, job_id, when=time.time() - 3600)
        rc = self.run_gc(["--broker", str(broker.path), "--max-age", "1m",
                          "--dry-run", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert broker.fetch(["d"])["d"].status == "done"

    def test_parse_age(self):
        from repro.service.__main__ import _parse_age

        assert _parse_age("90") == 90.0
        assert _parse_age("30s") == 30.0
        assert _parse_age("5m") == 300.0
        assert _parse_age("2h") == 7200.0
        assert _parse_age("7d") == 7 * 86400.0
        with pytest.raises(ValueError):
            _parse_age("nope")
        for bad in ("-1h", "-5", "7x", "nan", "infd", "1e400", ""):
            with pytest.raises(ValueError):
                _parse_age(bad)

    @pytest.mark.parametrize("argv", [
        ["--max-age=-1h"], ["--max-age", "7x"], ["--max-age", "inf"],
        ["--keep", "-2"], ["--keep", "-1", "--dry-run"]])
    def test_cli_refuses_ages_and_counts_that_delete_everything(
            self, tmp_path, capsys, argv):
        broker = make_broker(tmp_path)
        job_id = broker.enqueue({"name": "e"}, job_id="e").id
        finish_job(broker, job_id, when=time.time() - 60)
        with pytest.raises(SystemExit) as excinfo:
            self.run_gc(["--broker", str(broker.path), *argv])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert broker.fetch(["e"])["e"].status == "done"
