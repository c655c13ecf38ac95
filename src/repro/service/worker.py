"""Queue worker: lease jobs from a broker, simulate, ack the outcome.

A queue worker belongs to the **broker**, not to any one campaign: it
attaches to the service data directory, drains whatever jobs appear --
from the HTTP front end, from ``run_campaign(backend="queue")``, from
another laptop sharing the directory -- and survives across campaigns.
Local workers are best left to the fleet supervisor
(``python -m repro.fleet``); one started by hand is::

    python -m repro.service worker --data ./service-data

Before simulating, the worker consults the shared
:class:`~repro.campaign.cache.ResultCache` under the data directory: a
warm job is acked straight from disk (counted in the broker's
``worker_cache_hits`` counter, surfaced by ``/stats``) and a fresh
``ok`` outcome is stored back for every later request.

While a scenario runs, a daemon thread extends the job's lease
(visibility timeout) so a long simulation is not mistaken for a crash;
a worker that actually dies simply stops extending, the lease expires,
and the broker redelivers the job to a sibling.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
from typing import Optional

from repro import wire
from repro.campaign.cache import ResultCache, context_hash
from repro.campaign.execution import execute_scenario
from repro.campaign.scenario import Scenario
from repro.service.broker import Job, JobBroker
from repro.service import layout
from repro.telemetry import REGISTRY
from repro.telemetry import metrics as telemetry

__all__ = ["QueueWorker", "main"]

_TM_JOBS = telemetry.counter(
    "repro_worker_jobs_total",
    "Jobs this worker finished, by how the outcome was produced.",
    ("outcome",))
_TM_JOB_SECONDS = telemetry.histogram(
    "repro_worker_job_seconds",
    "Wall-clock seconds per executed job (lease to ack, cache hits excluded).")
_TM_IDLE_POLLS = telemetry.counter(
    "repro_worker_idle_polls_total",
    "Idle checks (on a broker commit or every IDLE_POLL) that found no job.")


class QueueWorker:
    """One lease-execute-ack loop around a :class:`JobBroker`."""

    #: seconds between idle heartbeats: this process's metrics registry
    #: published into the broker, where the front end aggregates it
    #: (/stats, /metrics); every job publishes at once as well
    PUBLISH_INTERVAL = 5.0
    #: longest idle wait: a commit (such as the one that queues a job)
    #: ends it sooner; the timer is the fallback that finds expired
    #: leases, which no commit announces
    IDLE_POLL = 0.2

    def __init__(
        self,
        broker: JobBroker,
        cache: Optional[ResultCache] = None,
        worker_id: Optional[str] = None,
        lease_seconds: float = 60.0,
    ):
        self.broker = broker
        self.cache = cache
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.lease_seconds = float(lease_seconds)
        #: jobs this worker actually simulated / answered from cache
        self.num_executed = 0
        self.num_cache_hits = 0
        self.started_at = time.time()
        self.current_job_id: Optional[str] = None
        self._last_publish = 0.0

    # -- one job -----------------------------------------------------------------------

    def process(self, job: Job) -> bool:
        """Execute (or cache-answer) one leased job and ack it.

        Returns whether the ack was accepted -- ``False`` means the
        lease expired under us and the redelivered execution wins.
        """
        try:
            context = wire.decode_job_context(job.context)
        except wire.WireError as exc:
            return self._reject(job, f"invalid job context: {exc}")
        try:
            scenario = Scenario.from_dict(job.payload)
        except (KeyError, TypeError, ValueError) as exc:
            return self._reject(job, f"invalid scenario: {exc}")
        key = context_hash(context)

        outcome = self.cache.get(scenario, key) if self.cache is not None \
            else None
        if outcome is not None:
            self.num_cache_hits += 1
            self.broker.incr("worker_cache_hits")
            _TM_JOBS.labels("cache_hit").inc()
            acked = self.broker.ack(job.id, self.worker_id, outcome)
            self.publish(force=True)
            return acked

        self.current_job_id = job.id
        self.publish(force=True)
        stop_extending = self._keep_lease_alive(job.id)
        started = time.monotonic()
        try:
            outcome = execute_scenario(job.payload, context)
        finally:
            stop_extending()
            self.current_job_id = None
        _TM_JOB_SECONDS.observe(time.monotonic() - started)
        _TM_JOBS.labels("executed").inc()
        self.num_executed += 1
        self.broker.record_runtime()
        if self.cache is not None:
            self.cache.put(scenario, key, outcome)
        acked = self.broker.ack(job.id, self.worker_id, outcome)
        if not acked:
            self.broker.incr("late_acks")
        self.publish(force=True)
        return acked

    def _reject(self, job: Job, error: str) -> bool:
        """Fail a malformed job for good: it is a bad job, not a crash."""
        self.broker.nack(job.id, self.worker_id, error, requeue=False)
        _TM_JOBS.labels("rejected").inc()
        return False

    # -- fleet telemetry ---------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """This worker's published document: identity, state, metrics.

        Encoded as a :class:`repro.wire.WorkerSnapshot` so every reader
        (front end, supervisor, dashboards) validates one schema instead
        of spelunking an ad-hoc dict.
        """
        return wire.encode(wire.WorkerSnapshot(
            worker_id=self.worker_id,
            pid=os.getpid(),
            busy=self.current_job_id is not None,
            current_job=self.current_job_id,
            started_at=self.started_at,
            num_executed=self.num_executed,
            num_cache_hits=self.num_cache_hits,
            # the whole process registry: worker loop metrics AND the
            # integrator/LU/reuse counters incremented by the simulations
            # this process ran -- this is how per-worker integrator
            # telemetry reaches the front end's /metrics
            metrics=REGISTRY.snapshot(),
        ))

    def publish(self, force: bool = False) -> None:
        """Publish the metrics snapshot into the broker (rate-limited)."""
        now = time.monotonic()
        if not force and now - self._last_publish < self.PUBLISH_INTERVAL:
            return
        self._last_publish = now
        self.broker.publish_worker_metrics(
            self.worker_id, self.metrics_snapshot())

    def _keep_lease_alive(self, job_id: str):
        """Extend the lease on a timer while a simulation runs."""
        stop = threading.Event()
        interval = max(0.5, self.lease_seconds / 3.0)

        def _extend() -> None:
            while not stop.wait(interval):
                if not self.broker.extend(job_id, self.worker_id,
                                          self.lease_seconds):
                    return  # lease lost; the ack will be rejected anyway

        thread = threading.Thread(target=_extend, daemon=True)
        thread.start()

        def _stop() -> None:
            stop.set()

        return _stop

    # -- the loop ----------------------------------------------------------------------

    def run_once(self) -> bool:
        """Lease and process at most one job; returns whether one ran."""
        job = self.broker.lease(self.worker_id, self.lease_seconds)
        if job is None:
            return False
        self.process(job)
        return True

    def run(self, exit_when_idle: bool = False) -> int:
        """Drain the queue until stopped.

        ``exit_when_idle`` returns once nothing is queued *and* nothing
        is leased -- a leased job might still come back via lease expiry,
        so a fleet of spawned workers only disbands when the campaign is
        truly finished.  Returns the number of jobs this worker handled.
        """
        handled = 0
        self.publish(force=True)
        with self.broker.watch() as watch:
            while True:
                # read the version before looking: a job committed after
                # this read moves it, and the wait below returns at once
                version = watch.version()
                # a read first: every commit wakes the wait, and only a
                # runnable row is worth a write-locked lease
                if watch.runnable() and self.run_once():
                    handled += 1
                    continue
                _TM_IDLE_POLLS.inc()
                self.publish()  # idle heartbeat, rate-limited
                if exit_when_idle and self.broker.pending() == 0:
                    self.publish(force=True)
                    return handled
                watch.wait(version, self.IDLE_POLL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service worker",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--data", metavar="DIR", default=None,
                        help="service data directory (broker + shared cache)")
    parser.add_argument("--broker", metavar="FILE", default=None,
                        help="broker database path (overrides --data layout)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="shared result-cache directory "
                             "(default: DATA/cache; empty string disables)")
    parser.add_argument("--lease", type=float, default=60.0,
                        help="visibility timeout granted per leased job")
    parser.add_argument("--exit-when-idle", action="store_true",
                        help="exit once nothing is queued or leased")
    parser.add_argument("--worker-id", default=None,
                        help="override the worker identity (host:pid)")
    args = parser.parse_args(argv)

    if args.data is None and args.broker is None:
        parser.error("one of --data or --broker is required")
    broker = JobBroker(args.broker) if args.broker else \
        layout.open_broker(args.data)
    cache: Optional[ResultCache] = None
    if args.cache:
        cache = ResultCache(args.cache)
    elif args.cache is None and args.data is not None:
        cache = layout.open_cache(args.data)

    worker = QueueWorker(broker, cache=cache, worker_id=args.worker_id,
                         lease_seconds=args.lease)
    try:
        # Ctrl-C and kill -INT stop the worker, also when it was started
        # in the background (`&` starts it with SIGINT ignored)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        print(f"worker {worker.worker_id} attached to {broker.path}",
              file=sys.stderr)
        handled = worker.run(exit_when_idle=args.exit_when_idle)
    except KeyboardInterrupt:
        return 0
    print(f"worker {worker.worker_id} idle, exiting "
          f"({handled} jobs handled)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
