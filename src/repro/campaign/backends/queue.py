"""Broker-backed execution: the ``QueueBackend``.

The queue backend talks to its workers only through the broker: it
enqueues each scenario as a durable job on a
:class:`~repro.service.broker.JobBroker` (a SQLite file any process can
attach to), then reads the results each time a commit to the broker
wakes its :meth:`~repro.service.broker.JobBroker.watch`.  Workers -- spawned locally
by default, or long-lived ``python -m repro.service worker`` processes
attached to a shared broker file or service data directory
(``QueueBackend(broker=PATH, spawn=False)``) -- lease jobs, execute
them and ack the outcomes; they can come and go **across** campaigns.
Workers on other hosts need a filesystem that holds the broker file.

Job identity is the scenario content hash + the campaign context hash --
the same key as the result cache -- so two campaigns sharing one broker
never enqueue the same work twice, and the HTTP front end's coalescing
(:mod:`repro.service.coalesce`) composes with campaigns for free.

Fault model
-----------
* A worker that crashes mid-job stops extending its lease; the job's
  visibility timeout expires and the broker **redelivers** it to the
  next worker that asks, at most ``MAX_ATTEMPTS`` times in total -- a
  poison job is failed by the broker, and the backend converts it into
  an error outcome for its scenario.
* If the spawned fleet has exited (or, with ``spawn=False``, no external
  worker has made progress for ``IDLE_TIMEOUT`` seconds), the remaining
  scenarios are delivered as error outcomes: the campaign finishes,
  degraded, rather than hanging on an empty queue.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.backends._spawn import (
    spawn_module_worker,
    terminate_workers,
    worker_stderr_tail,
)
from repro.campaign.backends.base import (
    DeliverFn,
    ExecutionBackend,
    WorkItem,
)
from repro.campaign.backends.local import _TM_DISPATCHES, default_workers
from repro.campaign.cache import context_hash
from repro.campaign.scenario import scenario_hash
from repro.wire import JobContext, encode

__all__ = ["QueueBackend", "job_id_for"]


def job_id_for(payload: Dict[str, object], context: JobContext) -> str:
    """The broker job id of one work item: scenario hash + context hash.

    Identical to the :class:`~repro.campaign.cache.ResultCache` entry
    key, so a job id can be answered from the cache and a cache entry
    can satisfy a job -- the property the service's coalescing layer is
    built on.  The per-scenario timeout is execution policy and is
    deliberately outside the hash (as it is for the cache).
    """
    return f"{scenario_hash(payload)}-{context_hash(context)}"


class QueueBackend(ExecutionBackend):
    """Execute scenarios as durable jobs on a :class:`JobBroker`."""

    name = "queue"

    #: visibility timeout the spawned workers lease each job for
    LEASE_SECONDS = 30.0
    #: deliveries of one job before the broker fails it
    MAX_ATTEMPTS = 3
    #: seconds between result polls when no commit wakes the poll
    #: earlier (the fleet and idle-timeout checks run at this cadence)
    POLL_INTERVAL = 0.05
    #: with ``spawn=False``: seconds without progress before the remaining
    #: scenarios come back as error outcomes
    IDLE_TIMEOUT = 60.0

    def __init__(
        self,
        broker: Union[str, Path, "JobBroker", None] = None,
        data_dir: Union[str, Path, None] = None,
        workers: Optional[int] = None,
        spawn: bool = True,
    ):
        self.broker = broker
        self.data_dir = data_dir
        self.workers = workers
        self.spawn = spawn
        self._resolved_workers = workers
        self._broker_path: Optional[str] = None

    def _resolve_broker(self, tmp_root: Optional[Path]):
        from repro.service import layout
        from repro.service.broker import JobBroker

        if isinstance(self.broker, JobBroker):
            return self.broker
        if self.broker is not None:
            return JobBroker(self.broker, max_attempts=self.MAX_ATTEMPTS)
        root = Path(self.data_dir) if self.data_dir is not None else tmp_root
        return JobBroker(layout.broker_path(root),
                         max_attempts=self.MAX_ATTEMPTS)

    def execute(self, items: Sequence[WorkItem], context: JobContext,
                deliver: DeliverFn) -> None:
        items = list(items)
        if not items:
            return
        # a self-contained campaign (no broker/data dir given) brokers
        # through a throwaway directory that vanishes with the run
        tmp_root: Optional[Path] = None
        if self.broker is None and self.data_dir is None:
            tmp_root = Path(tempfile.mkdtemp(prefix="repro-queue-"))
        broker = self._resolve_broker(tmp_root)
        self._broker_path = str(broker.path)
        context_data = encode(context)
        payload_by_index = {index: payload for index, payload in items}

        #: job id -> plan indices it answers (identical content coalesces)
        indices_by_job: Dict[str, List[int]] = {}
        #: job ids that already lived in the broker (another campaign's
        #: work, finished or in flight): their outcomes are adoptions
        adopted_jobs = set()
        for position, (index, payload) in enumerate(items):
            job_id = job_id_for(payload, context)
            first_occurrence = job_id not in indices_by_job
            indices_by_job.setdefault(job_id, []).append(index)
            if first_occurrence:
                # earlier plan position -> higher priority, so workers
                # lease in plan order, as the other backends dispatch
                _TM_DISPATCHES.labels(self.name).inc()
                job = broker.enqueue(payload, context=context_data,
                                     priority=len(items) - position,
                                     job_id=job_id,
                                     max_attempts=self.MAX_ATTEMPTS)
                if not job.fresh:
                    adopted_jobs.add(job_id)

        processes = []
        if self.spawn:
            count = self.workers if self.workers else default_workers(len(items))
            self._resolved_workers = count
            worker_args = ["--broker", str(broker.path), "--exit-when-idle",
                           "--lease", str(self.LEASE_SECONDS)]
            if self.data_dir is not None:
                from repro.service import layout
                worker_args += ["--cache",
                                str(layout.cache_root(self.data_dir))]
            processes = [
                spawn_module_worker("repro.service.worker", worker_args)
                for _ in range(count)
            ]

        unfinished = set(indices_by_job)
        last_progress = time.monotonic()
        watch = broker.watch()
        try:
            while unfinished:
                # read before the statuses: an ack committed after it
                # wakes the wait below at once
                version = watch.version()
                # every commit wakes the loop, so it reads statuses and
                # decodes only the rows that finished
                statuses = broker.statuses(unfinished)
                # a live lease (worker heartbeating) is progress
                progressed = "leased" in statuses.values()
                jobs = broker.fetch([job_id for job_id, status in
                                     statuses.items()
                                     if status in ("done", "failed")])
                for job_id, job in jobs.items():
                    if job.status == "done":
                        unfinished.discard(job_id)
                        progressed = True
                        for position, index in enumerate(indices_by_job[job_id]):
                            data = dict(job.result or {})
                            # relabel with *this* campaign's scenario:
                            # name/tags are outside the job identity
                            data["scenario"] = payload_by_index[index]
                            # a job another campaign enqueued -- or the
                            # second delivery of an in-campaign twin --
                            # was not simulated *by this campaign*: mark
                            # it adopted so the runner neither recounts
                            # nor re-records it (worker cache hits keep
                            # their more specific "cache" marker)
                            if data.get("reused_from") is None and \
                                    (job_id in adopted_jobs or position > 0):
                                data["reused_from"] = "queue"
                            deliver(index, data)
                    elif job.status == "failed":
                        unfinished.discard(job_id)
                        progressed = True
                        for index in indices_by_job[job_id]:
                            deliver(index, self.failure_outcome(
                                payload_by_index[index],
                                job.error or "job failed in the broker"))
                if not unfinished:
                    break
                if progressed:
                    last_progress = time.monotonic()
                fleet_alive = any(p.poll() is None for p in processes)
                if self.spawn and processes and not fleet_alive:
                    # workers only exit when nothing is queued or leased;
                    # re-check once more, then fail what truly remains
                    jobs = broker.fetch(list(unfinished))
                    diagnosis = worker_stderr_tail(processes)
                    for job_id in list(unfinished):
                        job = jobs.get(job_id)
                        if job is not None and job.finished:
                            continue  # final poll will pick it up
                        unfinished.discard(job_id)
                        for index in indices_by_job[job_id]:
                            deliver(index, self.failure_outcome(
                                payload_by_index[index],
                                "queue worker fleet exited with the job "
                                "unfinished" + diagnosis))
                    continue
                if not self.spawn and \
                        time.monotonic() - last_progress > self.IDLE_TIMEOUT:
                    for job_id in list(unfinished):
                        unfinished.discard(job_id)
                        for index in indices_by_job[job_id]:
                            deliver(index, self.failure_outcome(
                                payload_by_index[index],
                                f"no queue worker made progress for "
                                f"{self.IDLE_TIMEOUT:g}s"))
                    break
                watch.wait(version, self.POLL_INTERVAL)
        finally:
            watch.close()
            terminate_workers(processes)
            if tmp_root is not None:
                shutil.rmtree(tmp_root, ignore_errors=True)

    def metadata(self) -> Dict[str, object]:
        return {
            "mode": self.name,
            "workers": self._resolved_workers,
            "spawn": self.spawn,
            "broker": self._broker_path,
        }
