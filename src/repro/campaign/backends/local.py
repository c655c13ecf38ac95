"""Local execution backends: in-process serial and process pool.

``SerialBackend`` runs the *identical* scenario-execution function in the
parent process, which makes it both the fallback for single-core machines
and the oracle for determinism tests.  ``ProcessPoolBackend`` ships each
payload to a :class:`concurrent.futures.ProcessPoolExecutor` worker;
workers keep the per-process assembly/DC caches of
:mod:`repro.campaign.execution` warm across the scenarios they execute.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Optional, Sequence

from repro.campaign.backends.base import (
    DeliverFn,
    ExecutionBackend,
    WorkItem,
)
from repro.campaign.execution import execute_scenario, reset_worker_caches
from repro.telemetry import metrics as telemetry
from repro.wire import JobContext

__all__ = ["SerialBackend", "ProcessPoolBackend", "default_workers"]

#: shared by every backend: one increment per scenario handed to an
#: executor (the queue backend counts enqueues)
_TM_DISPATCHES = telemetry.counter(
    "repro_campaign_dispatches_total",
    "Scenarios dispatched to an execution backend.", ("backend",))


def default_workers(num_scenarios: int) -> int:
    """Worker count: one per core, never more than there are scenarios."""
    return max(1, min(os.cpu_count() or 1, num_scenarios))


class SerialBackend(ExecutionBackend):
    """Execute scenarios one by one in the calling process."""

    name = "serial"

    def execute(self, items: Sequence[WorkItem], context: JobContext,
                deliver: DeliverFn) -> None:
        # mirror the lifetime of a spawned worker's caches: fresh per campaign
        reset_worker_caches()
        for index, payload in items:
            _TM_DISPATCHES.labels(self.name).inc()
            deliver(index, execute_scenario(payload, context))

    def metadata(self) -> Dict[str, object]:
        return {"mode": self.name, "workers": 1}


class ProcessPoolBackend(ExecutionBackend):
    """Execute scenarios on a :class:`ProcessPoolExecutor`.

    A worker that dies (or a payload that fails to pickle) surfaces as an
    error outcome for its scenario; the rest of the campaign continues.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers
        self._resolved_workers = workers

    def pool_size(self, num_items: int) -> int:
        return self.workers if self.workers else default_workers(num_items)

    def execute(self, items: Sequence[WorkItem], context: JobContext,
                deliver: DeliverFn) -> None:
        workers = self.pool_size(len(items))
        self._resolved_workers = workers
        with ProcessPoolExecutor(max_workers=workers) as pool:
            _TM_DISPATCHES.labels(self.name).inc(len(items))
            pending = {
                pool.submit(execute_scenario, payload, context): (index, payload)
                for index, payload in items
            }
            while pending:
                finished, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for future in finished:
                    index, payload = pending.pop(future)
                    try:
                        data = future.result()
                    except Exception as exc:  # worker death / pickling failure
                        data = self.failure_outcome(
                            payload, f"{type(exc).__name__}: {exc}")
                    deliver(index, data)

    def metadata(self) -> Dict[str, object]:
        return {"mode": self.name, "workers": self._resolved_workers}
