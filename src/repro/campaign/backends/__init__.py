"""Pluggable campaign execution backends.

One contract (:class:`~repro.campaign.backends.base.ExecutionBackend`),
three transports:

* :class:`~repro.campaign.backends.local.SerialBackend` -- in-process,
  the determinism oracle and single-core fallback;
* :class:`~repro.campaign.backends.local.ProcessPoolBackend` -- the
  multi-core default, one OS process per worker;
* :class:`~repro.campaign.backends.queue.QueueBackend` -- durable jobs
  on a :class:`~repro.service.broker.JobBroker` queue, executed by
  ``python -m repro.service worker`` processes that attach to the broker
  and persist across campaigns (lease expiry redelivers the jobs of
  crashed workers).

:func:`resolve_backend` maps the user-facing names to instances.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.campaign.backends.base import (
    DeliverFn,
    ExecutionBackend,
    WorkItem,
)
from repro.campaign.backends.local import (
    ProcessPoolBackend,
    SerialBackend,
    default_workers,
)
from repro.campaign.backends.queue import QueueBackend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "QueueBackend",
    "resolve_backend",
    "default_workers",
    "BACKEND_NAMES",
    "DeliverFn",
    "WorkItem",
]

#: user-facing backend names accepted by :func:`resolve_backend` (and the
#: CLIs); "pool" is an alias for "process"
BACKEND_NAMES = ("serial", "process", "pool", "queue")


def _check_workers(workers: Optional[int]) -> None:
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1 (or None for one per core), "
                         f"not {workers}")


def resolve_backend(
    backend: Union[str, ExecutionBackend, None],
    workers: Optional[int] = None,
    num_scenarios: Optional[int] = None,
) -> ExecutionBackend:
    """Turn a backend name (or instance) into a ready instance.

    ``"auto"`` (and ``None``) picks the process pool when more than one
    worker is useful for ``num_scenarios``, the serial backend otherwise
    -- the default when no backend is named.

    A ready instance passes through; an explicit ``workers`` count fills
    the instance's worker bound only when the instance left it unset
    (instance configuration wins over the call-site convenience arg).

    ``workers``, and the worker bound of a ready instance, is ``None``
    (one per core) or at least 1; anything else raises
    :class:`ValueError`.
    """
    _check_workers(workers)
    if isinstance(backend, ExecutionBackend):
        if workers is not None and getattr(backend, "workers", workers) is None:
            backend.workers = workers
        # a negative queue-backend bound would spawn no worker and wait forever
        _check_workers(getattr(backend, "workers", None))
        return backend
    name = (backend or "auto").strip().lower()
    if name == "auto":
        useful = workers if workers is not None else \
            default_workers(num_scenarios if num_scenarios is not None else 1)
        if useful > 1 and (num_scenarios is None or num_scenarios > 1):
            return ProcessPoolBackend(workers=workers)
        return SerialBackend()
    if name == "serial":
        return SerialBackend()
    if name in ("process", "pool"):
        return ProcessPoolBackend(workers=workers)
    if name == "queue":
        return QueueBackend(workers=workers)
    raise ValueError(
        f"unknown backend {backend!r}; expected auto|{'|'.join(BACKEND_NAMES)} "
        f"or an ExecutionBackend instance"
    )
