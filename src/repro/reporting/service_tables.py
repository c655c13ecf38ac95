"""Service statistics table.

Renders the ``GET /stats`` document of :mod:`repro.service.server` as an
aligned plain-text operations view: queue depth, admission-control
counters (with the coalescing save rate), per-worker digests,
shared-cache size, campaign count and uptime.  ``python -m
repro.service status`` is the CLI wrapper.
"""

from __future__ import annotations

from typing import Dict, List

from repro.reporting.tables import format_table

__all__ = ["service_stats_rows", "render_service_stats"]


def service_stats_rows(stats: Dict[str, object]) -> List[List[object]]:
    """Flatten a ``/stats`` document into ``(section, metric, value)`` rows."""
    rows: List[List[object]] = []
    jobs = (stats.get("broker") or {}).get("jobs", {})
    for status in ("queued", "leased", "done", "failed"):
        rows.append(["queue", status, jobs.get(status, 0)])

    counters = stats.get("counters") or {}
    admitted = int(counters.get("admitted", 0))
    coalesced = int(counters.get("coalesced", 0))
    cached = int(counters.get("cache_answers", 0))
    submissions = admitted + coalesced + cached
    rows += [
        ["admission", "submissions", submissions],
        ["admission", "admitted", admitted],
        ["admission", "coalesced (in flight)", coalesced],
        ["admission", "answered from cache", cached],
    ]
    if submissions:
        rows.append(["admission", "saved fraction",
                     (coalesced + cached) / submissions])
    rows += [
        ["workers", "simulations", counters.get("simulations", 0)],
        ["workers", "cache hits", counters.get("worker_cache_hits", 0)],
    ]
    if counters.get("late_acks"):
        rows.append(["workers", "late acks", counters["late_acks"]])

    backpressure = stats.get("backpressure") or {}
    if backpressure.get("max_queue_depth") is not None or \
            backpressure.get("rejections"):
        rows += [
            ["backpressure", "max queue depth",
             backpressure.get("max_queue_depth")],
            ["backpressure", "rejections (429)",
             backpressure.get("rejections", 0)],
        ]

    # per-worker digests only exist when at least one worker published a
    # metrics snapshot recently (older documents have no "workers" key)
    workers = stats.get("workers") or {}
    for worker_id in sorted(workers):
        worker = workers[worker_id]
        state = "busy" if worker.get("busy") else "idle"
        rows.append(["fleet", worker_id,
                     f"{state}, {worker.get('num_executed', 0)} executed, "
                     f"{worker.get('num_cache_hits', 0)} cache hits"])

    cache = stats.get("cache") or {}
    rows.append(["cache", "entries", cache.get("entries", 0)])
    rows.append(["service", "campaigns", stats.get("campaigns", 0)])
    uptime = stats.get("uptime_seconds")
    if uptime is not None:
        rows.append(["service", "uptime (s)", uptime])
    return rows


def render_service_stats(stats: Dict[str, object]) -> str:
    """Render the ``/stats`` document as an aligned plain-text table."""
    return format_table(["section", "metric", "value"],
                        service_stats_rows(stats))
