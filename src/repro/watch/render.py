"""Plain-text fleet rendering: the stdlib half of the dashboard.

Renders a :class:`~repro.watch.client.FleetSnapshot` as aligned tables
plus unicode sparklines.  This is the one renderer of fleet status,
behind ``--once`` and the live redraw loop alike -- so its output is
deliberately stable and line-oriented (tests assert on it, CI archives
it).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.reporting.tables import format_table
from repro.watch.client import FleetSnapshot

__all__ = ["sparkline", "render_snapshot"]

#: eight-level block characters, lowest to highest
SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A unicode sparkline of the last ``width`` values (empty-safe)."""
    tail = [max(0.0, float(v)) for v in values][-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK_LEVELS[0] * len(tail)
    scale = len(SPARK_LEVELS) - 1
    return "".join(SPARK_LEVELS[int(round(v / top * scale))] for v in tail)


def _age(seconds: Optional[float]) -> str:
    if seconds is None:
        return "NA"
    seconds = max(0.0, float(seconds))
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 5400:
        return f"{seconds / 60:.0f}m"
    if seconds < 48 * 3600:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _rate(value: Optional[float]) -> str:
    if value is None:
        return "NA"
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.1f}"
    return f"{value:.2f}"


def _pct(value: Optional[float]) -> str:
    return "NA" if value is None else f"{100.0 * value:.0f}%"


def render_snapshot(snap: FleetSnapshot, now: Optional[float] = None,
                    spark_width: int = 32) -> str:
    """The full plain-text dashboard for one snapshot."""
    now = snap.ts if now is None else now
    lines: List[str] = []

    # -- header ------------------------------------------------------------------------
    state = "healthy" if snap.healthy else f"UNREACHABLE ({snap.error})"
    uptime = snap.stats.get("uptime_seconds")
    header = f"repro.watch  {snap.url}  [{state}]"
    if uptime is not None:
        header += f"  up {_age(uptime)}"
    lines.append(header)
    lines.append("=" * len(header))
    if not snap.healthy:
        return "\n".join(lines) + "\n"

    # -- queue + admission -------------------------------------------------------------
    queue = snap.queue
    lines.append("")
    lines.append(
        f"queue   {queue['queued']} queued / {queue['leased']} leased / "
        f"{queue['done']} done / {queue['failed']} failed")
    counters = snap.counters
    fractions = snap.fractions()
    lines.append(
        "traffic "
        f"{counters.get('admitted', 0)} admitted, "
        f"{counters.get('coalesced', 0)} coalesced, "
        f"{counters.get('cache_answers', 0)} cache answers "
        f"(saved {_pct(fractions.get('coalesced_or_cached'))}); "
        f"{counters.get('simulations', 0)} simulations, "
        f"{counters.get('worker_cache_hits', 0)} worker cache hits "
        f"(hit rate {_pct(fractions.get('worker_cache_hit'))})")
    if counters.get("late_acks"):
        # acks refused because the lease had expired and the job was
        # redelivered: each one is a simulation that ran twice
        lines.append(f"late    {counters['late_acks']} late acks "
                     "(lease expired before the result)")
    backpressure = snap.stats.get("backpressure") or {}
    if backpressure.get("max_queue_depth") is not None or \
            backpressure.get("rejections"):
        lines.append(
            f"backpressure limit {backpressure.get('max_queue_depth')}, "
            f"{backpressure.get('rejections', 0)} rejected (429)")

    # -- rates + sparklines ------------------------------------------------------------
    lines.append("")
    lines.append("rates")
    for key, label in (("steps_per_sec", "steps/s"),
                       ("simulations_per_sec", "sims/s"),
                       ("lu_per_sec", "LU/s")):
        series = snap.history.get(key, [])
        lines.append(f"  {label:>7} {_rate(snap.rates.get(key)):>8}  "
                     f"{sparkline(series, spark_width)}")

    # -- fleet supervisor (only when one is attached to the broker) --------------------
    fleet = snap.fleet
    if fleet:
        lines.append("")
        breaker = "OPEN" if fleet.get("breaker_open") else "closed"
        lines.append(
            f"fleet   supervisor {fleet.get('supervisor_id', '?')}: "
            f"{fleet.get('live_workers', 0)} live "
            f"(floor {fleet.get('worker_floor', 0)}, "
            f"ceiling {fleet.get('worker_ceiling', 0)}); "
            f"{fleet.get('spawns', 0)} spawned, "
            f"{fleet.get('retires', 0)} retired, "
            f"{fleet.get('crashes', 0)} crashed, "
            f"{fleet.get('zombies_reaped', 0)} reaped; breaker {breaker}")
        if fleet.get("last_action"):
            lines.append(f"        last: {fleet['last_action']} "
                         f"({fleet.get('last_reason', '')})")

    # -- workers -----------------------------------------------------------------------
    lines.append("")
    lines.append(f"workers ({len(snap.workers)})")
    if snap.workers:
        rows = []
        for worker_id in sorted(snap.workers):
            worker = snap.workers[worker_id]
            job = worker.get("current_job")
            rows.append([
                worker_id,
                "busy" if worker.get("busy") else "idle",
                (str(job)[:16] + "…") if job and len(str(job)) > 17 else
                (job or "-"),
                worker.get("num_executed", 0),
                worker.get("num_cache_hits", 0),
                int(worker.get("steps_total", 0)),
                _age(worker.get("heartbeat_age_seconds")),
            ])
        table = format_table(
            ["worker", "state", "job", "executed", "cache hits",
             "steps", "heartbeat"], rows)
        lines.extend("  " + line for line in table.splitlines())
    else:
        lines.append("  (none published a snapshot recently)")

    # -- campaigns ---------------------------------------------------------------------
    lines.append("")
    lines.append(f"campaigns ({len(snap.campaigns)})")
    if snap.campaigns:
        rows = []
        for campaign in snap.campaigns:
            total = int(campaign.get("total", 0))
            done = int(campaign.get("done", 0))
            width = 20
            filled = int(round(width * done / total)) if total else 0
            bar = "#" * filled + "." * (width - filled)
            rows.append([
                campaign.get("campaign_id"),
                f"{done}/{total}",
                bar,
                campaign.get("failed", 0),
                "finished" if campaign.get("finished") else "running",
                _age(now - float(campaign.get("created_at", now))),
            ])
        table = format_table(
            ["campaign", "progress", "", "failed", "state", "age"], rows)
        lines.extend("  " + line for line in table.splitlines())
    else:
        lines.append("  (none tracked by this front end)")

    # -- cache -------------------------------------------------------------------------
    cache = snap.stats.get("cache") or {}
    lines.append("")
    lines.append(f"cache   {cache.get('entries', 0)} entries")
    return "\n".join(lines) + "\n"
