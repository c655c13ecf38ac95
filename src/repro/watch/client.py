"""Polling client layer of the watch dashboard.

The client wraps the service's observability surface -- ``/healthz``,
``/stats``, ``/metrics`` and ``/campaigns`` -- behind one call,
:meth:`WatchClient.poll`, which returns a :class:`FleetSnapshot`.  Rates
(steps/sec, simulations/sec) cannot be read off any single scrape; the client keeps a bounded history of
counter readings and differentiates successive polls, so a snapshot
carries both the instantaneous fleet state and short rate series ready
for sparklines.

Everything here is stdlib (``urllib``): the watch dashboard must attach
to any deployment without installing anything.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.telemetry.prometheus import ParsedMetrics, parse_text

__all__ = ["WatchClient", "FleetSnapshot", "WatchError"]

#: rate samples kept for sparklines (one per poll)
HISTORY_LENGTH = 120


class WatchError(RuntimeError):
    """The service could not be reached or answered malformed data."""


@dataclass
class FleetSnapshot:
    """One digested view of the fleet (the unit the renderers consume)."""

    url: str
    ts: float
    healthy: bool
    #: raw ``/stats`` document (queue depth, counters, workers, cache...)
    stats: Dict[str, object] = field(default_factory=dict)
    #: campaign progress entries from ``GET /campaigns``
    campaigns: List[Dict[str, object]] = field(default_factory=list)
    #: per-worker digests keyed by worker id (from ``/stats``)
    workers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: instantaneous rates derived from successive polls
    rates: Dict[str, float] = field(default_factory=dict)
    #: short rate series for sparklines, newest last
    history: Dict[str, List[float]] = field(default_factory=dict)
    #: error string when the poll failed (healthy is False then)
    error: Optional[str] = None

    # -- derived conveniences ----------------------------------------------------------

    @property
    def queue(self) -> Dict[str, int]:
        jobs = (self.stats.get("broker") or {}).get("jobs") or {}
        return {status: int(jobs.get(status, 0))
                for status in ("queued", "leased", "done", "failed")}

    @property
    def counters(self) -> Dict[str, int]:
        return dict(self.stats.get("counters") or {})

    def fractions(self) -> Dict[str, float]:
        """Lifetime cache-hit and coalescing fractions from the counters."""
        counters = self.counters
        admitted = int(counters.get("admitted", 0))
        coalesced = int(counters.get("coalesced", 0))
        cache_answers = int(counters.get("cache_answers", 0))
        submissions = admitted + coalesced + cache_answers
        simulations = int(counters.get("simulations", 0))
        worker_hits = int(counters.get("worker_cache_hits", 0))
        handled = simulations + worker_hits
        out = {}
        if submissions:
            out["coalesced_or_cached"] = (coalesced + cache_answers) / submissions
        if handled:
            out["worker_cache_hit"] = worker_hits / handled
        return out

    @property
    def fleet(self) -> Optional[Dict[str, object]]:
        """The supervisor state from ``/stats["fleet"]`` (None when no
        supervisor is attached to the broker, or its state went stale)."""
        state = self.stats.get("fleet")
        return dict(state) if isinstance(state, dict) else None

    def alerts(self, max_queue_depth: Optional[int] = None,
               max_heartbeat_age: Optional[float] = None) -> List[str]:
        """Threshold violations in this snapshot, one line each.

        Backs ``python -m repro.watch --once --alert-*``: an empty list
        means all configured thresholds hold.  An unreachable service is
        not an alert (it is already exit 1 / ``healthy=False``).
        """
        out: List[str] = []
        if not self.healthy:
            return out
        if max_queue_depth is not None:
            queued = self.queue["queued"]
            if queued > max_queue_depth:
                out.append(f"queue depth {queued} exceeds "
                           f"--alert-queue-depth {max_queue_depth}")
        if max_heartbeat_age is not None:
            for worker_id in sorted(self.workers):
                age = self.workers[worker_id].get("heartbeat_age_seconds")
                if age is not None and float(age) > max_heartbeat_age:
                    out.append(
                        f"worker {worker_id} heartbeat is {float(age):.0f}s "
                        f"old (--alert-heartbeat-age {max_heartbeat_age:g})")
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON document printed by ``python -m repro.watch --once --json``."""
        return {
            "url": self.url,
            "ts": self.ts,
            "healthy": self.healthy,
            "error": self.error,
            "queue": self.queue,
            "counters": self.counters,
            "fractions": self.fractions(),
            "rates": self.rates,
            "history": self.history,
            "workers": self.workers,
            "campaigns": self.campaigns,
            "stats": self.stats,
        }


class WatchClient:
    """Polls one service front end and digests fleet snapshots."""

    def __init__(self, url: str, timeout: float = 10.0,
                 token: Optional[str] = None):
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        #: bearer token sent as ``Authorization`` on every request, for
        #: services running behind ``serve --auth-token``
        self.token = token
        #: (ts, cumulative totals) readings the rate derivation diffs
        self._readings: Deque[Tuple[float, Dict[str, float]]] = deque(
            maxlen=HISTORY_LENGTH + 1)
        self._rate_history: Dict[str, Deque[float]] = {}

    # -- transport ---------------------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        return {"Authorization": f"Bearer {self.token}"} if self.token else {}

    def _fetch(self, path: str) -> bytes:
        request = urllib.request.Request(self.url + path,
                                         headers=self._headers())
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            raise WatchError(f"{self.url}{path}: HTTP {exc.code}") from exc
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            raise WatchError(f"{self.url}{path}: {reason}") from exc

    def fetch_json(self, path: str) -> Dict[str, object]:
        try:
            return json.loads(self._fetch(path).decode("utf-8"))
        except ValueError as exc:
            raise WatchError(f"{self.url}{path}: invalid JSON: {exc}") from exc

    # -- endpoint wrappers -------------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self.fetch_json("/healthz")

    def stats(self) -> Dict[str, object]:
        return self.fetch_json("/stats")

    def campaigns(self) -> List[Dict[str, object]]:
        return list(self.fetch_json("/campaigns").get("campaigns", []))

    def metrics(self) -> ParsedMetrics:
        return parse_text(self._fetch("/metrics").decode("utf-8"))

    # -- the poll ----------------------------------------------------------------------

    #: cumulative series differentiated into per-second rates
    RATE_SOURCES = {
        "steps_per_sec": ("repro_integrator_steps_total", {}),
        "simulations_per_sec": ("repro_service_counter_total",
                                {"name": "simulations"}),
        "submissions_per_sec": ("repro_server_requests_total",
                                {"route": "scenarios"}),
        "lu_per_sec": ("repro_integrator_lu_factorizations_total", {}),
    }

    def poll(self) -> FleetSnapshot:
        """One full observation: never raises, degrades to healthy=False."""
        ts = time.time()
        try:
            stats = self.stats()
            metrics = self.metrics()
            campaigns = self.campaigns()
        except WatchError as exc:
            return FleetSnapshot(url=self.url, ts=ts, healthy=False,
                                 error=str(exc))
        totals = {
            key: metrics.total(name, **labels)
            for key, (name, labels) in self.RATE_SOURCES.items()
        }
        rates = self._derive_rates(ts, totals)
        return FleetSnapshot(
            url=self.url,
            ts=ts,
            healthy=True,
            stats=stats,
            campaigns=campaigns,
            workers=dict(stats.get("workers") or {}),
            rates=rates,
            history={key: list(series)
                     for key, series in self._rate_history.items()},
        )

    def _derive_rates(self, ts: float,
                      totals: Dict[str, float]) -> Dict[str, float]:
        rates: Dict[str, float] = {}
        if self._readings:
            prev_ts, prev_totals = self._readings[-1]
            dt = ts - prev_ts
            if dt > 0:
                for key, total in totals.items():
                    delta = total - prev_totals.get(key, 0.0)
                    if delta < 0.0:
                        # counter went backwards: a restarted fleet member;
                        # everything the new process has counted happened
                        # since the previous poll, so the new absolute level
                        # is the increase (Prometheus counter-reset rule)
                        delta = total
                    rates[key] = delta / dt
        self._readings.append((ts, totals))
        for key, value in rates.items():
            series = self._rate_history.setdefault(
                key, deque(maxlen=HISTORY_LENGTH))
            series.append(value)
        return rates
