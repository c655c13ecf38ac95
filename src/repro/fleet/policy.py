"""The scaling policy: a pure function from observations to decisions.

Everything timing- and process-related lives in the supervisor; the
policy sees one immutable :class:`FleetObservation` (queue depth, live
workers, breaker/backoff flags) and returns one :class:`Decision`.
That makes the entire scaling behavior table-testable with canned
snapshots -- no subprocesses, no clocks.

The core rule: the fleet should hold ``ceil(queued / SCALE_THRESHOLD)``
workers (one worker per ``SCALE_THRESHOLD`` ready jobs), clamped to
``[min_workers, max_workers]``.  A drained queue (nothing queued or
leased) retires everything above the floor; a crash-looping worker
command defers all spawning (``backoff``) until the breaker closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["FleetPolicy", "FleetObservation", "Decision"]


@dataclass(frozen=True)
class FleetObservation:
    """One control-loop tick's view of the world."""

    #: ready jobs (queued, or leased with an expired lease)
    queued: int
    #: jobs under a live lease (a worker is executing them)
    leased: int
    #: workers counted as alive: supervised processes plus external
    #: workers with fresh heartbeats
    live_workers: int
    #: a recent crash's exponential-backoff window is still open
    in_backoff: bool = False
    #: the crash-loop circuit breaker is open
    breaker_open: bool = False


@dataclass(frozen=True)
class Decision:
    """What the supervisor should do this tick."""

    #: "scale_up" | "retire" | "hold" | "backoff"
    action: str
    #: workers to add (scale_up) or let retire (retire); 0 otherwise
    count: int
    #: one-line human explanation (published in the supervisor state)
    reason: str


@dataclass(frozen=True)
class FleetPolicy:
    """The worker bounds of the scaling rule (immutable; safe to share)."""

    #: ready jobs one worker is expected to absorb before a sibling
    #: is added (queue depth per live worker that triggers scale-up)
    SCALE_THRESHOLD: ClassVar[float] = 2.0

    #: hard ceiling on supervised + external live workers
    max_workers: int = 4
    #: floor kept alive even when the queue is empty
    min_workers: int = 0

    def __post_init__(self):
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 0 <= self.min_workers <= self.max_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")

    def desired_workers(self, queued: int) -> int:
        """How many workers the current backlog warrants."""
        if queued <= 0:
            return self.min_workers
        wanted = max(1, math.ceil(queued / self.SCALE_THRESHOLD))
        return min(self.max_workers, max(self.min_workers, wanted))

    def decide(self, obs: FleetObservation) -> Decision:
        """The scaling decision for one observation (pure)."""
        if obs.breaker_open:
            return Decision(
                "backoff", 0,
                "circuit breaker open: the worker command is crash-looping")
        desired = self.desired_workers(obs.queued)
        if desired > obs.live_workers:
            if obs.in_backoff:
                return Decision(
                    "backoff", 0,
                    "scale-up deferred: a recent crash's backoff window "
                    "is still open")
            return Decision(
                "scale_up", desired - obs.live_workers,
                f"queue depth {obs.queued} wants {desired} worker(s), "
                f"{obs.live_workers} live")
        if obs.queued == 0 and obs.leased == 0 \
                and obs.live_workers > self.min_workers:
            return Decision(
                "retire", obs.live_workers - self.min_workers,
                f"queue drained: {obs.live_workers} live above the floor "
                f"of {self.min_workers}")
        return Decision(
            "hold", 0,
            f"{obs.live_workers} worker(s) cover queue depth {obs.queued}")
