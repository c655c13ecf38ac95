"""The named wire-message types of the service plane.

Two families:

* the broker-mediated service payloads -- job execution contexts,
  worker metric snapshots, persisted campaign records, and the fleet
  supervisor's published state;
* the HTTP submission bodies accepted by :mod:`repro.service.server`.

Field names deliberately match the historical ad-hoc dicts, so an old
peer reading ``msg["sample_points"]`` and a new peer reading
``JobContext.sample_points`` interoperate byte-for-byte.
"""

from dataclasses import field
from typing import Dict, List, Optional

from repro.wire.base import WireError, WireMessage, decode, wire_message

__all__ = [
    "JobContext", "WorkerSnapshot", "CampaignRecord", "SupervisorState",
    "ScenarioSubmission", "CampaignSubmission", "decode_job_context",
]


# -- broker-mediated service payloads --------------------------------------------------

@wire_message("job_context")
class JobContext(WireMessage):
    """Execution context attached to every enqueued job."""

    base_options: Optional[Dict[str, object]] = None
    timeout: Optional[float] = None
    sample_points: int = 101

    def validate(self) -> None:
        if self.sample_points < 2:
            raise WireError("job_context: sample_points must be >= 2")


def decode_job_context(data: object) -> JobContext:
    """Decode a job's stored context, tolerating pre-wire legacy dicts.

    Jobs enqueued before the schema existed carry a plain
    ``ExecutionContext.to_dict()`` payload with no ``type`` envelope;
    pinning ``expect=JobContext`` lets those decode unchanged.  ``None``
    / empty contexts (direct broker users) become the default context.
    """
    if not data:
        return JobContext()
    message = decode(data, expect=JobContext)
    assert isinstance(message, JobContext)
    return message


@wire_message("worker_snapshot")
class WorkerSnapshot(WireMessage):
    """A queue worker's periodic self-description, published via broker."""

    worker_id: str
    pid: int = 0
    busy: bool = False
    current_job: Optional[str] = None
    started_at: float = 0.0
    num_executed: int = 0
    num_cache_hits: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.worker_id:
            raise WireError("worker_snapshot: worker_id must be non-empty")


@wire_message("campaign_record")
class CampaignRecord(WireMessage):
    """A ``POST /campaigns`` submission, persisted in the broker.

    ``names``, ``job_ids`` and ``decisions`` are parallel lists (one
    entry per scenario, submission order preserved).
    """

    campaign_id: str
    names: List[str]
    job_ids: List[str]
    decisions: List[str]
    created_at: float = 0.0

    def validate(self) -> None:
        if not self.campaign_id:
            raise WireError("campaign_record: campaign_id must be non-empty")
        if not (len(self.names) == len(self.job_ids) == len(self.decisions)):
            raise WireError(
                "campaign_record: names/job_ids/decisions lengths differ")

    def to_status_dict(self) -> Dict[str, object]:
        """The public ``GET /campaigns/<id>`` base document."""
        return {
            "campaign_id": self.campaign_id,
            "total": len(self.names),
            "jobs": dict(zip(self.names, self.job_ids)),
            "decisions": dict(zip(self.names, self.decisions)),
            "created_at": self.created_at,
        }


@wire_message("fleet_supervisor_state")
class SupervisorState(WireMessage):
    """The fleet supervisor's published control-loop state."""

    supervisor_id: str
    live_workers: int = 0
    managed_workers: int = 0
    worker_floor: int = 0
    worker_ceiling: int = 0
    spawns: int = 0
    retires: int = 0
    crashes: int = 0
    zombies_reaped: int = 0
    consecutive_crashes: int = 0
    breaker_open: bool = False
    breaker_trips: int = 0
    in_backoff: bool = False
    backoff_seconds: float = 0.0
    last_action: str = ""
    last_reason: str = ""
    ticks: int = 0
    interval: float = 0.0
    updated_at: float = 0.0


# -- HTTP submission bodies ------------------------------------------------------------

@wire_message("scenario_submission")
class ScenarioSubmission(WireMessage):
    """``POST /scenarios`` body (the ``type`` envelope is optional)."""

    scenario: Dict[str, object]
    base_options: Optional[Dict[str, object]] = None
    timeout: Optional[float] = None
    sample_points: int = 101
    priority: Optional[int] = 0


@wire_message("campaign_submission")
class CampaignSubmission(WireMessage):
    """``POST /campaigns`` body (the ``type`` envelope is optional)."""

    scenarios: List[object]
    base_options: Optional[Dict[str, object]] = None
    timeout: Optional[float] = None
    sample_points: int = 101
    priority: Optional[int] = 0
