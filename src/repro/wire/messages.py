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

from repro.core.options import SimOptions
from repro.wire.base import WireError, WireMessage, decode, wire_message

__all__ = [
    "JobContext", "WorkerSnapshot", "CampaignRecord", "SupervisorState",
    "ScenarioSubmission", "CampaignSubmission", "decode_job_context",
]


#: the longest per-scenario timeout: ``signal.setitimer`` cannot arm a
#: timer much past 2**63 ns (about 9.2e9 s), nor past 2**31 s where
#: ``time_t`` is 32 bits; 1e9 s is about 32 years
MAX_TIMEOUT_SECONDS = 1e9


# -- broker-mediated service payloads --------------------------------------------------

@wire_message("job_context")
class JobContext(WireMessage):
    """Everything a scenario runs under besides its own spec.

    The one context type from submission to worker: ``run_campaign`` and
    the HTTP front end build it once per campaign or submission, every
    backend and the queue worker take it, and the queue attaches its
    wire form to every job.  Construction validates it, so a context
    that exists is valid -- a bad one never reaches a cache, a queue or
    a worker.  ``base_options`` and ``sample_points`` set the job id and
    the cache key (:func:`repro.campaign.cache.context_hash`);
    ``timeout`` is execution policy and does not.
    """

    #: ``SimOptions.to_dict()`` every scenario's overrides sit on top of
    base_options: Optional[Dict[str, object]] = None
    #: per-scenario wall-clock budget in seconds (worker-enforced)
    timeout: Optional[float] = None
    #: uniform sample-grid size for observed waveforms
    sample_points: int = 101

    def validate(self) -> None:
        if self.sample_points < 2:
            raise WireError("job_context: sample_points must be >= 2")
        if self.timeout is not None and \
                not 0 < self.timeout <= MAX_TIMEOUT_SECONDS:
            raise WireError(f"job_context: timeout must be a positive "
                            f"number of seconds, at most "
                            f"{MAX_TIMEOUT_SECONDS:g}")
        if self.base_options is not None:
            try:
                SimOptions.from_dict(self.base_options)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise WireError(
                    f"job_context: invalid base_options: {exc}") from exc


def decode_job_context(data: object) -> JobContext:
    """Decode a job's stored context, tolerating pre-wire legacy dicts.

    Jobs enqueued before the schema existed carry a plain field dict
    with no ``type`` envelope; pinning ``expect=JobContext`` lets those
    decode unchanged.  ``None`` / empty contexts (direct broker users)
    become the default context.
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
#
# The job-context fields (``base_options``, ``timeout``, ``sample_points``)
# sit flat beside the scenario(s) in a submission body.  They are not
# declared here: they land in ``extra``, and the front end decodes them
# from the body through :class:`JobContext`.

#: SQLite's INTEGER range, the broker's priority column
_PRIORITY_RANGE = range(-2 ** 63, 2 ** 63)


def _check_priority(type_name: str, priority: Optional[int]) -> None:
    if priority is not None and priority not in _PRIORITY_RANGE:
        raise WireError(f"{type_name}: priority is out of range")


@wire_message("scenario_submission")
class ScenarioSubmission(WireMessage):
    """``POST /scenarios`` body (the ``type`` envelope is optional)."""

    scenario: Dict[str, object]
    priority: Optional[int] = 0

    def validate(self) -> None:
        _check_priority(self.TYPE, self.priority)


@wire_message("campaign_submission")
class CampaignSubmission(WireMessage):
    """``POST /campaigns`` body (the ``type`` envelope is optional)."""

    scenarios: List[object]
    priority: Optional[int] = 0

    def validate(self) -> None:
        _check_priority(self.TYPE, self.priority)
