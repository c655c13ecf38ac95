"""Versioned, typed wire-message schemas for the service plane.

Every payload that crosses a process boundary -- broker job contexts,
worker metric snapshots, HTTP submissions, campaign records, supervisor
state -- is declared here as a dataclass with an explicit ``type`` name
and schema ``version``.  ``encode``
renders a message to a plain JSON-ready dict; ``decode`` validates a
dict back into the typed message, tolerating unknown fields (they ride
along in ``.extra``) so mixed-version fleets keep interoperating during
rolling upgrades.

The idiom follows the gridworks-scada ``gwsproto.named_types`` pattern:
one registry of named message types, round-trip identity
(``decode(encode(m)) == m``), and strict per-field type validation at
the boundary instead of ad-hoc ``dict.get`` spelunking.
"""

from repro.wire.base import (
    WireError,
    WireMessage,
    decode,
    encode,
    registered_types,
    wire_message,
)
from repro.wire.messages import (
    CampaignRecord,
    CampaignSubmission,
    JobContext,
    ScenarioSubmission,
    SupervisorState,
    WorkerSnapshot,
    decode_job_context,
)

__all__ = [
    "WireError",
    "WireMessage",
    "decode",
    "encode",
    "registered_types",
    "wire_message",
    "CampaignRecord",
    "CampaignSubmission",
    "JobContext",
    "ScenarioSubmission",
    "SupervisorState",
    "WorkerSnapshot",
    "decode_job_context",
]
