"""The execution-backend contract.

A backend is *only* a transport: it receives scenario payloads (plain
dicts) together with a :class:`repro.wire.JobContext`, gets each one
executed by :func:`repro.campaign.execution.execute_scenario` somewhere
-- in process, in a pool worker, in a queue worker on another host --
and delivers every outcome dict exactly once through the supplied
callback.  All campaign-level policy (scenario ordering, result
caching, aggregation) lives in :func:`repro.campaign.runner.run_campaign`
*above* this seam, so a new transport only has to move bytes.

Contract, precisely:

* ``execute(items, context, deliver)`` receives ``(index, payload)``
  pairs in dispatch order and the campaign's one ``JobContext``.  The
  context was validated when ``run_campaign`` built it, before any cache
  lookup or dispatch, so every backend accepts and rejects the same
  contexts and none validates again.
* The backend may complete the items in any order but must call
  ``deliver(index, outcome_dict)`` exactly once per item before
  returning, even for items whose execution infrastructure died (such
  items deliver an error outcome synthesized via
  :meth:`ExecutionBackend.failure_outcome`).
* Outcomes must be *transport-independent*: the same items through any
  backend produce identical deterministic summaries and samples (the
  backend-contract test suite parameterizes over every backend and
  asserts this).
* ``deliver`` is invoked from the calling thread or from backend-owned
  threads; callers serialize internally, backends need not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Sequence, Tuple

from repro.campaign.store import ScenarioOutcome
from repro.wire import JobContext

__all__ = ["ExecutionBackend", "DeliverFn", "WorkItem"]

#: one unit of dispatch: (index into the campaign's scenario list, payload)
WorkItem = Tuple[int, Dict[str, object]]

#: outcome delivery callback: (index, outcome_dict)
DeliverFn = Callable[[int, Dict[str, object]], None]


class ExecutionBackend(ABC):
    """Abstract transport executing ``execute_scenario`` somewhere."""

    #: short name recorded in ``CampaignResult.metadata["mode"]``
    name: str = "abstract"

    @abstractmethod
    def execute(self, items: Sequence[WorkItem], context: JobContext,
                deliver: DeliverFn) -> None:
        """Execute every item, delivering each outcome exactly once."""

    def metadata(self) -> Dict[str, object]:
        """Backend description merged into the campaign metadata."""
        return {"mode": self.name, "workers": 1}

    @staticmethod
    def failure_outcome(payload: Dict[str, object], error: str,
                        status: str = "error") -> Dict[str, object]:
        """Synthesize an outcome for an item whose executor was lost.

        Used when the failure happened *around* ``execute_scenario``
        (worker process death, transport error) so no outcome dict ever
        came back.
        """
        from repro.campaign.scenario import Scenario

        outcome = ScenarioOutcome(
            scenario=Scenario.from_dict(payload), status=status, error=error,
        )
        return outcome.to_dict()
