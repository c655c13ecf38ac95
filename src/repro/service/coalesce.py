"""Admission control: identical requests fan in, warm requests cost nothing.

A service front end serving heavy traffic sees the same scenario many
times -- dashboards refresh, sweeps overlap, users resubmit.  The
coalescer makes duplicates free at admission time, *before* any queue or
worker is touched:

1. **Warm** -- the shared :class:`~repro.campaign.cache.ResultCache`
   already holds an ``ok`` outcome under the request's key (scenario
   content hash + context hash, the same key the job queue uses): the
   request is answered straight from disk.  No job, no worker, no
   simulation.
2. **In flight** -- the broker already has a live (queued / leased /
   done-ok) job under the key: the request *coalesces* onto it and the
   caller polls the same job id every earlier identical caller got.
3. **Cold** -- the job is genuinely new (or previously failed, which
   must never be permanent): it is enqueued.  Exactly one simulation
   will run no matter how many identical requests arrive while it does.

Every decision increments a durable broker counter (``admitted``,
``coalesced``, ``cache_answers``) so ``GET /stats`` can prove the
fan-in -- the acceptance criterion "a duplicate submit performs zero
additional simulations" is the ``simulations`` counter standing still
while ``coalesced`` / ``cache_answers`` climb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.campaign.backends.queue import job_id_for
from repro.campaign.cache import ResultCache
from repro.service.broker import JobBroker
from repro.telemetry import metrics as telemetry
from repro.wire import JobContext, encode

__all__ = ["Admission", "Coalescer"]

_TM_ADMISSIONS = telemetry.counter(
    "repro_coalescer_admissions_total",
    "Scenario submissions by admission decision: cold submissions are "
    "admitted (enqueued), in-flight duplicates coalesce onto the live "
    "job, warm duplicates are answered from the result cache.",
    ("decision",))


@dataclass
class Admission:
    """The outcome of admitting one scenario submission."""

    #: the job id every identical submission shares (also the cache key)
    job_id: str
    #: job status at admission ("queued" / "leased" / "done")
    status: str
    #: "admitted" (enqueued fresh) | "coalesced" (existing live job)
    #: | "cache" (answered from the result cache, no job touched)
    decision: str
    #: the outcome dict, only when served from the cache
    result: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "job_id": self.job_id,
            "status": self.status,
            "decision": self.decision,
        }
        if self.result is not None:
            out["result"] = self.result
        return out


class Coalescer:
    """Admission control over one broker + shared result cache."""

    def __init__(self, broker: JobBroker,
                 cache: Optional[ResultCache] = None):
        self.broker = broker
        self.cache = cache

    def admit(self, payload: Dict[str, object], context: JobContext,
              priority: int = 0) -> Admission:
        """Admit one scenario submission (dedup by content + context)."""
        key = job_id_for(payload, context)
        if self.cache is not None:
            entry = self.cache.get_by_key(key)
            if entry is not None:
                self.broker.incr("cache_answers")
                _TM_ADMISSIONS.labels("cache").inc()
                return Admission(key, "done", "cache", result=entry)
        job = self.broker.enqueue(payload, context=encode(context),
                                  priority=priority, job_id=key)
        if job.fresh:
            self.broker.incr("admitted")
            _TM_ADMISSIONS.labels("admitted").inc()
            return Admission(key, job.status, "admitted")
        self.broker.incr("coalesced")
        _TM_ADMISSIONS.labels("coalesced").inc()
        return Admission(key, job.status, "coalesced")

    def result_for(self, job_id: str) -> Optional[Dict[str, object]]:
        """The outcome under a job id, from the broker or the cache."""
        job = self.broker.get(job_id)
        if job is not None and job.result is not None:
            return job.result
        if self.cache is not None:
            return self.cache.get_by_key(job_id)
        return None

    def status_for(self, job_id: str) -> Optional[Dict[str, object]]:
        """The public status document under a job id (None = unknown).

        A key that only exists as a cache entry (served warm, never
        enqueued) still reports as a done job -- to the client the two
        are indistinguishable, which is the point of coalescing.
        """
        job = self.broker.get(job_id)
        if job is not None:
            return job.to_dict()
        if self.cache is not None and self.cache.get_by_key(job_id) is not None:
            return {"id": job_id, "status": "done", "result_status": "ok",
                    "served_from": "cache"}
        return None

    def counters(self) -> Dict[str, int]:
        counters = self.broker.counters()
        for name in ("admitted", "coalesced", "cache_answers", "simulations",
                     "worker_cache_hits"):
            counters.setdefault(name, 0)
        return counters
