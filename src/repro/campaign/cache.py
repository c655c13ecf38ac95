"""Scenario-level result cache.

A re-planned campaign usually changes only a slice of its scenarios --
one more method, a tweaked parameter axis -- yet the naive flow
re-simulates everything.  The cache keys finished outcomes by the
scenario's content hash (:func:`repro.campaign.scenario.scenario_hash`),
so :func:`~repro.campaign.runner.run_campaign` can adopt the unchanged
scenarios' outcomes from disk and only execute the ones whose canonical
spec actually changed.  With a fully unchanged plan, a cached re-run
simulates zero scenarios.

Two rules keep the cache honest:

* the scenario hash deliberately excludes ``name`` and ``tags``
  (presentation metadata), but it also excludes the campaign-wide
  *context* -- base options and the sample grid -- which **does**
  change results.  Cache entries are therefore keyed by
  ``scenario_hash + context hash``; rerunning under different base
  options is a miss, renaming a sweep is a hit.  The per-scenario
  timeout is deliberately *not* part of the context: it is execution
  policy, and a stored ``ok`` outcome's content does not depend on the
  budget it ran under.
* only ``status == "ok"`` outcomes are stored.  Failures and timeouts
  are re-executed on the next run -- a cache must never make a transient
  infrastructure failure permanent.

Entries are written durably as each outcome arrives, so the cache is
also the campaign's checkpoint: re-running an interrupted campaign
against the same directory adopts everything that finished before the
interruption and executes only the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

from repro.campaign.scenario import Scenario, scenario_hash
from repro.wire import JobContext

__all__ = ["ResultCache", "context_hash"]

#: bumped when the on-disk cache entry layout changes
CACHE_FORMAT_VERSION = 1


def context_hash(context: JobContext) -> str:
    """Hash of everything outcome-relevant that is *not* in the scenario.

    The one hash of a job context: every cache key and every broker job
    id ends in it.  ``timeout`` is left out (execution policy).
    """
    payload = json.dumps(
        {"base_options": context.base_options,
         "sample_points": context.sample_points},
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ResultCache:
    """Filesystem-backed map ``(scenario content, context) -> outcome``."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def key(self, scenario: Scenario, context: str) -> str:
        return f"{scenario_hash(scenario)}-{context}"

    def path(self, scenario: Scenario, context: str) -> Path:
        return self.root / f"{self.key(scenario, context)}.json"

    def has(self, scenario: Scenario, context: str) -> bool:
        return self.path(scenario, context).exists()

    def get(self, scenario: Scenario,
            context: str) -> Optional[Dict[str, object]]:
        """Return the cached outcome dict, rewritten to ``scenario``.

        The stored scenario and the requesting one can differ in name and
        tags (the hash ignores both), so the outcome is re-labelled with
        the *current* scenario before it is returned -- aggregate tables
        must show this campaign's names, not last week's.
        """
        outcome = self.get_by_key(self.key(scenario, context))
        if outcome is None:
            return None
        outcome["scenario"] = scenario.to_dict()
        return outcome

    def get_by_key(self, key: str) -> Optional[Dict[str, object]]:
        """Cached outcome by raw entry key, *without* relabelling.

        The service layer addresses the cache this way: a job id **is**
        a cache key (scenario hash + context hash), and the stored
        scenario labels are as good as any for an HTTP client that never
        supplied its own.
        """
        path = self.root / f"{key}.json"
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            # missing, or a reader raced a (non-atomic, pre-PR-5) writer
            return None
        if not isinstance(entry, dict) or \
                entry.get("format_version") != CACHE_FORMAT_VERSION:
            return None
        outcome = dict(entry["outcome"])
        outcome["reused_from"] = "cache"
        return outcome

    def put(self, scenario: Scenario, context: str,
            outcome: Dict[str, object]) -> Optional[Path]:
        """Store an outcome; silently refuses non-ok outcomes.

        The write is **atomic**: the entry lands in a same-directory
        temp file first and is ``os.replace``-d into place, so any
        number of service workers can share one cache directory --
        concurrent readers see either the old entry or the new one,
        never a torn write, and the last writer wins bytes-for-bytes.
        It is also **durable**: the temp file is fsynced before the
        rename, so a crash never leaves an entry whose name is in place
        but whose bytes are not -- the checkpoint a campaign resumed
        through the cache relies on.
        """
        if outcome.get("status") != "ok":
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(scenario, context)
        stored = dict(outcome)
        stored.pop("reused_from", None)
        entry = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": self.key(scenario, context),
            "scenario_hash": scenario_hash(scenario),
            "context": context,
            "outcome": stored,
        }
        # ".tmp" suffix keeps half-written entries invisible to the
        # "*.json" globs of __len__ and the key lookups of get()
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        try:
            with tmp.open("w") as handle:
                handle.write(json.dumps(entry, default=repr) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
