"""Append-only campaign outcome journal with periodic checkpoints.

Campaigns of thousands of scenarios cannot afford to hold "save the
results" until the end: a crash at scenario 4990/5000 must not cost the
first 4989.  The journal is a JSONL file the runner appends to as
outcomes arrive:

* a ``header`` line records the format version and the campaign context
  hash (base options + sample grid) -- resuming under a different
  context is refused, because the recorded outcomes would not be
  reproducible under it;
* one ``outcome`` line per finished scenario, keyed by the scenario's
  content hash;
* every ``checkpoint_every`` outcomes, a ``checkpoint`` line with the
  incremental aggregate snapshot, flushed and fsynced -- the durability
  points of the stream.

:meth:`CampaignJournal.replay` reads the file back, tolerating a
truncated final line (the signature of an interrupted write), and
returns the last recorded outcome per scenario hash --
``run_campaign(..., resume=True)`` adopts those and executes only the
remainder.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

__all__ = ["CampaignJournal", "JournalContextError"]

#: bumped when the journal line layout changes
JOURNAL_FORMAT_VERSION = 1


class JournalContextError(RuntimeError):
    """Resuming a journal recorded under a different campaign context."""


class CampaignJournal:
    """One campaign's append-only outcome stream."""

    def __init__(self, path: Union[str, Path], checkpoint_every: int = 25):
        self.path = Path(path)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._handle = None
        self._since_checkpoint = 0
        self._appended = 0

    # -- reading ------------------------------------------------------------------

    def exists(self) -> bool:
        return self.path.exists()

    def read_header(self) -> Optional[Dict[str, object]]:
        """Parse only the header line (cheap even on huge journals)."""
        if not self.path.exists():
            return None
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    return None
                return record if record.get("type") == "header" else None
        return None

    def replay(self) -> Tuple[Optional[Dict[str, object]], Dict[str, Dict[str, object]]]:
        """Return ``(header, outcomes_by_scenario_hash)`` from disk.

        Later lines win (a scenario re-run on resume appears twice); a
        truncated trailing line -- the normal signature of an
        interrupted run -- is ignored rather than fatal.
        """
        header: Optional[Dict[str, object]] = None
        outcomes: Dict[str, Dict[str, object]] = {}
        if not self.path.exists():
            return header, outcomes
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    break  # truncated tail: everything before it is good
                kind = record.get("type")
                if kind == "header":
                    header = record
                elif kind == "outcome":
                    outcomes[str(record["hash"])] = record["data"]
        return header, outcomes

    # -- writing ------------------------------------------------------------------

    def start(self, context: str, resume: bool,
              metadata: Optional[Dict[str, object]] = None) -> None:
        """Open the journal for appending.

        A fresh campaign (``resume=False``) truncates any existing file;
        a resumed one validates that the stored header's context hash
        matches ``context`` and appends after the recorded outcomes.
        """
        if resume and self.path.exists():
            header = self.read_header()
            if header is not None and header.get("context") != context:
                raise JournalContextError(
                    f"journal {self.path} was recorded under context "
                    f"{header.get('context')!r}, this campaign is "
                    f"{context!r} (different base options or sample "
                    f"grid); refusing to mix outcomes"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
            if header is None:
                self._write_header(context, metadata)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
            self._write_header(context, metadata)

    def _write_header(self, context: str,
                      metadata: Optional[Dict[str, object]]) -> None:
        self._write_line({
            "type": "header",
            "format_version": JOURNAL_FORMAT_VERSION,
            "context": context,
            "metadata": dict(metadata or {}),
        })
        self.flush()

    def _write_line(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            raise RuntimeError("journal is not open; call start() first")
        self._handle.write(json.dumps(record, default=repr) + "\n")

    def append(self, scenario_hash: str, outcome: Dict[str, object],
               aggregates: Optional[Dict[str, object]] = None) -> None:
        """Record one outcome; checkpoint when the period elapses."""
        self._write_line({"type": "outcome", "hash": scenario_hash,
                          "data": outcome})
        self._appended += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint(aggregates)

    def checkpoint(self, aggregates: Optional[Dict[str, object]] = None) -> None:
        """Write a durable checkpoint line (flush + fsync).

        ``done`` counts campaign-wide finished outcomes: the aggregates'
        total where available (it includes outcomes adopted on resume,
        which are never re-appended), this journal's append count as the
        fallback.
        """
        done = (aggregates or {}).get("total", self._appended)
        self._write_line({"type": "checkpoint", "done": done,
                          "aggregates": dict(aggregates or {})})
        self.flush()
        self._since_checkpoint = 0

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self, aggregates: Optional[Dict[str, object]] = None) -> None:
        """Final checkpoint (if outcomes arrived since the last) and close."""
        if self._handle is None:
            return
        if self._since_checkpoint:
            self.checkpoint(aggregates)
        self._handle.close()
        self._handle = None
