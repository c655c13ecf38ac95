"""Durable job queue: the broker every service component attaches to.

The broker is a single SQLite file.  That choice is deliberate: SQLite
gives multi-process ACID transactions on every platform the simulator
runs on, with zero extra infrastructure -- the HTTP front end, a fleet of
``python -m repro.service worker`` processes and a ``QueueBackend``
campaign can all share one broker path, attach, detach and crash
independently, and the queue survives all of them.

Queue semantics (the Redis-list/SQS hybrid the ROADMAP asked for):

* :meth:`JobBroker.enqueue` inserts a job (idempotently -- the job id
  doubles as the dedupe key, which is how the service coalesces
  identical submissions).  Higher ``priority`` pops first; FIFO within a
  priority class.
* :meth:`JobBroker.lease` atomically pops the best runnable job and
  grants a **visibility timeout**: the job stays invisible to other
  workers until ``lease_deadline``.  A worker that crashes mid-job
  simply lets the lease expire -- the job becomes runnable again and is
  **redelivered** to the next worker that asks.
* :meth:`JobBroker.extend` renews the lease (workers heartbeat long
  scenarios); :meth:`JobBroker.ack` finishes a job with its result;
  :meth:`JobBroker.nack` hands it back (requeued, or failed once the
  attempt budget is spent).  Both ``ack`` and ``nack`` verify the caller
  still *owns* the lease, so a worker that lost its lease to expiry
  cannot clobber the redelivered execution's result.
* A job leased more than ``max_attempts`` times without an ack is marked
  ``failed`` -- a poison job cannot cycle through the fleet forever.

Every mutation opens a short-lived connection and runs inside one
``BEGIN IMMEDIATE`` transaction, so any number of threads and processes
can share a broker without coordination beyond the file itself.

Waiting for work is a :meth:`JobBroker.watch`: one persistent read
connection whose ``PRAGMA data_version`` moves whenever any other
connection -- in this process or another -- commits to the file.  A
waiter reads the version *before* it looks (asks whether a job is
runnable, fetches results), and after an empty look it waits for the
version to move, reading it every ``WATCH_INTERVAL`` seconds, up to a
timeout.  A commit that lands before the version read is seen by the
look; one that lands after it moves the version, so no wakeup is lost.
Every commit wakes a watch (acks, counters, metrics publishes), so an
idle worker looks with :meth:`CommitWatch.runnable` -- a read -- and
opens a write transaction to lease only when a row is runnable.  No
commit announces an expired lease, so the worker's wait also times out.

The broker also keeps a tiny named-counter table (simulations executed,
worker-side cache hits, coalesced admissions...) that the service's
``/stats`` endpoint surfaces.
"""

from __future__ import annotations

import json
import math
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.telemetry import metrics as telemetry

__all__ = ["CommitWatch", "Job", "JobBroker", "JOB_STATUSES"]

# queue-lifecycle telemetry (process-local: the front end counts the
# enqueues it performs, each worker counts the leases/acks it performs;
# the durable `counters` table below remains the fleet-wide total that
# survives restarts)
_TM_ENQUEUES = telemetry.counter(
    "repro_broker_enqueues_total",
    "Jobs inserted (or reset after failure) into the queue.")
_TM_COALESCED = telemetry.counter(
    "repro_broker_enqueue_coalesced_total",
    "Enqueue calls answered by an existing live job (dedupe hits).")
_TM_LEASES = telemetry.counter(
    "repro_broker_leases_total", "Jobs leased to workers.")
_TM_REDELIVERIES = telemetry.counter(
    "repro_broker_redeliveries_total",
    "Leases granted on jobs whose previous lease expired (worker crash).")
_TM_POISONED = telemetry.counter(
    "repro_broker_poisoned_total",
    "Jobs failed for exhausting their attempt budget without an ack.")
_TM_ACKS = telemetry.counter(
    "repro_broker_acks_total",
    "Ack attempts, by acceptance (late acks are rejected).", ("accepted",))
_TM_NACKS = telemetry.counter(
    "repro_broker_nacks_total",
    "Jobs handed back by workers, by disposition.", ("requeued",))
_TM_GC_DELETED = telemetry.counter(
    "repro_broker_gc_deleted_total",
    "Terminal jobs deleted by retention sweeps.")

#: lifecycle of one job
JOB_STATUSES = ("queued", "leased", "done", "failed")

#: bumped when the schema changes incompatibly
SCHEMA_VERSION = 1

#: a job a lease may hand out: queued, or leased with an expired deadline
_RUNNABLE = "status = 'queued' OR (status = 'leased' AND lease_deadline < ?)"
#: a job's status with an expired lease read as ``queued``
_BUCKET = ("CASE WHEN status='leased' AND lease_deadline < ?"
           " THEN 'queued' ELSE status END")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    kind TEXT NOT NULL DEFAULT 'scenario',
    payload TEXT NOT NULL,
    context TEXT,
    priority INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'queued',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    lease_owner TEXT,
    lease_deadline REAL,
    result TEXT,
    result_status TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    finished_at REAL
);
CREATE INDEX IF NOT EXISTS jobs_runnable
    ON jobs (status, priority DESC, created_at);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS worker_metrics (
    worker_id TEXT PRIMARY KEY,
    snapshot TEXT NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id TEXT PRIMARY KEY,
    record TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS campaigns_recency ON campaigns (created_at);
"""


@dataclass
class Job:
    """One queued unit of work (a scenario payload plus its context)."""

    id: str
    payload: Dict[str, object]
    context: Optional[Dict[str, object]] = None
    kind: str = "scenario"
    priority: int = 0
    status: str = "queued"
    attempts: int = 0
    max_attempts: int = 3
    lease_owner: Optional[str] = None
    lease_deadline: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    result_status: Optional[str] = None
    error: Optional[str] = None
    created_at: float = 0.0
    finished_at: Optional[float] = None
    #: transient (not stored): whether :meth:`JobBroker.enqueue` actually
    #: inserted/reset this job (True) or coalesced onto an existing one
    fresh: bool = False

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def to_dict(self) -> Dict[str, object]:
        """Public JSON view (the ``GET /jobs/<id>`` body, minus result)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "result_status": self.result_status,
            "error": self.error,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
        }


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        kind=row["kind"],
        payload=json.loads(row["payload"]),
        context=json.loads(row["context"]) if row["context"] else None,
        priority=row["priority"],
        status=row["status"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        lease_owner=row["lease_owner"],
        lease_deadline=row["lease_deadline"],
        result=json.loads(row["result"]) if row["result"] else None,
        result_status=row["result_status"],
        error=row["error"],
        created_at=row["created_at"],
        finished_at=row["finished_at"],
    )


class CommitWatch:
    """Wait for commits to a broker file: see :meth:`JobBroker.watch`.

    Holds one read connection, opened on first use and closed by
    :meth:`close` (or the ``with`` block).  The connection never writes,
    so every commit moves its ``PRAGMA data_version``; a version is only
    comparable with another read by the same watch.
    """

    def __init__(self, broker: "JobBroker"):
        self._broker = broker
        self._conn: Optional[sqlite3.Connection] = None

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = sqlite3.connect(
                self._broker.path, timeout=self._broker.BUSY_TIMEOUT,
                isolation_level=None)
        return self._conn

    def version(self) -> int:
        """The file's commit version as this watch sees it now."""
        return self._connection().execute(
            "PRAGMA data_version").fetchall()[0][0]

    def wait(self, since: int, timeout: float) -> bool:
        """Block until a commit moves the version past ``since``, or
        ``timeout`` seconds pass; returns whether a commit landed."""
        deadline = time.monotonic() + timeout
        while self.version() == since:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(self._broker.WATCH_INTERVAL, remaining))
        return True

    def runnable(self) -> bool:
        """Whether a lease would find a job, read without a write lock."""
        return bool(self._connection().execute(
            f"SELECT 1 FROM jobs WHERE {_RUNNABLE} LIMIT 1",
            (time.time(),)).fetchall())

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CommitWatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JobBroker:
    """File-backed durable job queue (enqueue / lease / ack / nack).

    Safe for concurrent use from any number of threads and processes;
    every public method is one atomic transaction against the SQLite
    file at ``path``.
    """

    #: seconds a connection waits on another process's write lock
    BUSY_TIMEOUT = 30.0
    #: :meth:`gc` drops worker snapshots with no heartbeat for this long
    WORKER_METRICS_MAX_AGE = 3600.0
    #: seconds between version reads while a :meth:`watch` waits
    WATCH_INTERVAL = 0.005

    def __init__(self, path: Union[str, Path],
                 lease_seconds: float = 60.0,
                 max_attempts: int = 3):
        self.path = Path(path)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._conn() as conn:
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))

    @contextmanager
    def _conn(self):
        """A short-lived autocommit connection, closed on exit.

        The broker is polled frequently (campaign loops, /stats); every
        connection must be closed deterministically, not left to the
        garbage collector's mercy.
        """
        conn = sqlite3.connect(self.path, timeout=self.BUSY_TIMEOUT,
                               isolation_level=None)
        try:
            conn.row_factory = sqlite3.Row
            # WAL lets readers (status polls, /stats) proceed while a
            # worker holds the write lock for a lease transaction
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            yield conn
        finally:
            conn.close()

    @contextmanager
    def _txn(self):
        """One ``BEGIN IMMEDIATE`` transaction: commit on success,
        roll back when the body raises (a failed enqueue must not
        half-commit), close either way."""
        with self._conn() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            else:
                conn.execute("COMMIT")

    def watch(self) -> CommitWatch:
        """A :class:`CommitWatch` on this broker's file; use it in a
        ``with`` block so its connection is closed on the way out."""
        return CommitWatch(self)

    # -- producing ---------------------------------------------------------------------

    def enqueue(self, payload: Dict[str, object],
                context: Optional[Dict[str, object]] = None,
                priority: int = 0,
                job_id: Optional[str] = None,
                kind: str = "scenario",
                max_attempts: Optional[int] = None) -> Job:
        """Insert a job, or return the existing one with the same id.

        ``job_id`` is the dedupe key (the service uses the scenario's
        content hash + context hash, so identical submissions coalesce
        onto one job).  An existing job that is queued, leased, or done
        with an ``ok`` result is returned as-is; a failed job -- or a
        done job whose recorded outcome is not ``ok`` (errors and
        timeouts must never become permanent) -- is **reset** and
        requeued with a fresh attempt budget.
        """
        job_id = job_id or uuid.uuid4().hex
        budget = self.max_attempts if max_attempts is None else int(max_attempts)
        now = time.time()
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
            if row is not None:
                job = _row_to_job(row)
                stale = job.status == "failed" or (
                    job.status == "done" and job.result_status != "ok")
                if not stale:
                    _TM_COALESCED.inc()
                    return job  # coalesced: job.fresh stays False
                conn.execute(
                    "UPDATE jobs SET status='queued', attempts=0,"
                    " max_attempts=?, lease_owner=NULL,"
                    " lease_deadline=NULL, result=NULL,"
                    " result_status=NULL, error=NULL, finished_at=NULL,"
                    " payload=?, context=?, priority=?, created_at=?"
                    " WHERE id=?",
                    (budget, json.dumps(payload, default=repr),
                     json.dumps(context, default=repr) if context else None,
                     int(priority), now, job_id))
            else:
                conn.execute(
                    "INSERT INTO jobs (id, kind, payload, context,"
                    " priority, status, max_attempts, created_at)"
                    " VALUES (?, ?, ?, ?, ?, 'queued', ?, ?)",
                    (job_id, kind, json.dumps(payload, default=repr),
                     json.dumps(context, default=repr) if context else None,
                     int(priority), budget, now))
        _TM_ENQUEUES.inc()
        job = self.get(job_id)
        job.fresh = True
        return job

    # -- consuming ---------------------------------------------------------------------

    def lease(self, worker_id: str,
              lease_seconds: Optional[float] = None) -> Optional[Job]:
        """Atomically pop the best runnable job, or return ``None``.

        Runnable means queued, or leased with an **expired** visibility
        deadline (the redelivery path).  Jobs whose attempt budget is
        already spent are failed in passing instead of being handed out
        again.
        """
        window = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        now = time.time()
        with self._txn() as conn:
            while True:
                row = conn.execute(
                    f"SELECT * FROM jobs WHERE {_RUNNABLE}"
                    " ORDER BY priority DESC, created_at, rowid LIMIT 1",
                    (now,)).fetchone()
                if row is None:
                    return None
                job = _row_to_job(row)
                if job.attempts >= job.max_attempts:
                    # redelivered too often: poison
                    conn.execute(
                        "UPDATE jobs SET status='failed', lease_owner=NULL,"
                        " lease_deadline=NULL, finished_at=?, error=?"
                        " WHERE id=?",
                        (now,
                         f"attempt budget exhausted after {job.attempts} "
                         f"lease(s) without an ack (worker crash?)",
                         job.id))
                    _TM_POISONED.inc()
                    continue
                if job.status == "leased":
                    # the previous lease expired: this grant is a redelivery
                    _TM_REDELIVERIES.inc()
                conn.execute(
                    "UPDATE jobs SET status='leased', lease_owner=?,"
                    " lease_deadline=?, attempts=attempts+1 WHERE id=?",
                    (worker_id, now + window, job.id))
                _TM_LEASES.inc()
                job.status = "leased"
                job.lease_owner = worker_id
                job.lease_deadline = now + window
                job.attempts += 1
                return job

    def extend(self, job_id: str, worker_id: str,
               lease_seconds: Optional[float] = None) -> bool:
        """Renew the visibility timeout of a job this worker holds.

        Returns ``False`` when the lease is no longer ours (it expired
        and the job was redelivered) -- the worker should abandon the job.
        """
        window = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_deadline=? WHERE id=?"
                " AND status='leased' AND lease_owner=?",
                (time.time() + window, job_id, worker_id))
            return cursor.rowcount > 0

    def ack(self, job_id: str, worker_id: str,
            result: Dict[str, object]) -> bool:
        """Finish a leased job with its outcome dict.

        The ack is honored only while the caller still owns the lease;
        a late ack (lease expired, job redelivered) returns ``False``
        and changes nothing -- the redelivered execution's result wins.
        """
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET status='done', result=?, result_status=?,"
                " lease_owner=NULL, lease_deadline=NULL, finished_at=?"
                " WHERE id=? AND status='leased' AND lease_owner=?",
                (json.dumps(result, default=repr),
                 str(result.get("status", "error")),
                 time.time(), job_id, worker_id))
            accepted = cursor.rowcount > 0
            _TM_ACKS.labels("yes" if accepted else "no").inc()
            return accepted

    def nack(self, job_id: str, worker_id: str, error: str,
             requeue: bool = True) -> bool:
        """Hand a leased job back (requeued, or failed when out of budget)."""
        now = time.time()
        with self._txn() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs WHERE id=?"
                " AND status='leased' AND lease_owner=?",
                (job_id, worker_id)).fetchone()
            if row is None:
                return False
            if requeue and row["attempts"] < row["max_attempts"]:
                conn.execute(
                    "UPDATE jobs SET status='queued', lease_owner=NULL,"
                    " lease_deadline=NULL, error=? WHERE id=?",
                    (error, job_id))
                _TM_NACKS.labels("yes").inc()
            else:
                conn.execute(
                    "UPDATE jobs SET status='failed', lease_owner=NULL,"
                    " lease_deadline=NULL, error=?, finished_at=?"
                    " WHERE id=?", (error, now, job_id))
                _TM_NACKS.labels("no").inc()
            return True

    # -- observing ---------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._conn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
            return _row_to_job(row) if row is not None else None

    def _rows_by_id(self, select: str, job_ids: Sequence[str],
                    params: Sequence[object] = ()) -> list:
        """The rows of ``select ... WHERE id IN (job_ids)``, queried in
        chunks that stay under SQLite's bound-parameter limit."""
        rows: list = []
        ids = list(job_ids)
        if not ids:
            return rows
        with self._conn() as conn:
            for start in range(0, len(ids), 500):
                chunk = ids[start:start + 500]
                marks = ",".join("?" * len(chunk))
                rows += conn.execute(f"{select} WHERE id IN ({marks})",
                                     [*params, *chunk]).fetchall()
        return rows

    def fetch(self, job_ids: Sequence[str]) -> Dict[str, Job]:
        """Bulk :meth:`get` (one query per 500 ids)."""
        return {row["id"]: _row_to_job(row) for row in
                self._rows_by_id("SELECT * FROM jobs", job_ids)}

    def statuses(self, job_ids: Sequence[str]) -> Dict[str, str]:
        """Status per job id, without decoding rows: the campaign result
        loop's read.  An expired lease reads ``queued``, as in
        :meth:`depth`."""
        return {row["id"]: row["bucket"] for row in self._rows_by_id(
            f"SELECT id, {_BUCKET} AS bucket FROM jobs",
            job_ids, (time.time(),))}

    def depth(self) -> Dict[str, int]:
        """Job count per status (expired leases count as queued)."""
        now = time.time()
        counts = {status: 0 for status in JOB_STATUSES}
        with self._conn() as conn:
            for row in conn.execute(
                    f"SELECT {_BUCKET} AS bucket,"
                    " COUNT(*) AS n FROM jobs GROUP BY bucket", (now,)):
                counts[row["bucket"]] = counts.get(row["bucket"], 0) + row["n"]
        return counts

    def pending(self) -> int:
        """Jobs not yet finished (queued + leased, expired or not)."""
        depth = self.depth()
        return depth["queued"] + depth["leased"]

    # -- counters ----------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment a named durable counter (see :meth:`counters`)."""
        with self._conn() as conn:
            conn.execute(
                "INSERT INTO counters (name, value) VALUES (?, ?)"
                " ON CONFLICT(name) DO UPDATE SET value = value + ?",
                (name, int(amount), int(amount)))

    def counters(self) -> Dict[str, int]:
        with self._conn() as conn:
            return {row["name"]: row["value"]
                    for row in conn.execute("SELECT name, value FROM counters")}

    def stats(self) -> Dict[str, object]:
        """The broker section of the service's ``/stats`` document."""
        return {
            "path": str(self.path),
            "jobs": self.depth(),
            "counters": self.counters(),
        }

    # -- fleet telemetry ---------------------------------------------------------------

    def publish_worker_metrics(self, worker_id: str,
                               snapshot: Dict[str, object]) -> None:
        """Store one worker's metrics snapshot (idempotent upsert).

        Workers publish their process-local telemetry registry (plus
        busy/heartbeat state) through the broker because it is the one
        piece of infrastructure every fleet member already shares; the
        front end folds the snapshots into ``/stats`` and relabels them
        into ``/metrics``.
        """
        with self._conn() as conn:
            conn.execute(
                "INSERT INTO worker_metrics (worker_id, snapshot, updated_at)"
                " VALUES (?, ?, ?) ON CONFLICT(worker_id) DO UPDATE SET"
                " snapshot=excluded.snapshot, updated_at=excluded.updated_at",
                (worker_id, json.dumps(snapshot, default=repr), time.time()))

    def worker_metrics(self, max_age: Optional[float] = 300.0) \
            -> Dict[str, Dict[str, object]]:
        """Published worker snapshots fresher than ``max_age`` seconds.

        Returns ``{worker_id: {"snapshot": ..., "updated_at": ...}}``;
        a worker that stopped publishing simply ages out of the view
        (its row is physically removed by :meth:`gc`).
        """
        cutoff = time.time() - max_age if max_age is not None else None
        out: Dict[str, Dict[str, object]] = {}
        with self._conn() as conn:
            for row in conn.execute(
                    "SELECT worker_id, snapshot, updated_at"
                    " FROM worker_metrics ORDER BY worker_id"):
                if cutoff is not None and row["updated_at"] < cutoff:
                    continue
                out[row["worker_id"]] = {
                    "snapshot": json.loads(row["snapshot"]),
                    "updated_at": row["updated_at"],
                }
        return out

    # -- campaign records --------------------------------------------------------------

    def put_campaign(self, campaign_id: str, record: Dict[str, object],
                     keep: Optional[int] = None) -> None:
        """Persist one campaign record (idempotent upsert).

        Campaign records used to live only in front-end memory; storing
        the (wire-encoded) record in the broker makes ``GET
        /campaigns/<id>`` and its stream survive front-end restarts.
        ``keep`` bounds the table to the newest N records, so an
        always-on deployment does not grow without bound.
        """
        created = float(record.get("created_at") or time.time())
        with self._txn() as conn:
            conn.execute(
                "INSERT INTO campaigns (id, record, created_at)"
                " VALUES (?, ?, ?) ON CONFLICT(id) DO UPDATE SET"
                " record=excluded.record, created_at=excluded.created_at",
                (campaign_id, json.dumps(record, default=repr), created))
            if keep is not None:
                conn.execute(
                    "DELETE FROM campaigns WHERE id NOT IN"
                    " (SELECT id FROM campaigns ORDER BY created_at DESC,"
                    " rowid DESC LIMIT ?)", (max(0, int(keep)),))

    def get_campaign(self, campaign_id: str) -> Optional[Dict[str, object]]:
        with self._conn() as conn:
            row = conn.execute(
                "SELECT record FROM campaigns WHERE id = ?",
                (campaign_id,)).fetchone()
            return json.loads(row["record"]) if row is not None else None

    def campaigns(self, limit: Optional[int] = None) \
            -> "list[Dict[str, object]]":
        """Stored campaign records, newest first."""
        query = ("SELECT record FROM campaigns"
                 " ORDER BY created_at DESC, rowid DESC")
        args: tuple = ()
        if limit is not None:
            query += " LIMIT ?"
            args = (int(limit),)
        with self._conn() as conn:
            return [json.loads(row["record"])
                    for row in conn.execute(query, args)]

    def count_campaigns(self) -> int:
        with self._conn() as conn:
            return conn.execute(
                "SELECT COUNT(*) AS n FROM campaigns").fetchone()["n"]

    # -- fleet supervisor state --------------------------------------------------------

    def put_supervisor_state(self, state: Dict[str, object]) -> None:
        """Store the fleet supervisor's latest control-loop state.

        One row in ``meta`` -- the supervisor overwrites it every tick;
        the front end surfaces it as ``/stats["fleet"]`` and derives the
        ``repro_fleet_supervisor_*`` metric families from it.
        """
        doc = dict(state)
        doc.setdefault("updated_at", time.time())
        with self._conn() as conn:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('supervisor_state', ?)"
                " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (json.dumps(doc, default=repr),))

    def supervisor_state(self, max_age: Optional[float] = None) \
            -> Optional[Dict[str, object]]:
        """The last published supervisor state, or ``None``.

        ``max_age`` treats a state older than that many seconds as
        departed (a dead supervisor should not masquerade as live).
        """
        with self._conn() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'supervisor_state'"
            ).fetchone()
        if row is None:
            return None
        try:
            doc = json.loads(row["value"])
        except ValueError:
            return None
        if max_age is not None and \
                time.time() - float(doc.get("updated_at", 0.0)) > max_age:
            return None
        return doc

    # -- retention ---------------------------------------------------------------------

    def gc(self, max_age: Optional[float] = None,
           keep: Optional[int] = None,
           vacuum: bool = True,
           dry_run: bool = False) -> Dict[str, object]:
        """Apply retention to terminal jobs and compact the database.

        ``max_age`` deletes done/failed jobs whose ``finished_at`` is
        older than that many seconds; ``keep`` then bounds the number of
        terminal jobs retained (newest first).  Queued and leased jobs
        are never touched.  Stale ``worker_metrics`` rows (no heartbeat
        for ``WORKER_METRICS_MAX_AGE`` seconds) are dropped in the same
        sweep.  Deleting a done job does not lose its outcome when a
        shared result cache is in use -- the cache entry under the same
        key keeps answering -- so retention is safe to run aggressively
        on cache-backed deployments.

        ``dry_run`` reports what *would* be deleted without changing
        anything.  Returns a report dict (the ``python -m repro.service
        gc`` output).  A negative or non-finite ``max_age`` and a
        negative ``keep`` raise ``ValueError``: neither may read as
        "delete every terminal job".
        """
        if max_age is not None:
            max_age = float(max_age)
            if not (math.isfinite(max_age) and max_age >= 0.0):
                raise ValueError(
                    f"max_age must be finite and >= 0, not {max_age!r}")
        if keep is not None:
            keep = int(keep)
            if keep < 0:
                raise ValueError(f"keep must be >= 0, not {keep!r}")
        now = time.time()
        bytes_before = self.path.stat().st_size if self.path.exists() else 0
        terminal = "status IN ('done', 'failed')"
        deleted_by_age = deleted_by_count = deleted_snapshots = 0
        deleted_campaigns = 0
        with self._txn() as conn:
            if max_age is not None:
                clause = (f"{terminal} AND finished_at IS NOT NULL"
                          " AND finished_at < ?")
                args = (now - max_age,)
                if dry_run:
                    deleted_by_age = conn.execute(
                        f"SELECT COUNT(*) AS n FROM jobs WHERE {clause}",
                        args).fetchone()["n"]
                else:
                    deleted_by_age = conn.execute(
                        f"DELETE FROM jobs WHERE {clause}", args).rowcount
            if keep is not None:
                clause = (f"{terminal} AND id NOT IN (SELECT id FROM jobs"
                          f" WHERE {terminal} ORDER BY finished_at DESC,"
                          " rowid DESC LIMIT ?)")
                args = (keep,)
                if dry_run:
                    deleted_by_count = conn.execute(
                        f"SELECT COUNT(*) AS n FROM jobs WHERE {clause}",
                        args).fetchone()["n"]
                else:
                    deleted_by_count = conn.execute(
                        f"DELETE FROM jobs WHERE {clause}", args).rowcount
            snap_clause = "updated_at < ?"
            snap_args = (now - self.WORKER_METRICS_MAX_AGE,)
            if dry_run:
                deleted_snapshots = conn.execute(
                    f"SELECT COUNT(*) AS n FROM worker_metrics"
                    f" WHERE {snap_clause}", snap_args).fetchone()["n"]
            else:
                deleted_snapshots = conn.execute(
                    f"DELETE FROM worker_metrics WHERE {snap_clause}",
                    snap_args).rowcount
            if max_age is not None:
                # campaign records age out with the jobs they referenced
                camp_args = (now - max_age,)
                if dry_run:
                    deleted_campaigns = conn.execute(
                        "SELECT COUNT(*) AS n FROM campaigns"
                        " WHERE created_at < ?", camp_args).fetchone()["n"]
                else:
                    deleted_campaigns = conn.execute(
                        "DELETE FROM campaigns WHERE created_at < ?",
                        camp_args).rowcount
            remaining = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs").fetchone()["n"]
        deleted_jobs = deleted_by_age + deleted_by_count
        vacuumed = False
        if vacuum and not dry_run:
            with self._conn() as conn:
                conn.execute("VACUUM")
            vacuumed = True
        if deleted_jobs and not dry_run:
            _TM_GC_DELETED.inc(deleted_jobs)
            self.incr("gc_deleted_jobs", deleted_jobs)
        bytes_after = self.path.stat().st_size if self.path.exists() else 0
        return {
            "dry_run": dry_run,
            "deleted_by_age": deleted_by_age,
            "deleted_by_count": deleted_by_count,
            "deleted_jobs": deleted_jobs,
            "deleted_worker_snapshots": deleted_snapshots,
            "deleted_campaigns": deleted_campaigns,
            "remaining_jobs": remaining,
            "vacuumed": vacuumed,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
        }

    # -- executed simulations ----------------------------------------------------------

    def record_runtime(self) -> None:
        """Count one simulation a worker executed (``simulations``).

        The one call a worker makes per executed job; it stays a method
        of its own because ``perfbench/tracer.py`` wraps it by name (the
        ``worker.history`` span).
        """
        self.incr("simulations")
