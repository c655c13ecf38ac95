"""The fleet supervisor: a control loop that owns worker processes.

Each :meth:`FleetSupervisor.tick`:

1. **reaps exits** -- a surge worker exiting 0 retired gracefully
   (``--exit-when-idle``); any other exit is a crash;
2. **reaps zombies** -- a supervised process that is alive but whose
   broker heartbeat went stale is killed and counted as a crash;
3. **observes** -- queue depth from the broker plus live workers
   (supervised processes and external workers with fresh heartbeats);
4. **decides** via the pure :class:`~repro.fleet.policy.FleetPolicy`;
5. **applies** -- spawns workers (floor workers run open-ended, surge
   workers carry ``--exit-when-idle`` so retirement is just the queue
   draining), unless a crash's exponential-backoff window or the
   crash-loop circuit breaker says otherwise;
6. **publishes** its state (a :class:`repro.wire.SupervisorState`) into
   the broker, where the front end surfaces it as ``/stats["fleet"]``
   and the ``repro_fleet_supervisor_*`` metric families.

Crash handling: consecutive short-lived crashes grow an exponential
backoff (``BACKOFF_BASE * 2**(n-1)``, capped at ``BACKOFF_CAP``); at
``BREAKER_THRESHOLD`` consecutive crashes the circuit breaker opens for
``BREAKER_COOLDOWN`` seconds -- a worker command that cannot start does
not spin the host.  A worker that survives ``MIN_UPTIME`` seconds (or
retires cleanly) resets the crash count.  These timings are class
constants of :class:`FleetSupervisor`; tests patch them.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro import wire
from repro.campaign.backends._spawn import (
    close_worker_logs,
    spawn_module_worker,
    terminate_workers,
    worker_stderr_tail,
)
from repro.fleet.policy import Decision, FleetObservation, FleetPolicy
from repro.service import layout
from repro.service.broker import JobBroker

__all__ = ["FleetSupervisor", "ManagedWorker"]


class ManagedWorker:
    """One supervised worker process."""

    def __init__(self, process, worker_id: str, kind: str):
        self.process = process
        self.worker_id = worker_id
        #: "floor" workers run open-ended; "surge" workers carry
        #: ``--exit-when-idle`` and retire themselves when the queue drains
        self.kind = kind
        self.spawned_mono = time.monotonic()
        self.spawned_wall = time.time()


class FleetSupervisor:
    """Scale, restart and reap queue workers against one broker."""

    #: seconds between control-loop ticks
    INTERVAL = 1.0
    #: a supervised process whose published heartbeat is older than
    #: this (after a startup grace of the same length) is a zombie
    STALE_HEARTBEAT = 60.0
    #: a worker living this long resets the consecutive-crash count
    MIN_UPTIME = 5.0
    #: first-crash respawn delay; doubles per consecutive crash
    BACKOFF_BASE = 0.5
    #: upper bound on the respawn delay
    BACKOFF_CAP = 30.0
    #: consecutive crashes that open the crash-loop circuit breaker
    BREAKER_THRESHOLD = 5
    #: seconds the breaker stays open before a half-open retry
    BREAKER_COOLDOWN = 60.0

    def __init__(
        self,
        broker: Optional[JobBroker] = None,
        data_dir: Union[str, Path, None] = None,
        policy: Optional[FleetPolicy] = None,
        spawn_fn: Optional[Callable[[str, str], object]] = None,
    ):
        if broker is None:
            if data_dir is None:
                raise ValueError("FleetSupervisor needs data_dir or broker")
            broker = layout.open_broker(data_dir)
        self.broker = broker
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.policy = policy or FleetPolicy()
        #: injectable for tests: ``(worker_id, kind) -> Popen-like``
        self._spawn_fn = spawn_fn

        self.supervisor_id = f"{socket.gethostname()}:{os.getpid()}"
        self.workers: List[ManagedWorker] = []
        #: ids of workers we once managed: their final published
        #: heartbeat must not be double-counted as an external worker
        self._former_ids: set = set()
        self.ticks = 0
        self.spawns = 0
        self.retires = 0
        self.crashes = 0
        self.zombies_reaped = 0
        self.breaker_trips = 0
        self.consecutive_crashes = 0
        self.last_decision: Optional[Decision] = None
        self.last_crash_detail = ""
        self._backoff_until = 0.0
        self._breaker_opened_at: Optional[float] = None

    # -- spawning ----------------------------------------------------------------------

    def _default_spawn(self, worker_id: str, kind: str):
        args = ["--worker-id", worker_id]
        if self.data_dir is not None:
            args = ["--data", str(self.data_dir)] + args
        else:
            args = ["--broker", str(self.broker.path)] + args
        if kind == "surge":
            args.append("--exit-when-idle")
        return spawn_module_worker("repro.service.worker", args)

    def _spawn(self, kind: str) -> ManagedWorker:
        worker_id = (f"fleet-{self.supervisor_id}-"
                     f"{uuid.uuid4().hex[:6]}")
        spawn = self._spawn_fn or self._default_spawn
        worker = ManagedWorker(spawn(worker_id, kind), worker_id, kind)
        self.workers.append(worker)
        self.spawns += 1
        return worker

    # -- crash accounting --------------------------------------------------------------

    def _record_crash(self, now_mono: float, uptime: float,
                      detail: str) -> None:
        self.crashes += 1
        self.last_crash_detail = detail
        if uptime < self.MIN_UPTIME:
            self.consecutive_crashes += 1
        else:
            # a crash after healthy uptime starts a fresh streak
            self.consecutive_crashes = 1
        delay = min(self.BACKOFF_CAP,
                    self.BACKOFF_BASE * 2 ** (self.consecutive_crashes - 1))
        self._backoff_until = max(self._backoff_until, now_mono + delay)
        if self.consecutive_crashes >= self.BREAKER_THRESHOLD \
                and self._breaker_opened_at is None:
            self._breaker_opened_at = now_mono
            self.breaker_trips += 1

    def _breaker_open(self, now_mono: float) -> bool:
        if self._breaker_opened_at is None:
            return False
        if now_mono - self._breaker_opened_at >= self.BREAKER_COOLDOWN:
            # half-open: allow a fresh attempt; a further crash loop
            # re-opens the breaker after BREAKER_THRESHOLD crashes
            self._breaker_opened_at = None
            self.consecutive_crashes = 0
            return False
        return True

    # -- reaping -----------------------------------------------------------------------

    def _reap_exits(self, now_mono: float) -> None:
        for worker in list(self.workers):
            code = worker.process.poll()
            if code is None:
                continue
            self.workers.remove(worker)
            self._former_ids.add(worker.worker_id)
            uptime = now_mono - worker.spawned_mono
            if worker.kind == "surge" and code == 0:
                self.retires += 1
                if uptime >= self.MIN_UPTIME:
                    self.consecutive_crashes = 0
                close_worker_logs([worker.process])
                continue
            detail = worker_stderr_tail([worker.process]) or \
                f"; worker pid {worker.process.pid} exited {code}"
            self._record_crash(now_mono, uptime,
                               f"{worker.worker_id} exited {code}{detail}")
            close_worker_logs([worker.process])

    def _reap_zombies(self, now_mono: float, now_wall: float) -> None:
        if not self.workers:
            return
        published = self.broker.worker_metrics(max_age=None)
        for worker in list(self.workers):
            if worker.process.poll() is not None:
                continue  # a plain exit; _reap_exits handles it next tick
            record = published.get(worker.worker_id)
            last_beat = record["updated_at"] if record else None
            # startup grace: a fresh spawn has not published yet
            reference = last_beat if last_beat is not None \
                else worker.spawned_wall
            if now_wall - reference <= self.STALE_HEARTBEAT:
                if last_beat is not None and worker.process.poll() is None:
                    # a worker that lived past MIN_UPTIME proves the
                    # command itself is viable
                    uptime = now_mono - worker.spawned_mono
                    if uptime >= self.MIN_UPTIME and self.consecutive_crashes:
                        self.consecutive_crashes = 0
                continue
            terminate_workers([worker.process])
            self.workers.remove(worker)
            self._former_ids.add(worker.worker_id)
            self.zombies_reaped += 1
            self._record_crash(
                now_mono, now_mono - worker.spawned_mono,
                f"{worker.worker_id} reaped: heartbeat stale for "
                f"{now_wall - reference:.0f}s")

    # -- observing ---------------------------------------------------------------------

    def observe(self, now_mono: Optional[float] = None) -> FleetObservation:
        now_mono = time.monotonic() if now_mono is None else now_mono
        depth = self.broker.depth()
        known = {worker.worker_id for worker in self.workers} | \
            self._former_ids
        external = [worker_id for worker_id in self.broker.worker_metrics(
            max_age=self.STALE_HEARTBEAT) if worker_id not in known]
        return FleetObservation(
            queued=depth["queued"],
            leased=depth["leased"],
            live_workers=len(self.workers) + len(external),
            in_backoff=now_mono < self._backoff_until,
            breaker_open=self._breaker_open(now_mono),
        )

    # -- the loop ----------------------------------------------------------------------

    def tick(self) -> Decision:
        """One full observe-decide-apply-publish iteration."""
        now_mono = time.monotonic()
        now_wall = time.time()
        self.ticks += 1
        self._reap_exits(now_mono)
        self._reap_zombies(now_mono, now_wall)
        obs = self.observe(now_mono)
        decision = self.policy.decide(obs)
        if decision.action == "scale_up":
            for _ in range(decision.count):
                kind = "floor" if len(self.workers) < self.policy.min_workers \
                    else "surge"
                self._spawn(kind)
        # "retire" needs no action: surge workers carry --exit-when-idle
        # and leave on their own once nothing is queued or leased
        self.last_decision = decision
        live = self.observe(now_mono).live_workers
        self.publish(now_mono, now_wall, live)
        return decision

    def state(self, now_mono: Optional[float] = None,
              live: Optional[int] = None) -> wire.SupervisorState:
        now_mono = time.monotonic() if now_mono is None else now_mono
        if live is None:
            live = self.observe(now_mono).live_workers
        decision = self.last_decision
        return wire.SupervisorState(
            supervisor_id=self.supervisor_id,
            live_workers=live,
            managed_workers=len(self.workers),
            worker_floor=self.policy.min_workers,
            worker_ceiling=self.policy.max_workers,
            spawns=self.spawns,
            retires=self.retires,
            crashes=self.crashes,
            zombies_reaped=self.zombies_reaped,
            consecutive_crashes=self.consecutive_crashes,
            breaker_open=self._breaker_open(now_mono),
            breaker_trips=self.breaker_trips,
            in_backoff=now_mono < self._backoff_until,
            backoff_seconds=max(0.0, self._backoff_until - now_mono),
            last_action=decision.action if decision else "",
            last_reason=decision.reason if decision else "",
            ticks=self.ticks,
            interval=self.INTERVAL,
        )

    def publish(self, now_mono: Optional[float] = None,
                now_wall: Optional[float] = None,
                live: Optional[int] = None) -> None:
        doc = wire.encode(self.state(now_mono, live))
        doc["updated_at"] = time.time() if now_wall is None else now_wall
        self.broker.put_supervisor_state(doc)

    def run(self, max_ticks: Optional[int] = None) -> int:
        """Tick every ``INTERVAL`` seconds, ``max_ticks`` times or forever.

        Returns the number of ticks run.  On exit, KeyboardInterrupt
        included, every supervised worker is terminated -- the
        supervisor owns its processes.
        """
        ran = 0
        try:
            while max_ticks is None or ran < max_ticks:
                self.tick()
                ran += 1
                if ran == max_ticks:
                    break
                time.sleep(self.INTERVAL)
        finally:
            self.shutdown()
        return ran

    def shutdown(self) -> None:
        """Terminate every supervised worker and publish a final state."""
        terminate_workers([worker.process for worker in self.workers])
        self.workers = []
        try:
            self.publish()
        except OSError:
            pass
