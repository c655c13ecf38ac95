"""``python -m repro.fleet`` -- run the worker-fleet supervisor.

Point it at the same state the front end serves and it owns the worker
fleet end to end: no workers need to be started by hand, ever::

    python -m repro.service serve --data runs/state --port 8035 &
    python -m repro.fleet --data runs/state --max-workers 8

A fixed pool of N local workers is ``--min-workers N --max-workers N``.
The supervisor scales workers up when the ready queue grows (one worker
per ``FleetPolicy.SCALE_THRESHOLD`` queued jobs, at most
``--max-workers``), lets surge workers retire themselves once the queue
drains (they carry ``--exit-when-idle``), restarts crashes with
exponential backoff behind a crash-loop circuit breaker, and kills
zombie processes whose broker heartbeats went stale.  The timings are
class constants of :class:`~repro.fleet.supervisor.FleetSupervisor`.
SIGTERM and Ctrl-C both stop the supervisor and terminate its workers.
Its own state is published through the broker: the front end shows it
under ``/stats["fleet"]``, as ``repro_fleet_supervisor_*`` metric
families on ``/metrics``, and in ``repro.watch``.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.fleet.policy import FleetPolicy
from repro.fleet.supervisor import FleetSupervisor
from repro.service.broker import JobBroker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=__doc__.splitlines()[0],
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", metavar="DIR", default=None,
                        help="service data directory (as given to "
                             "'repro.service serve --data')")
    source.add_argument("--broker", metavar="FILE", default=None,
                        help="path to the broker SQLite database")
    parser.add_argument("--max-workers", type=int, default=4,
                        help="hard ceiling on live workers (default 4)")
    parser.add_argument("--min-workers", type=int, default=0,
                        help="floor kept alive even with an empty queue "
                             "(default 0: fully scale-to-zero)")
    parser.add_argument("--once", action="store_true",
                        help="run one control-loop tick, then exit")
    args = parser.parse_args(argv)

    policy = FleetPolicy(max_workers=args.max_workers,
                         min_workers=args.min_workers)
    supervisor = FleetSupervisor(
        broker=JobBroker(args.broker) if args.broker else None,
        data_dir=args.data,
        policy=policy,
    )
    try:
        # SIGTERM takes Ctrl-C's path: run() terminates the workers on the
        # way out; SIGINT is installed too, because a process started in
        # the background (`&`) starts with it ignored
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(f"fleet supervisor {supervisor.supervisor_id}: "
              f"workers {policy.min_workers}..{policy.max_workers}, "
              f"threshold {policy.SCALE_THRESHOLD:g} jobs/worker, "
              f"tick every {supervisor.INTERVAL:g}s", file=sys.stderr)
        supervisor.run(max_ticks=1 if args.once else None)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
