"""CLI for the live fleet dashboard: ``python -m repro.watch``.

Modes
-----
* ``--once``           one poll, print the plain-text dashboard, exit
* ``--once --json``    one poll, print the machine-readable snapshot
* (default, live)      redraw the same plain-text dashboard every
                       ``--interval`` seconds until Ctrl-C

No mode needs a TTY or a third-party package, which is what makes the
dashboard CI-testable.  ``--once --json`` carries the raw ``/stats``
document under ``"stats"``.  With ``--alert-queue-depth``
/ ``--alert-heartbeat-age``, ``--once`` doubles as a health probe: it
exits 2 (one reason line on stderr) when a threshold is violated, so a
cron line or CI step can page on a backed-up queue or a silent worker.
Exit 1 still means "service unreachable".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.watch.client import WatchClient
from repro.watch.render import render_snapshot
from repro.wire.messages import MAX_TIMEOUT_SECONDS

#: ANSI "clear screen, cursor home" used by the live loop
_CLEAR = "\x1b[2J\x1b[H"


def _seconds(text: str) -> float:
    """A positive number of seconds that ``time.sleep`` and socket
    timeouts accept (argparse ``type=``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= MAX_TIMEOUT_SECONDS:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds up to "
            f"{MAX_TIMEOUT_SECONDS:g}, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.watch",
        description="Live operations dashboard for a repro.service fleet.")
    parser.add_argument("--url", default="http://127.0.0.1:8080",
                        help="service front-end base URL "
                             "(default: %(default)s)")
    parser.add_argument("--interval", type=_seconds, default=2.0,
                        help="poll interval in seconds (default: %(default)s)")
    parser.add_argument("--timeout", type=_seconds, default=10.0,
                        help="per-request HTTP timeout (default: %(default)s)")
    parser.add_argument("--once", action="store_true",
                        help="poll once, print a snapshot, exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="with --once: print the snapshot as JSON")
    parser.add_argument("--token", default=None,
                        help="bearer token for a service running with "
                             "--auth-token (default: $REPRO_SERVICE_TOKEN)")
    parser.add_argument("--alert-queue-depth", type=int, default=None,
                        metavar="N",
                        help="with --once: exit 2 if more than N jobs "
                             "are queued")
    parser.add_argument("--alert-heartbeat-age", type=float, default=None,
                        metavar="SECONDS",
                        help="with --once: exit 2 if any published worker "
                             "heartbeat is older than SECONDS")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.as_json and not args.once:
        build_parser().error("--json requires --once")
    has_alerts = args.alert_queue_depth is not None or \
        args.alert_heartbeat_age is not None
    if has_alerts and not args.once:
        build_parser().error("--alert-* thresholds require --once")
    token = args.token if args.token is not None \
        else os.environ.get("REPRO_SERVICE_TOKEN")
    client = WatchClient(args.url, timeout=args.timeout, token=token)

    if args.once:
        snap = client.poll()
        if args.as_json:
            print(json.dumps(snap.to_dict(), indent=2, sort_keys=True,
                             default=repr))
        else:
            sys.stdout.write(render_snapshot(snap))
        if not snap.healthy:
            return 1
        alerts = snap.alerts(max_queue_depth=args.alert_queue_depth,
                             max_heartbeat_age=args.alert_heartbeat_age)
        for line in alerts:
            print(f"ALERT: {line}", file=sys.stderr)
        return 2 if alerts else 0

    # live loop: redraw the same renderer on every poll
    try:
        while True:
            snap = client.poll()
            if sys.stdout.isatty():
                sys.stdout.write(_CLEAR)
            sys.stdout.write(render_snapshot(snap))
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
