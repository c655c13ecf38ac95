"""Service CLI: ``python -m repro.service <serve|worker|submit|gc>``.

A laptop fleet is two shell commands::

    python -m repro.service serve --data ./svc --port 8080
    python -m repro.fleet --data ./svc --min-workers 2 --max-workers 2

(``python -m repro.service worker --data ./svc`` attaches one more worker
by hand, e.g. on another host that shares the directory)

then submit work over HTTP from anywhere::

    python -m repro.service submit --url http://localhost:8080 \
        --circuit rc_ladder --params '{"num_segments": 40}' --method er --wait

print the fleet's status once (``python -m repro.watch --once --url
http://...``; ``--json`` adds the raw ``/stats``) or watch it live
(without ``--once``), scrape ``/metrics`` with Prometheus, and keep a
long-lived broker lean::

    python -m repro.service gc --data ./svc --max-age 7d --keep 10000
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import urllib.error
import urllib.request
from typing import Dict, Optional

#: environment fallback for every token option below, so CI jobs and
#: cron scripts do not have to put secrets on command lines
TOKEN_ENV = "REPRO_SERVICE_TOKEN"


def _resolve_token(token: Optional[str]) -> Optional[str]:
    return token if token is not None else os.environ.get(TOKEN_ENV)


def _http_json(url: str, body: Optional[Dict[str, object]] = None,
               timeout: float = 30.0,
               token: Optional[str] = None) -> Dict[str, object]:
    """One JSON request/response round trip (errors become SystemExit)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url, data=data, headers=headers,
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            document = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            document = {"error": str(exc)}
        raise SystemExit(f"{url}: HTTP {exc.code}: "
                         f"{document.get('error', document)}")
    except urllib.error.URLError as exc:
        raise SystemExit(f"{url}: {exc.reason}")


# -- serve -----------------------------------------------------------------------------


def cmd_serve(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Run the HTTP front end (workers: python -m repro.fleet).")
    parser.add_argument("--data", metavar="DIR", required=True,
                        help="service data directory (created if missing)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        help="reject submissions with 429 + Retry-After "
                             "while this many jobs are already queued")
    parser.add_argument("--auth-token", default=None, metavar="TOKEN",
                        help="require 'Authorization: Bearer TOKEN' on every "
                             "route except /healthz and /metrics "
                             f"(default: ${TOKEN_ENV} if set)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)

    from repro.service.server import ServiceServer

    token = _resolve_token(args.auth_token)
    server = ServiceServer(data_dir=args.data, host=args.host, port=args.port,
                           max_queue_depth=args.max_queue_depth,
                           auth_token=token)
    server.httpd.RequestHandlerClass.verbose = args.verbose
    try:
        # Ctrl-C, kill -INT and SIGTERM all stop the server, also when it
        # was started in the background (`&` starts it with SIGINT ignored)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(f"repro.service listening on {server.url} (data: {args.data}"
              f"{', bearer auth on' if token else ''})", file=sys.stderr)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


# -- worker ----------------------------------------------------------------------------


def cmd_worker(argv) -> int:
    from repro.service.worker import main as worker_main

    return worker_main(argv)


# -- submit ----------------------------------------------------------------------------


def _wait_for_result(url: str, job_id: str, poll: float,
                     token: Optional[str] = None) -> Dict[str, object]:
    import time

    headers = {"Authorization": f"Bearer {token}"} if token else {}
    while True:
        request = urllib.request.Request(f"{url}/jobs/{job_id}/result",
                                         headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                if response.status == 200:
                    return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code != 202:
                raise SystemExit(f"job {job_id}: HTTP {exc.code}")
        time.sleep(poll)


def _json_argument(parser: argparse.ArgumentParser, flag: str,
                   text: str) -> object:
    """``text`` parsed as JSON; malformed JSON is a usage error (exit 2)."""
    try:
        return json.loads(text)
    except ValueError as exc:
        parser.error(f"{flag}: not valid JSON: {exc}")


def cmd_submit(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service submit",
        description="Submit a scenario (or a campaign file) over HTTP.")
    parser.add_argument("--url", default="http://127.0.0.1:8080")
    parser.add_argument("--file", metavar="JSON", default=None,
                        help="campaign submission file: "
                             '{"scenarios": [...], "base_options"?, ...}')
    parser.add_argument("--circuit", default=None,
                        help="registered circuit factory name")
    parser.add_argument("--params", default="{}",
                        help="circuit factory parameters (JSON object)")
    parser.add_argument("--method", default="er")
    parser.add_argument("--name", default=None,
                        help="scenario name (default: circuit/method)")
    parser.add_argument("--options", default="{}",
                        help="scenario option overrides (JSON object)")
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--token", default=None,
                        help="bearer token for a server running with "
                             f"--auth-token (default: ${TOKEN_ENV} if set)")
    parser.add_argument("--wait", action="store_true",
                        help="poll until the result is ready and print it")
    parser.add_argument("--poll", type=float, default=0.5)
    args = parser.parse_args(argv)
    token = _resolve_token(args.token)

    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                body = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"--file: {exc}")
        if not isinstance(body, dict):
            parser.error(f"--file: {args.file} does not hold a JSON object")
        body.setdefault("priority", args.priority)
        document = _http_json(f"{args.url}/campaigns", body, token=token)
        print(json.dumps(document, indent=2))
        return 0

    if not args.circuit:
        parser.error("one of --file or --circuit is required")
    scenario = {
        "name": args.name or f"{args.circuit}/{args.method}",
        "circuit": {"factory": args.circuit,
                    "params": _json_argument(parser, "--params", args.params)},
        "method": args.method,
        "options": _json_argument(parser, "--options", args.options),
    }
    document = _http_json(f"{args.url}/scenarios",
                          {"scenario": scenario, "priority": args.priority},
                          token=token)
    print(json.dumps(document, indent=2))
    if args.wait and "result" not in document:
        result = _wait_for_result(args.url, document["job_id"], args.poll,
                                  token=token)
        print(json.dumps(result, indent=2))
    return 0


# -- gc --------------------------------------------------------------------------------


def _parse_age(text: str) -> float:
    """Seconds from ``"3600"``, ``"90m"``, ``"24h"``, or ``"7d"``.

    Raises ``ValueError`` for a malformed, negative or non-finite age:
    retention must never read one as "delete everything".
    """
    text = text.strip().lower()
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}.get(text[-1:])
    try:
        seconds = float(text[:-1]) * scale if scale is not None \
            else float(text)
    except ValueError:
        raise ValueError(f"not an age: {text!r} "
                         "(seconds, or suffixed: 90m, 24h, 7d)") from None
    if not (math.isfinite(seconds) and seconds >= 0.0):
        raise ValueError(f"age must be finite and not negative: {text!r}")
    return seconds


def cmd_gc(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service gc",
        description="Apply retention to terminal jobs and VACUUM the broker.")
    parser.add_argument("--data", metavar="DIR", default=None,
                        help="service data directory")
    parser.add_argument("--broker", metavar="FILE", default=None,
                        help="broker database path (overrides --data layout)")
    parser.add_argument("--max-age", metavar="AGE", default=None,
                        help="delete done/failed jobs older than AGE "
                             "(seconds, or suffixed: 90m, 24h, 7d)")
    parser.add_argument("--keep", type=int, default=None,
                        help="keep at most this many terminal jobs "
                             "(newest first)")
    parser.add_argument("--no-vacuum", action="store_true",
                        help="skip the SQLite VACUUM after deleting")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be deleted, change nothing")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    args = parser.parse_args(argv)

    if args.data is None and args.broker is None:
        parser.error("one of --data or --broker is required")
    if args.max_age is None and args.keep is None and not args.dry_run:
        parser.error("nothing to do: give --max-age and/or --keep "
                     "(or --dry-run to preview a pure VACUUM)")
    try:
        max_age = _parse_age(args.max_age) if args.max_age is not None \
            else None
    except ValueError as exc:
        parser.error(f"--max-age: {exc}")
    if args.keep is not None and args.keep < 0:
        parser.error(f"--keep must be >= 0, not {args.keep}")

    from repro.service import layout
    from repro.service.broker import JobBroker

    broker = JobBroker(args.broker) if args.broker else \
        layout.open_broker(args.data)
    report = broker.gc(
        max_age=max_age,
        keep=args.keep,
        vacuum=not args.no_vacuum,
        dry_run=args.dry_run,
    )
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    verb = "would delete" if report["dry_run"] else "deleted"
    print(f"{broker.path}: {verb} {report['deleted_jobs']} terminal job(s) "
          f"({report['deleted_by_age']} by age, "
          f"{report['deleted_by_count']} by count) and "
          f"{report['deleted_worker_snapshots']} stale worker snapshot(s); "
          f"{report['remaining_jobs']} job(s) remain")
    if report["vacuumed"]:
        print(f"vacuumed: {report['bytes_before']} -> "
              f"{report['bytes_after']} bytes")
    return 0


COMMANDS = {
    "serve": cmd_serve,
    "worker": cmd_worker,
    "submit": cmd_submit,
    "gc": cmd_gc,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print(f"\ncommands: {', '.join(sorted(COMMANDS))}")
        return 0 if argv else 2
    command = COMMANDS.get(argv[0])
    if command is None:
        print(f"unknown command {argv[0]!r}; "
              f"expected one of {', '.join(sorted(COMMANDS))}", file=sys.stderr)
        return 2
    return command(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
