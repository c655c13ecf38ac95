"""Talk to a running `repro.service` over plain HTTP.

Demonstrates the whole service surface from a client's point of view:
submit the method-shootout campaign, stream progress as results land,
prove request coalescing by resubmitting the identical campaign (zero
additional simulations), and print the fleet dashboard of
`python -m repro.watch --once`.

Start the service first (two shell commands: the front end, and the
fleet supervisor holding two local workers; SIGTERM to the supervisor
stops its workers)::

    python -m repro.service serve --data ./service-data --port 8080
    python -m repro.fleet --data ./service-data --min-workers 2 --max-workers 2

then::

    python examples/service_client.py --url http://127.0.0.1:8080
    python examples/service_client.py --smoke   # tiny campaign (CI)

Only the standard library is needed client-side -- the API is plain
JSON over HTTP, so curl or any language works just as well.
"""

import argparse
import json
import os
import sys
import urllib.error
import urllib.request

#: Authorization header sent with every request; set by main() when a
#: token is configured (--token or $REPRO_SERVICE_TOKEN)
AUTH_HEADERS = {}


def http(url, body=None, timeout=300.0):
    """One JSON request/response round trip."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = dict(AUTH_HEADERS)
    if data:
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        document = json.loads(exc.read() or b"{}")
        raise SystemExit(
            f"{url}: HTTP {exc.code}: {document.get('error', document)}")
    except urllib.error.URLError as exc:
        raise SystemExit(
            f"{url}: {exc.reason} -- is `python -m repro.service serve` "
            f"running (with at least one worker)?")


def build_campaign(smoke: bool):
    """The method-shootout sweep, shaped for an HTTP body."""
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from method_shootout import build_scenarios

    return {
        "scenarios": [s.to_dict() for s in build_scenarios(smoke)],
        "base_options": {"t_stop": 0.25e-9, "h_init": 2e-12,
                         "store_states": False},
        "timeout": 300.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8080",
                        help="service base URL")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny campaign for CI smoke testing")
    parser.add_argument("--token", default=None,
                        help="bearer token for a service running with "
                             "--auth-token (default: $REPRO_SERVICE_TOKEN)")
    args = parser.parse_args()
    url = args.url.rstrip("/")
    token = args.token or os.environ.get("REPRO_SERVICE_TOKEN")
    if token:
        AUTH_HEADERS["Authorization"] = f"Bearer {token}"

    body = build_campaign(args.smoke)
    print(f"submitting {len(body['scenarios'])} scenarios to {url} ...")
    submitted = http(f"{url}/campaigns", body)
    print(f"  campaign {submitted['campaign_id']}: "
          f"{submitted['admitted']} admitted, "
          f"{submitted['coalesced']} coalesced onto in-flight jobs, "
          f"{submitted['cached']} answered from cache")

    # stream progress: one JSON line per scenario as its result lands
    stream_request = urllib.request.Request(
        url + submitted["stream_url"], headers=dict(AUTH_HEADERS))
    with urllib.request.urlopen(stream_request, timeout=1800.0) as stream:
        for line in stream:
            event = json.loads(line)
            if event["event"] == "result":
                print(f"  [done] {event['name']}: {event['result_status']}")
            else:
                print(f"campaign finished: {event['done']}/{event['total']}")

    # fetch one full result document
    first_name, first_job = next(iter(submitted["jobs"].items()))
    result = http(f"{url}/jobs/{first_job}/result")
    print(f"\n{first_name}: {result['summary'].get('#step')} steps in "
          f"{result['summary'].get('RT(s)'):.3g}s "
          f"({result['summary'].get('method')})")

    # coalescing proof: the identical campaign again costs nothing
    sims_before = http(f"{url}/stats")["counters"]["simulations"]
    duplicate = http(f"{url}/campaigns", body)
    sims_after = http(f"{url}/stats")["counters"]["simulations"]
    print(f"\nduplicate submit: {duplicate['cached']} from cache, "
          f"{duplicate['coalesced']} coalesced, "
          f"{sims_after - sims_before} additional simulations")
    if sims_after != sims_before:
        print("ERROR: duplicate campaign triggered simulations",
              file=sys.stderr)
        return 1

    # the fleet's status: the dashboard `python -m repro.watch --once` prints
    from repro.watch import WatchClient, render_snapshot

    print()
    print(render_snapshot(WatchClient(url, token=token).poll()), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
