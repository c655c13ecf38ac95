"""Helper module for the backend-contract tests: a circuit factory that
kills its host process the *first* time it is built (per flag file).

``os._exit`` bypasses every exception handler, so building this circuit
simulates a worker crashing mid-scenario -- the failure mode the queue
backend's lease-expiry redelivery exists for.  The flag file makes the
crash one-shot: the worker that picks the job up after redelivery finds
the flag and builds a normal circuit instead.
"""

import os
from pathlib import Path

from repro.benchcircuits import register_circuit_factory
from repro.benchcircuits.rc_networks import rc_ladder


@register_circuit_factory("die_once")
def die_once(flag_path: str, num_segments: int = 3, always: bool = False):
    flag = Path(flag_path)
    if always:
        os._exit(17)  # kill every host that ever builds this circuit
    if not flag.exists():
        flag.write_text("crashed once\n")
        os._exit(17)  # simulate a hard worker crash (no cleanup, no capture)
    return rc_ladder(num_segments=num_segments, name="die_once")
