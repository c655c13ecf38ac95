"""Live fleet observability: ``python -m repro.watch --url http://...``.

A dashboard over the :mod:`repro.service` HTTP API, and the one way to
read a fleet's status (``--once`` prints it a single time, ``--once
--json`` adds the raw ``/stats`` document).  The package is a thin
vertical slice with two layers:

* :mod:`repro.watch.client` -- a polling client over ``/healthz``,
  ``/stats``, ``/metrics`` and ``/campaigns``, which digests each poll into a :class:`~repro.watch.client.FleetSnapshot`
  (queue depth, per-worker state, campaign progress, and rates derived
  from successive counter readings: steps/sec, simulations/sec,
  cache-hit and coalescing fractions).
* :mod:`repro.watch.render` -- a stdlib plain-text renderer (tables +
  unicode sparklines) used by ``--once`` snapshots and the live redraw
  loop alike.

Everything is stdlib: no mode needs a TTY or a third-party package,
which keeps the subsystem CI-testable.
"""

from repro.watch.client import FleetSnapshot, WatchClient
from repro.watch.render import render_snapshot, sparkline

__all__ = ["FleetSnapshot", "WatchClient", "render_snapshot", "sparkline"]
