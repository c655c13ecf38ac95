"""Live fleet observability: ``python -m repro.watch --url http://...``.

A dashboard over the :mod:`repro.service` HTTP API.  The package is a
thin vertical slice with three layers:

* :mod:`repro.watch.client` -- a polling client over ``/healthz``,
  ``/stats``, ``/metrics`` and ``/campaigns``, which digests each poll into a :class:`~repro.watch.client.FleetSnapshot`
  (queue depth, per-worker state, campaign progress, and rates derived
  from successive counter readings: steps/sec, simulations/sec,
  cache-hit and coalescing fractions).
* :mod:`repro.watch.render` -- a stdlib plain-text renderer (tables +
  unicode sparklines) used by ``--once`` snapshots, ``--json``-less
  scripting, and the no-TTY fallback loop.
* :mod:`repro.watch.app` -- a Textual TUI used automatically when
  `textual <https://textual.textualize.io>`_ is importable and stdout is
  a terminal.  Textual is strictly optional: every feature of the
  dashboard works without it, which keeps the subsystem CI-testable
  (``--once`` / ``--json`` need no TTY and no third-party packages).
"""

from repro.watch.client import FleetSnapshot, WatchClient
from repro.watch.render import render_snapshot, sparkline

__all__ = ["FleetSnapshot", "WatchClient", "render_snapshot", "sparkline"]
