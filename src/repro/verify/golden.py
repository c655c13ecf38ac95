"""Golden-trajectory store.

A *golden* is a committed reference trajectory: the sampled waveforms of
one scenario, stored as a compressed ``.npz`` next to a JSON metadata
sidecar, keyed by the scenario's content hash
(:func:`repro.campaign.scenario.scenario_hash`).  Waveforms live on the
uniform sample grid the campaign runner already uses, so adaptive-step
differences between machines never shift the stored arrays' shapes and a
campaign outcome can be checked without re-touching the simulator.

Rules of the store:

* every golden carries an explicit absolute **tolerance band**; a check
  fails when any sampled node deviates by more than it;
* regeneration rewrites goldens from a fresh run, but **refuses to
  widen** an existing golden's tolerance band unless explicitly forced
  (``allow_widen=True``) -- loosening a bar must be a deliberate,
  reviewed act, not a side effect of regeneration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.campaign.scenario import Scenario, scenario_hash

__all__ = [
    "GoldenCheck",
    "GoldenStore",
    "ToleranceWideningError",
    "samples_from_result",
]

#: bumped when the on-disk golden layout changes
GOLDEN_FORMAT_VERSION = 1

#: default uniform sample-grid size (matches the campaign runner default)
DEFAULT_SAMPLE_POINTS = 101


class ToleranceWideningError(RuntimeError):
    """Raised when a regeneration would widen an existing golden's band."""


def samples_from_result(result, nodes: Sequence[str],
                        grid: np.ndarray) -> Dict[str, np.ndarray]:
    """Resample a :class:`SimulationResult`'s nodes onto a uniform grid."""
    times = result.time_array
    return {node: np.interp(grid, times, result.voltage(node))
            for node in nodes}


@dataclass
class GoldenCheck:
    """Outcome of comparing a run against one stored golden."""

    scenario_name: str
    key: str
    tolerance: float
    #: worst |run - golden| per node
    errors: Dict[str, float]

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def ok(self) -> bool:
        return self.max_error <= self.tolerance

    def describe(self) -> str:
        return (
            f"golden {self.scenario_name} [{self.key[:12]}]: "
            f"max_err={self.max_error:.3e} tol={self.tolerance:.1e} "
            f"{'ok' if self.ok else 'VIOLATION'}"
        )


class GoldenStore:
    """Filesystem-backed store of golden trajectories."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- paths / keys ---------------------------------------------------------------

    def key(self, scenario: Scenario) -> str:
        return scenario_hash(scenario)

    def data_path(self, scenario: Scenario) -> Path:
        return self.root / f"{self.key(scenario)}.npz"

    def meta_path(self, scenario: Scenario) -> Path:
        return self.root / f"{self.key(scenario)}.json"

    def has(self, scenario: Scenario) -> bool:
        return self.data_path(scenario).exists() and self.meta_path(scenario).exists()

    def keys(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("*.npz"))

    # -- pruning ------------------------------------------------------------------

    def orphans(self, live_keys) -> List[str]:
        """Stored keys no currently-planned scenario produces.

        Goldens are keyed by scenario content hash, so re-parameterizing
        a family silently orphans its old files; ``live_keys`` is the set
        of hashes the current plan would write.
        """
        live = set(live_keys)
        return [key for key in self.keys() if key not in live]

    def prune_orphans(self, live_keys, delete: bool = False) -> List[str]:
        """List (and with ``delete=True`` remove) orphaned goldens.

        Returns the orphaned keys.  Dry-run by default: nothing is
        touched unless ``delete`` is explicitly set -- deleting reviewed
        reference data must be a deliberate act.
        """
        orphans = self.orphans(live_keys)
        if delete:
            for key in orphans:
                for suffix in (".npz", ".json"):
                    path = self.root / f"{key}{suffix}"
                    if path.exists():
                        path.unlink()
        return orphans

    # -- persistence ------------------------------------------------------------------

    def save(
        self,
        scenario: Scenario,
        times: np.ndarray,
        waveforms: Mapping[str, np.ndarray],
        tolerance: float,
        summary: Optional[Mapping[str, object]] = None,
        allow_widen: bool = False,
    ) -> Path:
        """Store (or regenerate) the golden of ``scenario``.

        ``times``/``waveforms`` are the uniform sample grid and the
        per-node samples on it (a campaign outcome's ``sample_times`` /
        ``samples``, or :func:`samples_from_result` for direct runs).

        Raises :class:`ToleranceWideningError` when a golden already
        exists under the same key with a *tighter* tolerance band and
        ``allow_widen`` is False.
        """
        # NaN would pass both this and the refuse-to-widen comparison,
        # and a stored NaN band fails every later check
        if not (math.isfinite(tolerance) and tolerance > 0.0):
            raise ValueError(
                f"golden tolerance must be positive and finite, not {tolerance!r}")
        if not waveforms:
            raise ValueError("golden needs at least one node waveform")
        times = np.asarray(times, dtype=float)
        arrays: Dict[str, np.ndarray] = {}
        for node, values in waveforms.items():
            values = np.asarray(values, dtype=float)
            if values.shape != times.shape:
                raise ValueError(
                    f"waveform {node!r} has shape {values.shape}, "
                    f"grid has {times.shape}"
                )
            arrays[node] = values
        meta_path = self.meta_path(scenario)
        if meta_path.exists() and not allow_widen:
            stored = json.loads(meta_path.read_text()).get("tolerance")
            if stored is not None and tolerance > float(stored):
                raise ToleranceWideningError(
                    f"refusing to widen golden {self.key(scenario)[:12]} "
                    f"({scenario.name}): stored tolerance {stored:g} < "
                    f"requested {tolerance:g}; pass allow_widen=True (CLI: "
                    f"--allow-widen) if the loosening is intentional"
                )
        self.root.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(self.data_path(scenario),
                            __times__=times, **arrays)
        meta = {
            "format_version": GOLDEN_FORMAT_VERSION,
            "key": self.key(scenario),
            "scenario": scenario.to_dict(),
            "nodes": sorted(arrays),
            "tolerance": float(tolerance),
            "sample_points": int(len(times)),
            "t_start": float(times[0]),
            "t_stop": float(times[-1]),
            "summary": dict(summary or {}),
        }
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True,
                                        default=repr) + "\n")
        return self.data_path(scenario)

    def load(self, scenario: Scenario):
        """Return ``(samples, metadata)`` of the stored golden."""
        if not self.has(scenario):
            raise KeyError(
                f"no golden stored for {scenario.name!r} "
                f"(key {self.key(scenario)[:12]}) under {self.root}"
            )
        with np.load(self.data_path(scenario)) as data:
            samples = {name: np.array(data[name]) for name in data.files}
        meta = json.loads(self.meta_path(scenario).read_text())
        return samples, meta

    # -- checking -----------------------------------------------------------------------

    def check(
        self,
        scenario: Scenario,
        times: np.ndarray,
        waveforms: Mapping[str, np.ndarray],
        tolerance: Optional[float] = None,
    ) -> GoldenCheck:
        """Compare fresh samples against the stored golden.

        The fresh samples are interpolated onto the golden's grid, so a
        run sampled on a different (or denser) grid still checks.
        ``tolerance`` overrides the stored band only when *tighter*; the
        stored band is the contract the golden was reviewed under.
        """
        samples, meta = self.load(scenario)
        band = float(meta["tolerance"])
        if tolerance is not None:
            band = min(band, float(tolerance))
        grid = samples["__times__"]
        times = np.asarray(times, dtype=float)
        errors: Dict[str, float] = {}
        for node in meta["nodes"]:
            if node not in waveforms:
                errors[node] = float("inf")
                continue
            run = np.interp(grid, times, np.asarray(waveforms[node], dtype=float))
            errors[node] = float(np.max(np.abs(run - samples[node])))
        return GoldenCheck(
            scenario_name=scenario.name,
            key=self.key(scenario),
            tolerance=band,
            errors=errors,
        )
