#!/usr/bin/env python
"""Hot-path benchmark: cross-step linearization/LU caching vs the reference.

For every (linear circuit, method) pair the transient runs once on the
uncached reference (:class:`repro.verify.reference.UncachedReference`:
per-step re-assembly, a fresh factorization and ordering for every LU)
and once with the default :class:`repro.core.workspace.LinearizationCache`,
measuring

* steps per second of the integrator's time loop,
* LU factorizations vs counted cache reuses (``#LU`` stays honest), and
* the maximum absolute state-trajectory difference between the two modes
  (the cache is exact: the expected difference is 0.0).

Results land in ``benchmarks/output/BENCH_hotpath.json``; the rows minus
their timings (:data:`TIMED_FIELDS`) go to the committed
``benchmarks/records/hotpath-<mode>.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI sizes
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check    # assert targets

``--check`` enforces the acceptance targets on the headline case (ER on
the PWL-ramp-driven RC mesh): >= 3x steps/sec with the cache on, O(1) LU
factorizations per run, at most one invert-Krylov basis per input plus
one (the linear superposition), and bit-identical trajectories.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from _records import write_record
from repro import SimOptions, TransientSimulator
from repro.benchcircuits.registry import build_circuit
from repro.circuit.sources import PWL
from repro.verify.reference import reference_simulator

OUTPUT_DIR = Path(__file__).parent / "output"

#: methods timed on every case (all linear-circuit capable)
METHODS = ["er", "benr", "trap", "gear2"]

#: the acceptance-checked configuration
HEADLINE = ("rc_mesh_ramp", "er")

#: row fields that vary from run to run: the committed record omits them
TIMED_FIELDS = ("runtime_seconds", "steps_per_second", "speedup")


def ramp(t_stop: float) -> PWL:
    """Full-horizon supply ramp: every step carries a nonzero Eq. 13 slope."""
    return PWL([(0.0, 0.0), (t_stop, 1.0)])


def suite(smoke: bool):
    """(name, factory, params, sim options) for the linear benchmark suite."""
    if smoke:
        t_mesh = 0.5e-9
        cases = [
            ("rc_mesh_ramp", "rc_mesh",
             dict(rows=8, cols=8, coupling_fraction=0.5, drive=ramp(t_mesh)),
             dict(t_stop=t_mesh, h_init=2e-12)),
            ("rc_mesh_pulse", "rc_mesh",
             dict(rows=8, cols=8, coupling_fraction=0.5),
             dict(t_stop=0.25e-9, h_init=2e-12)),
            ("rc_ladder", "rc_ladder", dict(num_segments=60),
             dict(t_stop=0.25e-9, h_init=2e-12)),
            ("coupled_lines", "coupled_lines",
             dict(num_lines=4, segments_per_line=6, long_range_fraction=0.3),
             dict(t_stop=0.25e-9, h_init=2e-12)),
        ]
    else:
        t_mesh = 2e-9
        cases = [
            # h_max pinned so the run spends ~80 steps at a constant step
            # size: long enough that per-run timing noise stays well below
            # the measured speedup
            ("rc_mesh_ramp", "rc_mesh",
             dict(rows=20, cols=20, coupling_fraction=0.5, drive=ramp(t_mesh)),
             dict(t_stop=t_mesh, h_init=2e-12, h_max=2.5e-11)),
            ("rc_mesh_pulse", "rc_mesh",
             dict(rows=32, cols=32, coupling_fraction=0.5),
             dict(t_stop=0.5e-9, h_init=2e-12)),
            ("rc_ladder", "rc_ladder", dict(num_segments=400),
             dict(t_stop=0.5e-9, h_init=2e-12)),
            ("power_grid", "power_grid", dict(rows=12, cols=12),
             dict(t_stop=0.5e-9, h_init=2e-12)),
            ("coupled_lines", "coupled_lines",
             dict(num_lines=8, segments_per_line=10, long_range_fraction=0.3),
             dict(t_stop=0.5e-9, h_init=2e-12)),
        ]
    return cases


def run_once(mna, method: str, sim_kwargs: dict, cached: bool):
    options = SimOptions(store_states=True, **sim_kwargs)
    make = TransientSimulator if cached else reference_simulator
    simulator = make(mna, method=method, options=options)
    simulator.run_dc()  # excluded from the timed transient loop
    result = simulator.run()
    if not result.stats.completed:
        raise RuntimeError(
            f"{method} failed ({'cached' if cached else 'uncached'}): "
            f"{result.stats.failure_reason}"
        )
    return result


def measure(mna, method: str, sim_kwargs: dict, cached: bool, repeats: int):
    """Best-of-N transient runtime (the integrator's own clock)."""
    run_once(mna, method, sim_kwargs, cached)  # untimed warmup
    best = None
    for _ in range(repeats):
        result = run_once(mna, method, sim_kwargs, cached)
        if best is None or result.stats.runtime_seconds < best.stats.runtime_seconds:
            best = result
    return best


def mode_record(result) -> dict:
    stats = result.stats
    runtime = stats.runtime_seconds
    return {
        "steps": stats.num_steps,
        "runtime_seconds": runtime,
        "steps_per_second": stats.num_steps / runtime if runtime > 0 else None,
        "lu_factorizations": stats.lu.num_factorizations,
        "lu_reused": stats.lu.num_reused,
        "krylov_builds": stats.mevp.num_evaluations - stats.mevp.num_basis_reuses,
        "avg_krylov_dim": round(stats.average_krylov_dimension, 2),
    }


def bench_case(name, factory, params, sim_kwargs, repeats):
    mna = build_circuit(factory, **params).build()
    rows = []
    for method in METHODS:
        off = measure(mna, method, sim_kwargs, cached=False, repeats=repeats)
        on = measure(mna, method, sim_kwargs, cached=True, repeats=repeats)
        if off.state_array.shape == on.state_array.shape:
            max_diff = float(np.abs(off.state_array - on.state_array).max())
        else:
            max_diff = float("inf")
        off_rec, on_rec = mode_record(off), mode_record(on)
        speedup = (off_rec["runtime_seconds"] / on_rec["runtime_seconds"]
                   if on_rec["runtime_seconds"] > 0 else None)
        rows.append({
            "case": name,
            "method": off.stats.method,
            "n": mna.n,
            "inputs": mna.num_inputs,
            "uncached": off_rec,
            "cached": on_rec,
            "speedup": speedup,
            "max_state_diff": max_diff,
        })
        print(f"  {name:16s} {off.stats.method:6s} n={mna.n:5d} "
              f"steps={off_rec['steps']:4d} "
              f"steps/s {off_rec['steps_per_second']:9.0f} -> {on_rec['steps_per_second']:9.0f} "
              f"({speedup:5.2f}x)  #LU {off_rec['lu_factorizations']:4d} -> "
              f"{on_rec['lu_factorizations']:3d} (+{on_rec['lu_reused']} reused)  "
              f"maxdiff {max_diff:.1e}")
    return rows


def check_acceptance(rows, smoke: bool) -> list:
    """Return a list of failed acceptance criteria (empty = pass).

    The 3x steps/sec target applies to the full sizes only: at smoke
    sizes (n < 100) interpreter overhead, not linear algebra, bounds the
    step rate.  The exactness and LU-count checks always apply.
    """
    failures = []
    for row in rows:
        if not row["max_state_diff"] <= 1e-12:
            failures.append(
                f"{row['case']}/{row['method']}: trajectory diff "
                f"{row['max_state_diff']:.3e} exceeds 1e-12"
            )
    headline = [r for r in rows
                if r["case"] == HEADLINE[0] and r["method"].lower() == HEADLINE[1]]
    if not headline:
        failures.append(f"headline case {HEADLINE} missing from results")
        return failures
    row = headline[0]
    if not smoke and not (row["speedup"] and row["speedup"] >= 3.0):
        failures.append(
            f"headline ER speedup {row['speedup']:.2f}x below the 3x target"
        )
    # O(1) LU for a linear run: one for G (the DC solve is outside the loop)
    if row["cached"]["lu_factorizations"] > 2:
        failures.append(
            f"headline cached run used {row['cached']['lu_factorizations']} "
            "LU factorizations (expected O(1))"
        )
    if row["cached"]["lu_reused"] < row["cached"]["steps"] - 1:
        failures.append("headline cached run under-reports LU reuses")
    # linear PWL circuit: one basis per input (plus one for a start away
    # from the DC point), however many steps the run takes
    if row["cached"]["krylov_builds"] > row["inputs"] + 1:
        failures.append(
            f"headline cached run built {row['cached']['krylov_builds']} Krylov "
            f"bases for {row['inputs']} inputs (expected at most inputs + 1)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny circuit sizes (CI smoke run)")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance targets on the headline case")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per configuration (best is kept)")
    parser.add_argument("--json", type=Path,
                        default=OUTPUT_DIR / "BENCH_hotpath.json",
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, not {args.repeats}")

    print(f"hot-path benchmark ({'smoke' if args.smoke else 'full'} sizes, "
          f"best of {args.repeats})")
    wall_start = time.perf_counter()
    rows = []
    for name, factory, params, sim_kwargs in suite(args.smoke):
        rows.extend(bench_case(name, factory, params, sim_kwargs, args.repeats))

    mode = "smoke" if args.smoke else "full"
    payload = {
        "benchmark": "hotpath",
        "mode": mode,
        "repeats": args.repeats,
        "headline": f"{HEADLINE[0]}/{HEADLINE[1]}",
        "wall_seconds": time.perf_counter() - wall_start,
        "results": rows,
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    record = write_record("hotpath", mode, rows, TIMED_FIELDS)
    print(f"wrote {args.json} and {record}")

    if args.check:
        failures = check_acceptance(rows, smoke=args.smoke)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        targets = "O(1) LU, bases <= inputs + 1, trajectories <= 1e-12" if args.smoke \
            else "headline >= 3x, O(1) LU, bases <= inputs + 1, trajectories <= 1e-12"
        print(f"acceptance checks passed ({targets})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
