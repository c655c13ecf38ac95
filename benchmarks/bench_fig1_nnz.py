"""Fig. 1 regeneration as a scaling sweep: LU fill-in of (C/h + G) vs G.

The paper's Fig. 1 shows spy plots of the FreeCPU post-extraction matrices
and of their LU factors; the quantitative content is the non-zero counts:
the factors of ``G`` stay close to ``nnz(G)``, while the factors of
``(C/h + G)`` -- the Jacobian BENR refactorizes on every step-size change --
fill in worse and worse as the system grows and coupling capacitances
spread ``C`` off the diagonal.

This benchmark sweeps that gap across the large-scale generators
(``large_rc_mesh``, ``pdn_multilayer``) up to >= 50k nodes.  Fill is
measured under the ordering :func:`repro.linalg.sparse_lu.factorize`
chooses: symmetric minimum degree for the structurally symmetric MNA
matrices of these circuits, SuperLU's COLAMD otherwise.  The one-pass
COLAMD fill of the same matrices is recorded alongside (``*_colamd``),
and ``--check`` asserts the chosen ordering never fills worse.  Three
wall-clock costs are measured per point:

* ``t_factor_G``        -- one full factorization of ``G`` (the reusable
  factor of the exponential framework),
* ``t_factor_ChG``      -- one full factorization of ``C/h + G`` with a
  fresh ordering analysis (what BENR pays on a step-size change),
* ``t_refactor_ChG``    -- the same factorization reusing the symbolic
  ordering through :class:`repro.linalg.sparse_lu.SymbolicCache` (what the
  workspace now pays on same-pattern refactorizations).

Usage::

    PYTHONPATH=src python benchmarks/bench_fig1_nnz.py             # full sweep, >= 50k nodes
    PYTHONPATH=src python benchmarks/bench_fig1_nnz.py --smoke     # CI-sized
    PYTHONPATH=src python benchmarks/bench_fig1_nnz.py --check     # assert the fill-in gap

Outputs: ``benchmarks/output/BENCH_fig1_nnz.json`` (machine-readable),
``benchmarks/output/fig1_nnz.txt`` (aligned table), and the committed
``benchmarks/records/fig1_nnz-<mode>.json`` (the rows without their
timings, :data:`TIMED_FIELDS`).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from _records import write_record
from repro.benchcircuits import build_circuit
from repro.linalg.sparse_lu import LUStats, SymbolicCache, factorize, structurally_symmetric
from repro.reporting.tables import format_table

OUTPUT_DIR = Path(__file__).parent / "output"

#: the BENR-Jacobian step size used throughout (matches the old Fig. 1 report)
H = 1e-12

#: row fields that vary from run to run: the committed record omits them
TIMED_FIELDS = ("t_", "refactor_speedup")

#: (case label, factory, params) sweep points.  The scaling column holds the
#: coupling fraction at 5% and grows the mesh to >= 50k nodes; the coupling
#: column holds the size and turns the coupling knob, which is what drags
#: C off the diagonal and blows the (C/h + G) factors up.
FULL_POINTS = [
    ("mesh_50x50_c5", "large_rc_mesh", dict(rows=50, cols=50, coupling_fraction=0.05)),
    ("mesh_50x50_c0", "large_rc_mesh", dict(rows=50, cols=50, coupling_fraction=0.0)),
    ("mesh_50x50_c10", "large_rc_mesh", dict(rows=50, cols=50, coupling_fraction=0.10)),
    ("mesh_50x50_c25", "large_rc_mesh", dict(rows=50, cols=50, coupling_fraction=0.25)),
    ("mesh_100x100_c5", "large_rc_mesh", dict(rows=100, cols=100, coupling_fraction=0.05)),
    ("mesh_150x150_c5", "large_rc_mesh", dict(rows=150, cols=150, coupling_fraction=0.05)),
    ("mesh_224x224_c5", "large_rc_mesh", dict(rows=224, cols=224, coupling_fraction=0.05)),
    ("pdn_2x70x70_c10", "pdn_multilayer", dict(rows=70, cols=70, layers=2, coupling_fraction=0.10)),
]

SMOKE_POINTS = [
    ("mesh_16x16_c0", "large_rc_mesh", dict(rows=16, cols=16, coupling_fraction=0.0)),
    ("mesh_16x16_c25", "large_rc_mesh", dict(rows=16, cols=16, coupling_fraction=0.25)),
    ("mesh_32x32_c5", "large_rc_mesh", dict(rows=32, cols=32, coupling_fraction=0.05)),
    ("pdn_2x12x12_c10", "pdn_multilayer", dict(rows=12, cols=12, layers=2, coupling_fraction=0.10)),
]


def _mean_bandwidth(matrix) -> float:
    """Average |row - col| over the non-zeros (scalar proxy for the spy plot)."""
    coo = matrix.tocoo()
    if coo.nnz == 0:
        return 0.0
    return float(np.mean(np.abs(coo.row - coo.col)))


def measure_point(case: str, factory: str, params: dict, h: float = H) -> dict:
    """Build one sweep circuit and measure the Fig.-1 quantities on it."""
    build_start = time.perf_counter()
    system = build_circuit(factory, **params).build()
    t_build = time.perf_counter() - build_start

    C = system.C_lin.tocsc()
    G = system.G_lin.tocsc()
    ChG = (C / h + G).tocsc()

    stats_g, stats_chg, stats_re = LUStats(), LUStats(), LUStats()
    lu_g = factorize(G, stats=stats_g, label="G")
    symbolic = SymbolicCache()
    lu_chg = factorize(ChG, stats=stats_chg, label="C/h+G", symbolic=symbolic)
    # same pattern, ordering served from the cache: the numeric-only phase
    lu_re = factorize(ChG, stats=stats_re, label="C/h+G (refactor)", symbolic=symbolic)
    if not lu_re.reused_symbolic:
        raise AssertionError(f"{case}: symbolic reuse did not engage on an identical pattern")
    if lu_re.nnz_factors != lu_chg.nnz_factors:
        raise AssertionError(
            f"{case}: symbolic-reuse fill {lu_re.nnz_factors} != fresh fill {lu_chg.nnz_factors}"
        )

    return {
        "case": case,
        "factory": factory,
        "params": params,
        "n": int(G.shape[0]),
        "h": h,
        "nnz_C": int(C.nnz),
        "nnz_G": int(G.nnz),
        "symmetric": structurally_symmetric(G) and structurally_symmetric(ChG),
        "nnz_LU_G": int(lu_g.nnz_factors),
        "nnz_LU_ChG": int(lu_chg.nnz_factors),
        # SuperLU's default one-pass COLAMD on the same matrices
        "nnz_LU_G_colamd": int(spla.splu(G).nnz),
        "nnz_LU_ChG_colamd": int(spla.splu(ChG).nnz),
        "factor_advantage": lu_chg.nnz_factors / max(lu_g.nnz_factors, 1),
        "bandwidth_C": _mean_bandwidth(C),
        "bandwidth_G": _mean_bandwidth(G),
        "t_build_seconds": t_build,
        "t_factor_G": stats_g.factor_time,
        "t_factor_ChG": stats_chg.factor_time,
        "t_refactor_ChG": stats_re.factor_time,
        "refactor_speedup": stats_chg.factor_time / max(stats_re.factor_time, 1e-12),
    }


def render_table(rows) -> str:
    return format_table(
        ["case", "n", "nnz(G)", "nnz(LU G)", "nnz(LU C/h+G)", "LU(C/h+G)/LU(G)",
         "COLAMD LU G", "COLAMD LU C/h+G",
         "t(LU G) s", "t(LU C/h+G) s", "t(refactor) s"],
        [[r["case"], r["n"], r["nnz_G"], r["nnz_LU_G"], r["nnz_LU_ChG"],
          round(r["factor_advantage"], 2), r["nnz_LU_G_colamd"], r["nnz_LU_ChG_colamd"],
          round(r["t_factor_G"], 3), round(r["t_factor_ChG"], 3),
          round(r["t_refactor_ChG"], 3)]
         for r in rows],
    )


def check_rows(rows, smoke: bool):
    """The paper's structural claims, asserted on the measured sweep."""
    failures = []
    for row in rows:
        # Fig. 1's core statement: once coupling drags C off the diagonal
        # (bandwidth > 0), the BENR Jacobian fills in strictly worse than G;
        # the zero-coupling control may at best tie (diagonal C adds no
        # pattern), never beat it
        coupled = row["bandwidth_C"] > 0.0
        if coupled and not row["nnz_LU_ChG"] > row["nnz_LU_G"]:
            failures.append(f"{row['case']}: LU(C/h+G) fill {row['nnz_LU_ChG']} "
                            f"does not exceed LU(G) fill {row['nnz_LU_G']}")
        if not coupled and row["nnz_LU_ChG"] < row["nnz_LU_G"]:
            failures.append(f"{row['case']}: uncoupled LU(C/h+G) fill "
                            f"{row['nnz_LU_ChG']} fell below LU(G) fill {row['nnz_LU_G']}")
        # the symmetric ordering must never fill worse than COLAMD
        for name in ("G", "ChG") if row["symmetric"] else ():
            chosen, colamd = row[f"nnz_LU_{name}"], row[f"nnz_LU_{name}_colamd"]
            if chosen > colamd:
                failures.append(f"{row['case']}: LU({name}) fill {chosen} under the "
                                f"symmetric ordering exceeds COLAMD fill {colamd}")
    # the coupling knob must widen the gap monotonically at fixed size
    knob = [r for r in rows if r["factory"] == "large_rc_mesh"
            and r["n"] == min(x["n"] for x in rows)]
    knob.sort(key=lambda r: r["nnz_C"])
    advantages = [r["factor_advantage"] for r in knob]
    if advantages != sorted(advantages):
        failures.append(f"coupling sweep is not monotone in fill advantage: {advantages}")
    if not smoke:
        largest = max(rows, key=lambda r: r["n"])
        if largest["n"] < 50_000:
            failures.append(f"sweep peaked at n={largest['n']}, below the 50k-node floor")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep (seconds, small meshes)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the fill-in gap holds")
    parser.add_argument("--json", type=Path, default=None,
                        help="payload path (default benchmarks/output/BENCH_fig1_nnz.json)")
    args = parser.parse_args(argv)

    points = SMOKE_POINTS if args.smoke else FULL_POINTS
    mode = "smoke" if args.smoke else "full"

    wall_start = time.perf_counter()
    rows = []
    for case, factory, params in points:
        row = measure_point(case, factory, params)
        rows.append(row)
        print(f"  {case}: n={row['n']} LU(G)={row['nnz_LU_G']} "
              f"LU(C/h+G)={row['nnz_LU_ChG']} "
              f"advantage={row['factor_advantage']:.2f} "
              f"refactor x{row['refactor_speedup']:.2f}")
    wall_seconds = time.perf_counter() - wall_start

    largest = max(rows, key=lambda r: r["n"])
    payload = {
        "benchmark": "fig1_nnz",
        "mode": mode,
        "h": H,
        "headline": (f"n={largest['n']}: LU(C/h+G) carries "
                     f"{largest['factor_advantage']:.1f}x the fill of LU(G); "
                     f"symbolic reuse refactors {largest['refactor_speedup']:.1f}x faster"),
        "wall_seconds": wall_seconds,
        "results": rows,
    }

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    json_path = args.json or (OUTPUT_DIR / "BENCH_fig1_nnz.json")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    table = render_table(rows)
    (OUTPUT_DIR / "fig1_nnz.txt").write_text(table + "\n")
    print()
    print(table)
    print(f"\n{payload['headline']}")
    print(f"payload: {json_path}  ({wall_seconds:.1f}s)")
    record = write_record("fig1_nnz", mode, rows, TIMED_FIELDS)
    print(f"record: {record}")

    if args.check:
        failures = check_rows(rows, smoke=args.smoke)
        if failures:
            for failure in failures:
                print(f"FIG1 CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("fig1 checks passed (fill-in gap, ordering <= COLAMD, coupling monotonicity"
              + (")" if args.smoke else ", >=50k nodes)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
