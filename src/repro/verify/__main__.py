"""Command-line entry point: ``python -m repro.verify``.

Two subcommands, selectable by flag:

``--matrix``
    Run the differential verification matrix (every registered
    integrator x circuit family x source type), print the report table
    and exit nonzero on any oracle/golden/invariant violation.  With
    ``--regenerate`` the golden store is rewritten from this run
    (refusing to widen tolerance bands unless ``--allow-widen``).
    ``--backend`` picks the campaign execution backend (serial, process
    pool or queue workers).  Every scenario is simulated afresh: the
    matrix checks the current program, and stored outcomes carry no code
    version.

``--prune-orphans``
    List goldens whose content-hash key no currently-planned matrix
    scenario produces (the debris of re-parameterizing a family), and
    delete them with ``--yes``.  Dry-run by default.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.campaign import BACKEND_NAMES
from repro.verify.matrix import (
    DEFAULT_GOLDEN_ROOT,
    DEFAULT_GOLDEN_TOLERANCE,
    planned_golden_keys,
    run_matrix,
)


def _run_matrix(args: argparse.Namespace) -> int:
    from repro.reporting.verify_tables import (
        render_verify_report,
        render_verify_summary,
    )

    report = run_matrix(
        smoke=args.smoke,
        workers=args.workers,
        golden_root=None if args.no_goldens else args.goldens,
        regenerate=args.regenerate,
        allow_widen=args.allow_widen,
        golden_tolerance=args.golden_tolerance,
        backend=args.backend,
    )
    print(render_verify_report(report))
    if args.json:
        report.save(args.json)
        print(f"wrote {args.json}")
    print(f"verification matrix ({report.metadata['num_scenarios']} scenarios) "
          f"-- {render_verify_summary(report)}")
    if not report.ok:
        for check in report.violations:
            print(f"VIOLATION {check.kind} {check.subject} [{check.method}]: "
                  f"{check.detail or check.max_err}", file=sys.stderr)
        return 1
    print("0 violations")
    return 0


def _run_prune_orphans(args: argparse.Namespace) -> int:
    from repro.verify.golden import GoldenStore

    store = GoldenStore(args.goldens)
    live = planned_golden_keys()
    verb = "deleted" if args.yes else "orphaned"
    orphans = store.prune_orphans(live, delete=args.yes)
    for key in orphans:
        print(f"{verb}: {key}")
    print(f"{len(orphans)} goldens {verb} under {store.root} "
          f"({len(store.keys())} remain, {len(live)} keys in the current "
          f"matrix plan)")
    if orphans and not args.yes:
        print("dry run: pass --yes to delete")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=__doc__.splitlines()[0],
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--matrix", action="store_true",
                        help="run the differential verification matrix")
    action.add_argument("--prune-orphans", action="store_true",
                        help="list goldens no planned scenario produces "
                             "(dry run; --yes deletes them)")

    matrix = parser.add_argument_group("matrix options")
    matrix.add_argument("--smoke", action="store_true",
                        help="small circuit sizes / short horizons (CI push job)")
    matrix.add_argument("--backend", choices=("auto", *BACKEND_NAMES),
                        default="auto", help="campaign execution backend")
    matrix.add_argument("--workers", type=int, default=None,
                        help="campaign pool size (default: one per core)")
    matrix.add_argument("--goldens", type=Path, default=DEFAULT_GOLDEN_ROOT,
                        help="golden-trajectory store root")
    matrix.add_argument("--no-goldens", action="store_true",
                        help="skip the golden checks entirely")
    matrix.add_argument("--regenerate", action="store_true",
                        help="rewrite the golden store from this run")
    matrix.add_argument("--allow-widen", action="store_true",
                        help="allow --regenerate to widen tolerance bands")
    matrix.add_argument("--golden-tolerance", type=float,
                        default=DEFAULT_GOLDEN_TOLERANCE,
                        help="tolerance band written by --regenerate")
    matrix.add_argument("--json", type=Path, default=None,
                        help="also write the report as JSON")

    prune = parser.add_argument_group("prune-orphans options")
    prune.add_argument("--yes", action="store_true",
                       help="actually delete the orphaned goldens")

    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, not {args.workers}")
    if not (math.isfinite(args.golden_tolerance) and args.golden_tolerance > 0.0):
        parser.error(f"--golden-tolerance must be a positive finite number, "
                     f"not {args.golden_tolerance}")
    if args.matrix:
        return _run_matrix(args)
    return _run_prune_orphans(args)


if __name__ == "__main__":
    raise SystemExit(main())
