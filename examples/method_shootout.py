"""Method shootout via the campaign engine.

Sweeps two Table-I analogue circuits under BENR, ER and ER-C across an
error-budget grid, runs all scenarios through the campaign engine on a
selectable execution backend and prints the aggregate comparison tables
(per-scenario and the Table-I-style method matrix with speedups over
BENR).

Run with::

    python examples/method_shootout.py                    # full demo, pool
    python examples/method_shootout.py --smoke            # tiny run (CI)
    python examples/method_shootout.py --backend queue    # broker workers
    python examples/method_shootout.py --cache .campaign_cache

``--cache`` keys finished outcomes by scenario content hash and stores
each one durably as it arrives: rerunning an unchanged plan simulates
nothing and still renders the tables, and rerunning after an
interruption simulates only the scenarios that had not finished.  The
campaign outcomes are also persisted to
``examples/output/method_shootout.json`` so they can be re-aggregated
without re-simulating (``CampaignResult.load``).
"""

import argparse
import os
from pathlib import Path

from repro import SimOptions
from repro.campaign import BACKEND_NAMES, grid_sweep, run_campaign
from repro.reporting import render_campaign_table, render_method_matrix


def build_scenarios(smoke: bool):
    scale = 0.1 if smoke else 0.3
    budgets = [1e-3] if smoke else [1e-3, 5e-4, 1e-4]
    methods = ["benr", "er"] if smoke else ["benr", "er", "er-c"]
    # ckt1: inverter-chain array with sparse C; ckt4: the same with
    # inter-chain coupling -- the contrast the paper's Table I highlights.
    return grid_sweep(
        circuits=["ckt1", "ckt4"],
        methods=methods,
        param_grid={"scale": [scale]},
        option_grid={"err_budget": budgets},
        # first chain's first stage output exists in both circuits; its
        # samples feed the max_err-vs-BENR column of the campaign table
        observe=["c0_out1"],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI smoke testing (serial unless "
                             "--backend is given)")
    parser.add_argument("--backend",
                        choices=("auto", *BACKEND_NAMES),
                        default=None,
                        help="execution backend (default: serial when --smoke, "
                             "auto otherwise)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the pool/queue backends "
                             "(default: one per core)")
    parser.add_argument("--cache", type=Path, default=None,
                        help="scenario-hash result cache directory")
    args = parser.parse_args()
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, not {args.workers}")

    scenarios = build_scenarios(args.smoke)
    base = SimOptions(t_stop=0.25e-9, h_init=2e-12, store_states=False)
    backend = args.backend or ("serial" if args.smoke else "auto")
    print(f"running {len(scenarios)} scenarios "
          f"({backend} backend, {os.cpu_count()} cores available)...")

    campaign = run_campaign(
        scenarios, base_options=base, backend=backend, workers=args.workers,
        timeout=300.0,
        cache=args.cache,
        progress=lambda outcome, done, total: print(
            f"  [{done:2d}/{total}] {outcome.scenario.name}: {outcome.status} "
            + (f"(reused from {outcome.reused_from})" if outcome.reused
               else f"({outcome.runtime_seconds:.2f}s)")
        ),
    )

    meta = campaign.metadata
    print(f"\n{campaign} in {meta['wall_seconds']:.2f}s wall-clock "
          f"({meta['num_executed']} simulated, {meta['num_cached']} from "
          f"cache)\n")
    print(render_campaign_table(campaign, reference_method="benr"))
    print()
    print(render_method_matrix(campaign, reference_method="benr"))

    out = Path(__file__).parent / "output" / "method_shootout.json"
    campaign.save(out)
    print(f"\ncampaign saved to {out}")
    return 0 if campaign.num_ok == len(scenarios) else 1


if __name__ == "__main__":
    raise SystemExit(main())
