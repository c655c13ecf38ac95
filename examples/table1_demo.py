"""Table I demo: run one of the ckt1-ckt8 analogues under all three methods.

Run with::

    python examples/table1_demo.py [ckt_name] [scale]

Defaults to ``ckt5`` (the FreeCPU-like strongly coupled case) at a small
scale so the demo finishes in about a minute.  The three runs are one
serial campaign -- a scenario per method on the registered circuit
factory, sharing one MNA assembly and one DC solve -- and the table is
its method matrix, with ``OoM`` where BENR exceeds the case's fill-in
budget.  The full Table I sweep lives in ``benchmarks/bench_table1.py``.
"""

import sys

from repro import CircuitSpec, Scenario, run_campaign
from repro.benchcircuits.testcases import make_ckt
from repro.reporting import render_method_matrix

METHODS = ("benr", "er", "er-c")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ckt5"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    case = make_ckt(name, scale=scale)
    print(f"{case.name}: {case.description} (scale={scale})")

    options = {
        "t_stop": 0.3e-9,
        "h_init": case.h_init,
        "err_budget": case.err_budget,
        "max_factor_nnz": case.factor_budget,
        "store_states": False,
    }
    scenarios = [Scenario(name=f"{case.name}/{method}",
                          circuit=CircuitSpec(case.name, {"scale": scale}),
                          method=method, options=options)
                 for method in METHODS]
    campaign = run_campaign(scenarios, backend="serial")
    for outcome in campaign:
        status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
        print(f"  {outcome.scenario.method:6s} -> {status}, "
              f"steps={outcome.summary.get('#step')}, "
              f"runtime={outcome.runtime_seconds:.2f}s")

    print()
    print(render_method_matrix(campaign, reference_method="benr"))


if __name__ == "__main__":
    main()
