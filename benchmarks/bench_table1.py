"""Table I regeneration: ckt1-ckt8 under BENR, ER and ER-C.

Table I runs as a campaign: one :class:`~repro.campaign.Scenario` per
(case, method) on the registered ``ckt1`` ... ``ckt8`` circuit factories,
with the case's ``scale`` as the factory parameter and the Table-I setup
(horizon, initial step, error budget, LTE tolerances, the fill-in budget
emulating the memory limit, ``store_states=False``) as option overrides.

Each case is one pytest-benchmark case (a single measured round -- a
transient run is far too long to repeat): a serial campaign of its three
method scenarios, which share one MNA assembly and one DC solve.  After
all cases have run, their outcomes form one
:class:`~repro.campaign.CampaignResult`, rendered by
:func:`~repro.reporting.render_method_matrix` with BENR as the reference:
circuit specification (#N, #Dev, nnzC, nnzG), per method the step count,
#NRa / #ma, runtime and the speedup over BENR; BENR runs that exceed the
memory budget render as "OoM" with NA speedups.  The paper's claims are
checked on the outcomes: any failure other than BENR's budget failure on
ckt6-ckt8 fails its case.

The rendered table is written to ``benchmarks/output/table1.txt`` and the
campaign itself to ``benchmarks/output/table1.json``.  At the default
scale and horizon the counts of every case and method -- ``#step``,
``#LU``, ``#NRa``, ``#ma``, peak factor nnz, completion and the fill-in
budget, no timings -- also go to the committed
``benchmarks/records/table1-smoke.json``, so a change that moves a Table-I
count shows up in ``git diff -- benchmarks/records/``.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_table1.py --benchmark-disable
    PYTHONPATH=src python benchmarks/bench_table1.py   # outputs and record only

The script form runs the same campaigns and writes the same outputs, but
checks none of the claims; those are the pytest cases.

Expected shape: ER and ER-C complete every case with far fewer LU
factorizations and a bounded peak factor size; BENR's cost grows with
nnzC and it fails on the strongly coupled ckt6-ckt8.
"""

import os

import pytest

from _records import write_record
from repro import CampaignResult, CircuitSpec, Scenario, run_campaign
from repro.benchcircuits.testcases import TESTCASE_NAMES, make_ckt
from repro.linalg.sparse_lu import FactorizationBudgetExceeded
from repro.reporting import render_method_matrix

from conftest import OUTPUT_DIR, bench_scale, bench_tstop, write_report

METHODS = ("benr", "er", "er-c")

#: the strongly coupled cases, on which BENR exceeds the memory budget
COUPLED = ("ckt6", "ckt7", "ckt8")

#: outcomes collected across parameterized cases: {circuit: [outcome, ...]}
_OUTCOMES = {}


def is_budget_failure(outcome):
    """True for a run stopped by the fill-in budget (the paper's "OoM")."""
    return (outcome.status == "failed"
            and (outcome.error or "").startswith(FactorizationBudgetExceeded.__name__))


def table1_scenarios(name):
    """The three method scenarios of one case, sharing its options."""
    scale = bench_scale()
    case = make_ckt(name, scale=scale)
    options = {
        "t_stop": bench_tstop(),
        "h_init": case.h_init,
        "err_budget": 1e-3,
        "lte_reltol": 5e-3,
        "lte_abstol": 1e-5,
        "max_factor_nnz": case.factor_budget,
        "store_states": False,
    }
    return [Scenario(name=f"{name}/{method}",
                     circuit=CircuitSpec(name, {"scale": scale}),
                     method=method, options=options)
            for method in METHODS]


#: the summary counters the committed record keeps per case and method
RECORD_KEYS = ("#step", "#LU", "#NRa", "#ma", "peak_factor_nnz", "completed")


def record_rows(campaign):
    """The untimed Table-I rows of ``campaign``: one per case and method."""
    return [{"case": outcome.scenario.circuit.factory,
             "method": outcome.scenario.method,
             "budget": outcome.scenario.options["max_factor_nnz"],
             **{key: outcome.summary.get(key) for key in RECORD_KEYS}}
            for outcome in campaign]


def write_outputs(campaign, report_writer=write_report):
    """Render Table I, save the campaign and, at the default scale and
    horizon, write the committed record."""
    report_writer("table1.txt", render_method_matrix(campaign, reference_method="benr"))
    campaign.save(OUTPUT_DIR / "table1.json")
    if any(knob in os.environ for knob in ("REPRO_BENCH_SCALE", "REPRO_BENCH_TSTOP")):
        print("record: not written (REPRO_BENCH_SCALE/REPRO_BENCH_TSTOP set)")
        return
    print(f"record: {write_record('table1', 'smoke', record_rows(campaign), ())}")


@pytest.mark.parametrize("circuit_name", TESTCASE_NAMES)
def test_table1_case(benchmark, circuit_name):
    scenarios = table1_scenarios(circuit_name)
    campaign = benchmark.pedantic(run_campaign, args=(scenarios,),
                                  kwargs={"backend": "serial"},
                                  rounds=1, iterations=1)
    _OUTCOMES[circuit_name] = campaign.outcomes
    benchmark.extra_info["circuit"] = circuit_name
    for outcome in campaign:
        benchmark.extra_info[outcome.scenario.method] = {
            key: outcome.summary.get(key) for key in ("#step", "#LU", "completed")}

    # Every run must complete, except that BENR may (and claim (1) says
    # must) hit the memory budget on the strongly coupled ckt6-ckt8; any
    # other failure of any method fails the case.
    for outcome in campaign:
        if outcome.scenario.method == "benr" and circuit_name in COUPLED:
            assert outcome.ok or is_budget_failure(outcome), outcome.error
        else:
            assert outcome.ok, outcome.error


def test_table1_render(benchmark, report_writer):
    """Assemble and persist the full Table I after all cases have run."""
    # the render step itself is what gets 'benchmarked' so that this test
    # still runs under --benchmark-only and persists the report file
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if any(name not in _OUTCOMES for name in TESTCASE_NAMES):
        pytest.skip("per-case benchmarks did not run")
    campaign = CampaignResult(outcome for name in TESTCASE_NAMES
                              for outcome in _OUTCOMES[name])
    write_outputs(campaign, report_writer)

    def outcome(name, method):
        return campaign.outcome_for(f"{name}/{method}")

    # Shape checks mirroring the paper's qualitative claims.
    # (1) BENR exceeds the memory budget on the strongly coupled cases ...
    for name in COUPLED:
        assert is_budget_failure(outcome(name, "benr")), outcome(name, "benr").error
        # ... while ER still completes them.
        assert outcome(name, "er").summary["completed"]
    # (2) on every case ER performs (far) fewer LU factorizations than BENR
    for name in ("ckt1", "ckt3", "ckt4", "ckt5"):
        benr = outcome(name, "benr")
        assert benr.ok, benr.error
        er = outcome(name, "er").summary
        assert er["#LU"] < benr.summary["#LU"]
        # (3) and needs far less factor memory on the coupled cases
        if name in ("ckt4", "ckt5"):
            assert er["peak_factor_nnz"] < benr.summary["peak_factor_nnz"]


def main() -> int:
    campaign = CampaignResult(outcome for name in TESTCASE_NAMES
                              for outcome in run_campaign(table1_scenarios(name),
                                                          backend="serial").outcomes)
    write_outputs(campaign)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
