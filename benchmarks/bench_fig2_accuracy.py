"""Fig. 2 regeneration: waveform accuracy of BENR / ER / ER-C vs a reference.

A stiff nonlinear inverter chain is simulated at fixed step sizes:

* REF  -- BENR at h/10 (the reference solution, as in the paper),
* BENR -- at step h,
* ER   -- at step h,
* ER-C -- at step 2h (the paper runs ER-C at twice the BENR/ER step).

The claims to reproduce: ER and ER-C are more accurate than BENR at the
same step, and ER-C at 2x the step still beats BENR.  The claims are
asserted against the paper's reference, BENR at h/10.  The report adds a
column against a trapezoidal run at h/100 (and the BENR reference's own
error against it); that column is reported, not asserted.

Report: ``benchmarks/output/fig2_accuracy.txt``.
"""

import pytest

from repro import Signal, SimOptions, TransientSimulator
from repro.benchcircuits.inverter_chain import stiff_inverter_chain
from repro.reporting.figures import figure2_accuracy_report
from repro.reporting.tables import format_table

from conftest import write_report

NUM_STAGES = 6
T_STOP = 1.0e-9
H = 10e-12
OBSERVED = f"out{NUM_STAGES // 2}"

_RESULTS = {}


def _fixed_step_options(h):
    return SimOptions(
        t_stop=T_STOP, h_init=h, h_min=h, h_max=h,
        err_budget=1e9, lte_abstol=1e9, lte_reltol=1e9,
        observe_nodes=[OBSERVED], store_states=False,
    )


@pytest.fixture(scope="module")
def circuit():
    return stiff_inverter_chain(NUM_STAGES, cap_spread_decades=2.5, base_load_cap=1e-15)


@pytest.mark.parametrize(
    "label, method, step",
    [
        ("REF", "benr", H / 10),
        ("TR-FINE", "trap", H / 100),
        ("BENR", "benr", H),
        ("ER", "er", H),
        ("ER-C", "er-c", 2 * H),
    ],
)
def test_fig2_run(benchmark, circuit, label, method, step):
    options = _fixed_step_options(step)

    def run_once():
        return TransientSimulator(circuit, method=method, options=options).run()

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert result.stats.completed, result.stats.failure_reason
    assert result.stats.method == {"REF": "BENR", "TR-FINE": "TRNR"}.get(label, label)
    _RESULTS[label] = result
    benchmark.extra_info["label"] = label
    benchmark.extra_info["steps"] = result.stats.num_steps


def test_fig2_render(benchmark, report_writer):
    # the render step itself is what gets 'benchmarked' so that this test
    # still runs under --benchmark-only and persists the report file
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for label in ("REF", "TR-FINE", "BENR", "ER", "ER-C"):
        if label not in _RESULTS:
            pytest.skip("per-case benchmarks did not run")
    signals = {
        f"BENR (h={H:.0e})": Signal.from_result(_RESULTS["BENR"], OBSERVED),
        f"ER (h={H:.0e})": Signal.from_result(_RESULTS["ER"], OBSERVED),
        f"ER-C (h={2 * H:.0e})": Signal.from_result(_RESULTS["ER-C"], OBSERVED),
    }
    reference = Signal.from_result(_RESULTS["REF"], OBSERVED)
    report = figure2_accuracy_report(OBSERVED, reference, signals)
    fine = figure2_accuracy_report(
        OBSERVED, Signal.from_result(_RESULTS["TR-FINE"], OBSERVED),
        {f"REF: BENR (h={H / 10:.0e})": reference, **signals})
    errors = report.max_errors()
    rows = [[label, errors.get(label, 0.0), fine_err]
            for label, fine_err in fine.max_errors().items()]
    report_writer("fig2_accuracy.txt", report.render() + "\n\n" + format_table(
        [f"method (node {OBSERVED})", f"max |err| vs BENR h={H / 10:.0e} [V]",
         f"max |err| vs TR h={H / 100:.0e} [V] (report only)"], rows))

    er_err = errors[f"ER (h={H:.0e})"]
    erc_err = errors[f"ER-C (h={2 * H:.0e})"]
    benr_err = errors[f"BENR (h={H:.0e})"]
    # the Fig. 2 claims
    assert er_err < benr_err
    assert erc_err < benr_err
