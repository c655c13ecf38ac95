"""Fig. 2 scenario: accuracy of BENR / ER / ER-C on a stiff inverter chain.

Run with::

    python examples/inverter_chain_accuracy.py

Reproduces the experiment behind the paper's Fig. 2: a stiff nonlinear
inverter chain is simulated with

* REF   -- BENR with a very small fixed step (the reference),
* BENR  -- backward Euler + Newton-Raphson at step ``h``,
* ER    -- exponential Rosenbrock-Euler at the same step ``h``,
* ER-C  -- ER with the phi_2 correction term at step ``2h``,

and the waveform of one observed node is compared against REF.  The
paper's claim to check: ER and ER-C are more accurate than BENR at the
same step size, and ER-C holds on to its accuracy at twice the step.  On
this chain ER-C at twice the step does not beat BENR; the README section
"Paper claims that do not reproduce" gives the numbers.
"""

from repro import SimOptions, Signal, TransientSimulator, compare_waveforms
from repro.benchcircuits.inverter_chain import stiff_inverter_chain
from repro.reporting.figures import figure2_accuracy_report


def main() -> None:
    num_stages = 6
    t_stop = 1.0e-9
    h = 10e-12

    circuit = stiff_inverter_chain(num_stages, cap_spread_decades=2.5,
                                   base_load_cap=1e-15)
    # observe the output of the middle stage
    observed_node = f"out{num_stages // 2}"

    def run(method, step):
        options = SimOptions(
            t_stop=t_stop, h_init=step, h_min=step, h_max=step,
            err_budget=1e9, lte_abstol=1e9, lte_reltol=1e9,
            observe_nodes=[observed_node],
        )
        return TransientSimulator(circuit, method=method, options=options).run()

    print(f"stiff inverter chain, {num_stages} stages, observing v({observed_node})")
    print(f"reference: BENR with h = {h / 10:.2e} s")

    reference = run("benr", h / 10)
    benr = run("benr", h)
    er = run("er", h)
    erc = run("er-c", 2 * h)

    report = figure2_accuracy_report(
        observed_node,
        Signal.from_result(reference, observed_node),
        {
            f"BENR (h={h:.0e})": Signal.from_result(benr, observed_node),
            f"ER   (h={h:.0e})": Signal.from_result(er, observed_node),
            f"ER-C (h={2 * h:.0e})": Signal.from_result(erc, observed_node),
        },
    )
    print()
    print(report.render())

    errors = report.max_errors()
    er_err = errors[f"ER   (h={h:.0e})"]
    benr_err = errors[f"BENR (h={h:.0e})"]
    print()
    if er_err < benr_err:
        print(f"ER is {benr_err / max(er_err, 1e-18):.1f}x more accurate than BENR "
              "at the same step size (the Fig. 2 claim).")
    else:
        print("WARNING: ER did not beat BENR on this configuration.")


if __name__ == "__main__":
    main()
