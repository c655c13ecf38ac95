"""Campaign engine benchmark: serial vs process-pool execution backends.

A 20-scenario method-shootout campaign (2 circuits x 2 methods x a
5-point error-budget grid) runs once through the ``SerialBackend`` and
once through the ``ProcessPoolBackend``.  The checks encode the engine's
contract:

* every scenario completes and the aggregate comparison table renders;
* serial and pool execution produce *identical* per-scenario
  statistics and waveform samples (backend independence);
* with >= 2 cores, the pool beats serial wall-clock by >= 1.5x.

The rendered campaign table lands in ``benchmarks/output/campaign.txt``
and a machine-readable summary (wall clocks, speedup, worker count, per-
method aggregates) in ``benchmarks/output/BENCH_campaign.json`` -- the
artifact CI uploads alongside the hot-path bench.
"""

import json
import os

import pytest

from repro import SimOptions
from repro.campaign import (
    ProcessPoolBackend,
    SerialBackend,
    grid_sweep,
    run_campaign,
)
from repro.reporting import render_campaign_table, render_method_matrix

from conftest import OUTPUT_DIR, write_report

#: per-scenario simulation setup; heavy enough that pool startup amortizes
BASE_OPTIONS = SimOptions(t_stop=0.5e-9, h_init=2e-12, store_states=False)

ERR_BUDGETS = [2e-3, 1e-3, 5e-4, 2e-4, 1e-4]
METHODS = ["benr", "er"]

#: results shared between the serial and parallel benchmark cases
_RUNS = {}


def build_scenarios():
    """2 circuits x 2 methods x 5 error budgets = 20 scenarios."""
    mesh = grid_sweep(
        circuits=[("rc_mesh", {"rows": 8, "cols": 8, "coupling_fraction": 0.5})],
        methods=METHODS,
        option_grid={"err_budget": ERR_BUDGETS},
        observe=["n4_4"],
    )
    bus = grid_sweep(
        circuits=[("coupled_lines", {"num_lines": 5, "segments_per_line": 8,
                                     "long_range_fraction": 0.3})],
        methods=METHODS,
        option_grid={"err_budget": ERR_BUDGETS},
        observe=["l2_s4"],
    )
    scenarios = mesh + bus
    assert len(scenarios) == 20
    return scenarios


def test_campaign_serial(benchmark):
    scenarios = build_scenarios()

    def run_serial():
        return run_campaign(scenarios, base_options=BASE_OPTIONS,
                            backend=SerialBackend())

    campaign = benchmark.pedantic(run_serial, rounds=1, iterations=1)
    _RUNS["serial"] = campaign
    benchmark.extra_info["wall_seconds"] = campaign.metadata["wall_seconds"]
    assert campaign.metadata["mode"] == "serial"
    assert campaign.num_ok == len(scenarios), [o.error for o in campaign.failures]


def test_campaign_parallel(benchmark):
    scenarios = build_scenarios()
    workers = min(os.cpu_count() or 1, 4)

    def run_parallel():
        return run_campaign(
            scenarios, base_options=BASE_OPTIONS,
            backend=ProcessPoolBackend(workers=workers),
        )

    campaign = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    _RUNS["parallel"] = campaign
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["wall_seconds"] = campaign.metadata["wall_seconds"]
    assert campaign.metadata["mode"] == "process"
    assert campaign.num_ok == len(scenarios), [o.error for o in campaign.failures]


def test_campaign_report_and_equivalence(benchmark, report_writer):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if "serial" not in _RUNS or "parallel" not in _RUNS:
        pytest.skip("campaign runs did not execute")
    serial = _RUNS["serial"]
    parallel = _RUNS["parallel"]

    # (1) aggregate comparison tables render from the parallel run
    table = render_campaign_table(parallel, reference_method="benr")
    matrix = render_method_matrix(parallel, reference_method="benr")
    report_writer("campaign.txt", table + "\n\n" + matrix)
    assert "SP" in table

    # (2) backend independence: identical per-scenario statistics
    for a, b in zip(serial, parallel):
        assert a.scenario.name == b.scenario.name
        assert a.deterministic_summary() == b.deterministic_summary(), a.scenario.name
        assert a.samples == b.samples, a.scenario.name

    # (3) parallel wall-clock beats serial by >= 1.5x given >= 2 cores
    serial_wall = serial.metadata["wall_seconds"]
    parallel_wall = parallel.metadata["wall_seconds"]
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else float("inf")
    print(f"\ncampaign wall-clock: serial {serial_wall:.2f}s, "
          f"parallel {parallel_wall:.2f}s ({parallel.metadata['workers']} workers), "
          f"speedup {speedup:.2f}x")

    summary = {
        "num_scenarios": len(serial),
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "workers": parallel.metadata["workers"],
        "speedup": speedup,
        "cpu_count": os.cpu_count(),
        "aggregates": parallel.aggregates(),
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "BENCH_campaign.json").write_text(
        json.dumps(summary, indent=2) + "\n")

    # the speedup bar is a wall-clock assertion: meaningful on a quiet
    # multi-core dev box, pure noise on shared CI runners (no timing is
    # gated there; the committed records under benchmarks/records/ gate
    # the exact counts) -- so CI sets the skip knob and keeps the
    # backend-equivalence checks above as the gate
    if os.environ.get("REPRO_BENCH_SKIP_SPEEDUP_GATE"):
        pytest.skip("speedup gate disabled via REPRO_BENCH_SKIP_SPEEDUP_GATE")
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.5, (
            f"expected >= 1.5x speedup on {os.cpu_count()} cores, got {speedup:.2f}x"
        )
