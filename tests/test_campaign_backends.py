"""Backend-contract test suite: every execution backend, one contract.

The same scenario list must produce identical deterministic outcomes
(statistics and waveform samples) through the serial loop, the process
pool and the broker-backed queue; timeouts and failures must be
captured, not propagated.  The queue backend's worker-death redelivery
and external-worker tests live in ``tests/test_campaign_queue_backend.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CircuitSpec,
    ExecutionBackend,
    ProcessPoolBackend,
    QueueBackend,
    Scenario,
    SerialBackend,
    grid_sweep,
    resolve_backend,
    run_campaign,
)
from repro.core.options import SimOptions

FAST_OPTIONS = SimOptions(t_stop=0.1e-9, h_init=2e-12, store_states=False)

BACKEND_NAMES = ("serial", "process", "queue")


def make_backend(name: str) -> ExecutionBackend:
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(workers=2)
    return QueueBackend(workers=2)


def small_scenarios(methods=("benr", "er"), budgets=(1e-3, 1e-4)):
    return grid_sweep(
        circuits=[("rc_mesh", {"rows": 4, "cols": 4, "coupling_fraction": 0.5})],
        methods=list(methods),
        option_grid={"err_budget": list(budgets)},
        observe=["n2_2"],
    )


@pytest.fixture(scope="module")
def serial_reference():
    """The determinism oracle every other backend is held against."""
    return run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                        backend=SerialBackend())


class TestBackendContract:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_same_scenarios_same_outcomes(self, name, serial_reference):
        campaign = run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                                backend=make_backend(name))
        assert campaign.metadata["mode"] == name
        assert campaign.num_ok == len(serial_reference)
        for a, b in zip(serial_reference, campaign):
            assert a.scenario.name == b.scenario.name
            assert a.deterministic_summary() == b.deterministic_summary(), \
                b.scenario.name
            assert a.samples == b.samples, b.scenario.name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_failure_capture(self, name):
        scenarios = [
            Scenario(name="bad",
                     circuit=CircuitSpec("rc_ladder", {"num_segments": 0})),
            Scenario(name="good",
                     circuit=CircuitSpec("rc_ladder", {"num_segments": 3})),
        ]
        campaign = run_campaign(scenarios, base_options=FAST_OPTIONS,
                                backend=make_backend(name))
        assert campaign.outcome_for("bad").status == "error"
        assert "segment" in campaign.outcome_for("bad").error
        assert campaign.outcome_for("good").status == "ok"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_timeout_capture(self, name):
        slow = Scenario(
            name="slow",
            circuit=CircuitSpec("rc_mesh", {"rows": 6, "cols": 6}),
            method="benr",
            # force thousands of tiny steps so the scenario cannot finish
            options={"t_stop": 1e-9, "h_init": 1e-14, "h_max": 1e-14},
        )
        fast = Scenario(
            name="fast",
            circuit=CircuitSpec("rc_ladder", {"num_segments": 3}),
            method="er", options={"t_stop": 0.05e-9},
        )
        campaign = run_campaign([slow, fast], backend=make_backend(name),
                                timeout=0.2)
        outcome = campaign.outcome_for("slow")
        assert outcome.status == "timeout"
        assert "timeout" in outcome.error
        assert campaign.outcome_for("fast").status == "ok"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize("bad, message", [
        ({"sample_points": 1}, "sample_points"),
        ({"timeout": -1.0}, "timeout"),
        ({"timeout": 0.0}, "timeout"),
        ({"timeout": 1e12}, "timeout"),
    ])
    def test_invalid_context_rejected_before_dispatch(self, name, bad,
                                                      message):
        backend = make_backend(name)
        dispatched = []
        backend.execute = lambda *args: dispatched.append(args)
        with pytest.raises(ValueError, match=message):
            run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                         backend=backend, **bad)
        assert dispatched == []


class TestResolveBackend:
    def test_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        assert isinstance(resolve_backend("pool"), ProcessPoolBackend)
        assert isinstance(resolve_backend("queue"), QueueBackend)

    def test_auto_picks_serial_for_one_scenario(self):
        assert isinstance(resolve_backend("auto", num_scenarios=1), SerialBackend)

    def test_auto_picks_pool_for_many(self):
        backend = resolve_backend("auto", workers=4, num_scenarios=10)
        assert isinstance(backend, ProcessPoolBackend)

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("name", ("auto", *BACKEND_NAMES))
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, name, workers):
        # 0 once meant "one per core" and -1 silently ran serial under
        # auto or failed deep inside ProcessPoolExecutor
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_backend(name, workers=workers, num_scenarios=10)

    @pytest.mark.parametrize("backend, workers", [
        ("process", -1),
        (ProcessPoolBackend(workers=-1), None),
        (QueueBackend(workers=0), None),
    ])
    def test_run_campaign_rejects_workers_below_one(self, backend, workers):
        # an instance bound of 0 silently meant one per core, and a
        # QueueBackend bound of -1 spawned no worker and waited forever
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_campaign(small_scenarios(), base_options=FAST_OPTIONS,
                         backend=backend, workers=workers)

    def test_clis_refuse_workers_below_one(self, capsys, monkeypatch):
        from repro.verify import __main__ as cli

        monkeypatch.setattr(cli, "_run_matrix", lambda args: pytest.fail(
            "the matrix ran with --workers 0"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--matrix", "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "examples" / "method_shootout.py"),
             "--smoke", "--workers", "-1"],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "--workers must be >= 1" in proc.stderr

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("socket")

    def test_run_campaign_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(small_scenarios(), backend="warp")

