"""Tests for the simulator façade, options and result containers."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL
from repro.core.options import SimOptions
from repro.core.results import (
    ObservableSummary,
    RunStatistics,
    SimulationResult,
    StepRecord,
)
from repro.core.simulator import TransientSimulator, simulate


def rc_circuit():
    ckt = Circuit("rc")
    ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
    ckt.add_resistor("R1", "in", "out", 1000.0)
    ckt.add_capacitor("C1", "out", "0", 1e-12)
    return ckt


class TestSimOptions:
    def test_defaults_validate(self):
        SimOptions()  # must not raise

    def test_invalid_time_span(self):
        with pytest.raises(ValueError):
            SimOptions(t_stop=0.0)
        with pytest.raises(ValueError):
            SimOptions(t_stop=1e-9, t_start=2e-9)

    def test_invalid_controller_parameters(self):
        with pytest.raises(ValueError):
            SimOptions(err_budget=0.0)
        with pytest.raises(ValueError):
            SimOptions(mevp_tol=0.0)
        with pytest.raises(ValueError):
            SimOptions(step_ladder="linear")
        with pytest.raises(ValueError):
            SimOptions(h_bypass_tol=1.0)

    def test_resolved_defaults(self):
        opts = SimOptions(t_stop=1e-9)
        assert opts.resolved_h_init() == pytest.approx(1e-12)
        assert opts.resolved_h_max() == pytest.approx(1e-10)
        assert opts.span == pytest.approx(1e-9)

    def test_with_updates_returns_new_object(self):
        opts = SimOptions(t_stop=1e-9)
        updated = opts.with_updates(t_stop=2e-9, gamma=0.2)
        assert updated.t_stop == 2e-9
        assert updated.gamma == 0.2
        assert opts.t_stop == 1e-9  # original untouched


class TestTransientSimulatorFacade:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown integration method"):
            TransientSimulator(rc_circuit(), method="rk4")

    def test_method_aliases(self):
        sim = TransientSimulator(rc_circuit(), method="backward-euler")
        assert sim.integrator.name == "BENR"
        sim2 = TransientSimulator(rc_circuit(), method="bdf2")
        assert sim2.integrator.name == "Gear2"

    def test_erc_method_sets_correction(self):
        for method in ("er-c", "erc"):
            sim = TransientSimulator(rc_circuit(), method=method)
            assert sim.integrator.correction is True
            assert sim.integrator.name == "ER-C"

    def test_plain_er_clears_stale_correction_flag(self):
        sim = TransientSimulator(rc_circuit(), method="er")
        assert sim.integrator.correction is False
        assert sim.integrator.name == "ER"
        # a stored payload still asking for the correction under "er" is
        # refused rather than silently run as plain ER
        with pytest.raises(ValueError, match="'correction' is retired"):
            SimOptions.from_dict({"correction": True})

    def test_erc_gamma_changes_the_trajectory(self):
        """``gamma`` reaches the Eq. 25 correction of method "er-c"."""
        from repro.benchcircuits.inverter_chain import inverter_chain

        def final_state(gamma):
            result = simulate(inverter_chain(2), "er-c", t_stop=0.2e-9,
                              h_init=5e-12, gamma=gamma)
            assert result.stats.completed and result.stats.method == "ER-C"
            return result.final_state

        assert not np.array_equal(final_state(0.1), final_state(0.3))

    def test_accepts_prebuilt_mna(self):
        mna = rc_circuit().build()
        result = simulate(mna, "er", t_stop=1e-9, h_init=1e-11)
        assert result.stats.completed

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            TransientSimulator(42)

    def test_run_dc_cached(self):
        sim = TransientSimulator(rc_circuit(), "er", SimOptions(t_stop=1e-9))
        dc1 = sim.run_dc()
        dc2 = sim.run_dc()
        assert dc1 is dc2

    def test_explicit_x0_skips_dc(self):
        mna = rc_circuit().build()
        x0 = np.zeros(mna.n)
        x0[mna.node_index("out")] = 0.37
        result = simulate(mna, "benr", t_stop=0.05e-9, h_init=1e-12, x0=x0)
        assert result.voltage("out")[0] == pytest.approx(0.37)

    def test_option_overrides_in_simulate(self):
        result = simulate(rc_circuit(), "er", t_stop=0.5e-9, h_init=1e-11,
                          err_budget=1e-3)
        assert result.stats.completed
        assert result.time_array[-1] == pytest.approx(0.5e-9)


class TestSimulationResult:
    def test_observed_nodes_without_state_storage(self):
        result = simulate(rc_circuit(), "er", t_stop=1e-9, h_init=1e-11,
                          store_states=False, observe_nodes=["out"])
        waveform = result.voltage("out")
        assert len(waveform) == len(result.times)
        with pytest.raises(RuntimeError):
            _ = result.state_array
        with pytest.raises(KeyError):
            result.voltage("in")

    def test_state_storage_gives_all_nodes(self):
        result = simulate(rc_circuit(), "er", t_stop=1e-9, h_init=1e-11)
        assert result.state_array.shape[0] == len(result.times)
        assert len(result.voltage("in")) == len(result.times)
        assert len(result.branch_current("Vin")) == len(result.times)

    def test_ground_voltage_is_zero(self):
        result = simulate(rc_circuit(), "er", t_stop=0.2e-9, h_init=1e-11)
        np.testing.assert_array_equal(result.voltage("0"), 0.0)

    def test_times_monotone_and_within_span(self):
        result = simulate(rc_circuit(), "benr", t_stop=1e-9, h_init=1e-12)
        times = result.time_array
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1e-9)

    def test_step_sizes_match_time_differences(self):
        result = simulate(rc_circuit(), "er", t_stop=1e-9, h_init=1e-11)
        np.testing.assert_allclose(result.step_sizes(), np.diff(result.time_array),
                                   rtol=1e-9)

    def test_summary_keys(self):
        result = simulate(rc_circuit(), "er", t_stop=0.2e-9, h_init=1e-11)
        summary = result.summary()
        for key in ("#step", "#ma", "#LU", "RT(s)", "completed", "num_points"):
            assert key in summary

    def test_breakpoints_are_hit_exactly(self):
        """The time loop must land exactly on source breakpoints so the
        piecewise-linear input assumption of Eq. 13 holds."""
        result = simulate(rc_circuit(), "er", t_stop=1e-9, h_init=0.3e-10)
        assert np.any(np.isclose(result.time_array, 0.1e-9, rtol=0, atol=1e-18))


class TestObservableSummary:
    def test_empty_summary(self):
        summary = ObservableSummary()
        d = summary.as_dict()
        assert d["num_points"] == 0
        assert np.isnan(d["final"])

    def test_known_series(self):
        # v(t): 0 @ t=0, 2 @ t=1, 2 @ t=2 -- trapezoids by hand:
        # energy = 0.5*(0+4)*1 + 0.5*(4+4)*1 = 6
        summary = ObservableSummary.from_series([0.0, 1.0, 2.0],
                                                [0.0, 2.0, 2.0])
        assert summary.num_points == 3
        assert summary.minimum == 0.0
        assert summary.maximum == 2.0
        assert summary.final == 2.0
        assert summary.final_time == 2.0
        assert summary.energy == pytest.approx(6.0)
        assert summary.l2_norm == pytest.approx(np.sqrt(8.0))

    def test_incremental_matches_replay(self):
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(0.1, 1.0, size=50))
        values = rng.standard_normal(50)
        streamed = ObservableSummary()
        for t, v in zip(times, values):
            streamed.update(t, v)
        assert streamed.as_dict() == \
            ObservableSummary.from_series(times, values).as_dict()


class TestStreamingSummaries:
    """store_states=False must lose nothing the summaries promise."""

    OPTS = dict(t_stop=1e-9, h_init=1e-11, observe_nodes=["out"])

    def test_streaming_summaries_bit_for_bit_match_stored_run(self):
        stored = simulate(rc_circuit(), "er", **self.OPTS)
        streamed = simulate(rc_circuit(), "er", store_states=False,
                            **self.OPTS)
        replayed = ObservableSummary.from_series(stored.times,
                                                 stored.voltage("out"))
        assert streamed.summaries["out"].as_dict() == replayed.as_dict()

    def test_final_state_survives_streaming(self):
        stored = simulate(rc_circuit(), "benr", **self.OPTS)
        streamed = simulate(rc_circuit(), "benr", store_states=False,
                            **self.OPTS)
        np.testing.assert_array_equal(streamed.final_state,
                                      stored.final_state)

    def test_summary_carries_observables(self):
        result = simulate(rc_circuit(), "er", store_states=False,
                          **self.OPTS)
        observables = result.summary()["observables"]
        assert set(observables) == {"out"}
        for key in ("num_points", "min", "max", "final", "l2", "energy"):
            assert key in observables["out"]

    def test_stored_run_summaries_match_its_own_series(self):
        result = simulate(rc_circuit(), "trap", **self.OPTS)
        replayed = ObservableSummary.from_series(result.times,
                                                 result.voltage("out"))
        assert result.summaries["out"].as_dict() == replayed.as_dict()


class TestRunStatistics:
    def test_averages_empty(self):
        stats = RunStatistics()
        assert stats.average_newton_iterations == 0.0
        assert stats.average_krylov_dimension == 0.0
        assert stats.peak_factor_nnz == 0

    def test_as_dict_complete(self):
        stats = RunStatistics(method="ER", num_steps=10, total_newton_iterations=0)
        d = stats.as_dict()
        assert d["method"] == "ER"
        assert d["#step"] == 10

    def test_record_step_accumulates(self):
        mna = rc_circuit().build()
        result = SimulationResult(mna, "ER")
        result.record_point(0.0, np.zeros(mna.n))
        result.record_step(StepRecord(t=1e-12, h=1e-12, rejections=2,
                                      newton_iterations=3,
                                      krylov_dimensions=[5, 7]))
        assert result.stats.num_steps == 1
        assert result.stats.num_rejections == 2
        assert result.stats.total_newton_iterations == 3
        assert result.steps[0].average_krylov_dimension == pytest.approx(6.0)
