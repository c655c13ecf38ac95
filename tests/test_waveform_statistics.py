"""Tests for waveform analysis (the Fig. 2 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.waveform import Signal, compare_waveforms


class TestSignal:
    def test_basic_construction(self):
        sig = Signal([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], name="x")
        assert len(sig) == 3
        assert sig.duration == 2.0
        assert sig.value_at(1.5) == pytest.approx(2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Signal([0.0, 1.0], [1.0])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            Signal([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])

    def test_resample_interpolates(self):
        sig = Signal([0.0, 1.0], [0.0, 2.0])
        resampled = sig.resample([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(resampled.values, [0.0, 0.5, 1.0, 2.0])

    def test_from_result(self):
        from repro.circuit.netlist import Circuit
        from repro.core.simulator import simulate

        ckt = Circuit("rc")
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "b", 1000.0)
        ckt.add_capacitor("C1", "b", "0", 1e-12)
        result = simulate(ckt, "er", t_stop=0.5e-9, h_init=1e-11)
        sig = Signal.from_result(result, "b")
        assert len(sig) == len(result.times)
        assert "ER:b" in sig.name


class TestCompareWaveforms:
    def test_identical_signals_have_zero_error(self):
        t = np.linspace(0, 1e-9, 50)
        v = np.sin(2 * np.pi * 1e9 * t)
        cmp = compare_waveforms(Signal(t, v, "a"), Signal(t, v, "ref"))
        assert cmp.max_abs_error == 0.0
        assert cmp.rms_error == 0.0

    def test_constant_offset_detected(self):
        t = np.linspace(0, 1.0, 20)
        cmp = compare_waveforms(Signal(t, np.ones(20)), Signal(t, np.zeros(20)))
        assert cmp.max_abs_error == pytest.approx(1.0)
        assert cmp.mean_abs_error == pytest.approx(1.0)

    def test_different_grids_resampled(self):
        ref = Signal(np.linspace(0, 1, 100), np.linspace(0, 1, 100))
        sig = Signal(np.linspace(0, 1, 37), np.linspace(0, 1, 37))
        cmp = compare_waveforms(sig, ref)
        assert cmp.max_abs_error < 1e-12

    def test_non_overlapping_signals_rejected(self):
        with pytest.raises(ValueError):
            compare_waveforms(Signal([0.0, 1.0], [0, 0]), Signal([2.0, 3.0], [0, 0]))

    def test_relative_error_scaling(self):
        t = np.linspace(0, 1, 10)
        cmp = compare_waveforms(Signal(t, 2.2 * np.ones(10)), Signal(t, 2.0 * np.ones(10)))
        assert cmp.max_relative_error == pytest.approx(0.1)

    @given(st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_error_scales_linearly_with_perturbation(self, scale):
        t = np.linspace(0, 1, 64)
        base = np.sin(2 * np.pi * t)
        ref = Signal(t, base)
        perturbed = Signal(t, base + scale * 0.01)
        cmp = compare_waveforms(perturbed, ref)
        assert cmp.max_abs_error == pytest.approx(0.01 * scale, rel=1e-9)
