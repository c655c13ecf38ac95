"""Round-trip tests for the options serialization layer."""

import dataclasses

import pytest

from repro.core.options import RETIRED_SIM_FIELDS, DCOptions, NewtonOptions, SimOptions
from repro.core.simulator import TransientSimulator
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL


class TestNewtonOptions:
    def test_round_trip(self):
        options = NewtonOptions(max_iterations=17, abstol=1e-8, damping=0.7)
        data = options.to_dict()
        assert data["max_iterations"] == 17
        assert NewtonOptions.from_dict(data) == options

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            NewtonOptions.from_dict({"damping": 2.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="dampng"):
            NewtonOptions.from_dict({"dampng": 0.5})


class TestDCOptions:
    def test_round_trip_with_nested_newton(self):
        options = DCOptions(
            newton=NewtonOptions(max_iterations=9),
            gmin_steps=[1e-3, 1e-6, 0.0],
            use_initial_conditions=True,
        )
        restored = DCOptions.from_dict(options.to_dict())
        assert restored == options
        assert isinstance(restored.newton, NewtonOptions)

    def test_lists_are_copied(self):
        options = DCOptions()
        data = options.to_dict()
        data["gmin_steps"].append(123.0)
        assert 123.0 not in options.gmin_steps
        restored = DCOptions.from_dict(data)
        data["gmin_steps"].append(456.0)
        assert 456.0 not in restored.gmin_steps


class TestSimOptions:
    def test_round_trip_defaults(self):
        options = SimOptions()
        assert SimOptions.from_dict(options.to_dict()) == options

    def test_round_trip_nested_and_derived(self):
        options = SimOptions(
            t_stop=2e-9,
            h_init=1e-12,
            correction=True,
            gamma=0.05,
            observe_nodes=["out", "mid"],
            newton=NewtonOptions(abstol=1e-9),
            dc=DCOptions(newton=NewtonOptions(max_iterations=7)),
            max_factor_nnz=1234,
        )
        data = options.to_dict()
        assert data["newton"]["abstol"] == 1e-9
        assert data["dc"]["newton"]["max_iterations"] == 7
        restored = SimOptions.from_dict(data)
        assert restored == options
        # derived accessors still work after the round trip
        assert restored.resolved_h_init() == 1e-12
        assert restored.span == pytest.approx(2e-9)

    def test_from_dict_partial(self):
        restored = SimOptions.from_dict({"t_stop": 5e-9, "newton": {"reltol": 1e-4}})
        assert restored.t_stop == 5e-9
        assert restored.newton.reltol == 1e-4
        assert restored.err_budget == SimOptions().err_budget

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            SimOptions.from_dict({"alpha": 1.5})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="no_such_option"):
            SimOptions.from_dict({"no_such_option": 1})

    def test_correction_normalization_survives_round_trip(self):
        """The er-c method flips ``correction`` on; the serialized form of
        the normalized options must rebuild into the same behaviour."""
        ckt = Circuit("rc")
        ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
        ckt.add_resistor("R1", "in", "out", 1000.0)
        ckt.add_capacitor("C1", "out", "0", 1e-12)

        sim = TransientSimulator(ckt, method="er-c", options=SimOptions(t_stop=1e-9))
        assert sim.options.correction is True
        data = sim.options.to_dict()
        assert data["correction"] is True

        # plain ER with a stale correction flag gets normalized back off
        sim2 = TransientSimulator(ckt, method="er", options=SimOptions.from_dict(data))
        assert sim2.options.correction is False


class TestSimOptionsValidation:
    """Step bounds and LTE tolerances that would hang or break a run."""

    @pytest.mark.parametrize("h_min", [0.0, -1e-15])
    def test_h_min_must_be_positive(self, h_min):
        with pytest.raises(ValueError, match="h_min must be positive"):
            SimOptions(h_min=h_min)

    @pytest.mark.parametrize("h_max", [0.0, -1e-12])
    def test_h_max_must_be_positive(self, h_max):
        # accepted, these bounds would keep run() stepping forever
        with pytest.raises(ValueError, match="h_max must be positive"):
            SimOptions(t_stop=1e-10, h_init=1e-12, h_max=h_max)

    def test_h_min_must_not_exceed_h_max(self):
        with pytest.raises(ValueError, match="h_min must not exceed h_max"):
            SimOptions(h_min=2e-12, h_max=1e-12)
        # equal bounds are a fixed-step run, and one bound alone is fine
        SimOptions(h_min=1e-12, h_max=1e-12)
        SimOptions(h_min=1.0)

    def test_max_rejections_must_be_non_negative(self):
        with pytest.raises(ValueError, match="max_rejections"):
            SimOptions(max_rejections=-1)
        SimOptions(max_rejections=0)

    @pytest.mark.parametrize("tols", [(-1e-6, 1e-3), (1e-6, -1e-3)])
    def test_lte_tolerances_must_be_non_negative(self, tols):
        with pytest.raises(ValueError, match="non-negative"):
            SimOptions(lte_abstol=tols[0], lte_reltol=tols[1])

    @pytest.mark.parametrize("gshunt", [-1e-4, -1e-2, float("nan")])
    def test_gshunt_must_be_non_negative(self, gshunt):
        # accepted, a negative shunt simulates an active circuit: node
        # voltages of a passive RC ladder driven at 1 V settle near 2 V
        with pytest.raises(ValueError, match="gshunt must be non-negative"):
            SimOptions(gshunt=gshunt)
        SimOptions(gshunt=0.0)
        SimOptions(gshunt=1e-9)

    def test_lte_tolerances_must_not_both_be_zero(self):
        with pytest.raises(ValueError, match="not both zero"):
            SimOptions(lte_abstol=0.0, lte_reltol=0.0)
        SimOptions(lte_abstol=0.0, lte_reltol=1e-3)
        SimOptions(lte_abstol=1e-6, lte_reltol=0.0)


class TestRetiredFields:
    """Payloads written before the LU-reuse knobs were retired."""

    def test_retired_fields_are_gone(self):
        names = {f.name for f in dataclasses.fields(SimOptions)}
        assert not names & set(RETIRED_SIM_FIELDS)

    def test_table_matches_the_fixed_constants(self):
        from repro.core.workspace import (
            H_BYPASS_MAX_REFINEMENTS,
            H_BYPASS_REFINE_TOL,
            LinearizationCache,
        )
        from repro.integrators.ladder import LADDER_RATIO

        assert RETIRED_SIM_FIELDS == {
            "cache_linearization": True,
            "reuse_symbolic": True,
            "reuse_segment_slope": True,
            "step_ladder_ratio": LADDER_RATIO,
            "h_bypass_refine_tol": H_BYPASS_REFINE_TOL,
            "h_bypass_max_refinements": H_BYPASS_MAX_REFINEMENTS,
            "lu_cache_entries": LinearizationCache.MAX_ENTRIES,
            "bypass_tol": 0.0,
        }

    def test_fixed_values_are_dropped(self):
        data = dict(SimOptions(t_stop=2e-9).to_dict(), **RETIRED_SIM_FIELDS)
        assert SimOptions.from_dict(data) == SimOptions(t_stop=2e-9)

    @pytest.mark.parametrize("name, value", [
        ("cache_linearization", False),
        ("reuse_symbolic", False),
        ("reuse_segment_slope", False),
        ("step_ladder_ratio", 1.5),
        ("h_bypass_refine_tol", 1e-8),
        ("h_bypass_max_refinements", 4),
        ("lu_cache_entries", 2),
        ("bypass_tol", 0.05),
    ])
    def test_other_values_are_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name}.*retired"):
            SimOptions.from_dict({name: value})

    def test_caller_dict_is_not_mutated(self):
        data = {"t_stop": 2e-9, "lu_cache_entries": 8}
        SimOptions.from_dict(data)
        assert data == {"t_stop": 2e-9, "lu_cache_entries": 8}
