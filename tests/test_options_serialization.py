"""Round-trip tests for the options serialization layer."""

import dataclasses

import pytest

from repro.core.options import RETIRED_SIM_FIELDS, SimOptions
from repro.core.simulator import TransientSimulator
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL

#: ``SimOptions().to_dict()`` as written before the Newton/DC settings, the
#: step controller, the Krylov cap, ``gshunt`` and ``correction`` were
#: retired -- the form queued jobs, journals and older clients still carry
PARENT_DEFAULT_PAYLOAD = {
    "t_stop": 1e-09,
    "t_start": 0.0,
    "h_init": None,
    "h_min": None,
    "h_max": None,
    "err_budget": 0.0001,
    "mevp_tol": 1e-07,
    "krylov_max_dim": 100,
    "correction": False,
    "gamma": 0.1,
    "alpha": 0.5,
    "beta": 2.0,
    "grow_when_rejections_below": 1,
    "grow_error_fraction": 0.25,
    "max_rejections": 25,
    "newton": {"max_iterations": 50, "abstol": 1e-06, "reltol": 0.001,
               "residual_tol": 1e-09, "damping": 1.0, "apply_limiting": True},
    "lte_abstol": 1e-06,
    "lte_reltol": 0.001,
    "gshunt": 0.0,
    "max_factor_nnz": None,
    "step_ladder": "off",
    "h_bypass_tol": 0.0,
    "store_states": True,
    "observe_nodes": [],
    "dc": {
        "newton": {"max_iterations": 50, "abstol": 1e-06, "reltol": 0.001,
                   "residual_tol": 1e-09, "damping": 1.0, "apply_limiting": True},
        "gmin_steps": [0.001, 0.0001, 1e-05, 1e-06, 1e-07, 1e-08, 1e-09, 1e-10,
                       1e-12, 0.0],
        "source_steps": [0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
        "use_initial_conditions": False,
    },
}


def rc_circuit():
    ckt = Circuit("rc")
    ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
    ckt.add_resistor("R1", "in", "out", 1000.0)
    ckt.add_capacitor("C1", "out", "0", 1e-12)
    return ckt


class TestNewtonOptions:
    """The retired nested ``newton`` payload: fixed values only."""

    def test_round_trip(self):
        data = {"t_stop": 2e-9, "newton": dict(PARENT_DEFAULT_PAYLOAD["newton"])}
        assert SimOptions.from_dict(data) == SimOptions(t_stop=2e-9)

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match=r"'newton\.max_iterations' is retired"):
            SimOptions.from_dict({"newton": {"max_iterations": 9}})
        with pytest.raises(ValueError, match=r"'newton\.damping' is retired"):
            SimOptions.from_dict({"newton": {"damping": 0.7}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"newton\.dampng"):
            SimOptions.from_dict({"newton": {"dampng": 0.5}})


class TestDCOptions:
    """The retired nested ``dc`` payload, with its own ``newton`` dict."""

    def test_round_trip_with_nested_newton(self):
        data = {"dc": PARENT_DEFAULT_PAYLOAD["dc"]}
        assert SimOptions.from_dict(data) == SimOptions()
        with pytest.raises(ValueError, match=r"'dc\.newton\.max_iterations' is retired"):
            SimOptions.from_dict({"dc": {"newton": {"max_iterations": 9}}})
        with pytest.raises(ValueError, match=r"'dc\.gmin_steps' is retired"):
            SimOptions.from_dict({"dc": {"gmin_steps": [1e-3, 1e-6, 0.0]}})
        with pytest.raises(ValueError, match=r"'dc\.use_initial_conditions' is retired"):
            SimOptions.from_dict({"dc": {"use_initial_conditions": True}})


class TestSimOptions:
    def test_round_trip_defaults(self):
        options = SimOptions()
        assert SimOptions.from_dict(options.to_dict()) == options

    def test_round_trip_nested_and_derived(self):
        options = SimOptions(
            t_stop=2e-9,
            h_init=1e-12,
            gamma=0.05,
            observe_nodes=["out", "mid"],
            max_factor_nnz=1234,
        )
        data = options.to_dict()
        # no nested option dataclasses are left to serialize
        assert not any(isinstance(value, dict) for value in data.values())
        restored = SimOptions.from_dict(data)
        assert restored == options
        # derived accessors still work after the round trip
        assert restored.resolved_h_init() == 1e-12
        assert restored.span == pytest.approx(2e-9)

    def test_lists_are_copied(self):
        options = SimOptions(observe_nodes=["out"])
        data = options.to_dict()
        data["observe_nodes"].append("mid")
        assert options.observe_nodes == ["out"]
        restored = SimOptions.from_dict(data)
        data["observe_nodes"].append("in")
        assert restored.observe_nodes == ["out", "mid"]

    def test_from_dict_partial(self):
        restored = SimOptions.from_dict({"t_stop": 5e-9, "newton": {"reltol": 1e-3}})
        assert restored.t_stop == 5e-9
        assert restored.err_budget == SimOptions().err_budget

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match="h_min must be positive"):
            SimOptions.from_dict({"h_min": 0.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="no_such_option"):
            SimOptions.from_dict({"no_such_option": 1})

    def test_correction_normalization_survives_round_trip(self):
        """The method name alone picks ER-C, so options rebuilt from their
        dict form select the same integrator under every method."""
        ckt = rc_circuit()
        sim = TransientSimulator(ckt, method="er-c", options=SimOptions(t_stop=1e-9))
        data = sim.options.to_dict()
        assert "correction" not in data
        restored = SimOptions.from_dict(data)
        assert TransientSimulator(ckt, method="er-c", options=restored).integrator.correction
        assert not TransientSimulator(ckt, method="er", options=restored).integrator.correction


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
        # the rejection limit is a constant now; a stored payload may only
        # carry its fixed value
        with pytest.raises(ValueError, match="'max_rejections' is retired"):
            SimOptions.from_dict({"max_rejections": -1})
        SimOptions.from_dict({"max_rejections": 25})

    @pytest.mark.parametrize("tols", [(-1e-6, 1e-3), (1e-6, -1e-3)])
    def test_lte_tolerances_must_be_non_negative(self, tols):
        with pytest.raises(ValueError, match="non-negative"):
            SimOptions(lte_abstol=tols[0], lte_reltol=tols[1])

    @pytest.mark.parametrize("gshunt", [-1e-4, -1e-2, float("nan")])
    def test_gshunt_must_be_non_negative(self, gshunt):
        # accepted, a negative shunt would simulate an active circuit; the
        # shunt is gone, so a stored payload may only carry 0
        with pytest.raises(ValueError, match="'gshunt' is retired"):
            SimOptions.from_dict({"gshunt": gshunt})
        SimOptions.from_dict({"gshunt": 0.0})

    def test_lte_tolerances_must_not_both_be_zero(self):
        with pytest.raises(ValueError, match="not both zero"):
            SimOptions(lte_abstol=0.0, lte_reltol=0.0)
        SimOptions(lte_abstol=0.0, lte_reltol=1e-3)
        SimOptions(lte_abstol=1e-6, lte_reltol=0.0)


class TestRetiredFields:
    """Payloads written before tuning knobs became constants."""

    def test_retired_fields_are_gone(self):
        names = {f.name for f in dataclasses.fields(SimOptions)}
        assert not names & set(RETIRED_SIM_FIELDS)
        assert len(names) == 15

    def test_table_matches_the_fixed_constants(self):
        from repro.analysis.dc import GMIN_STEPS, SOURCE_STEPS
        from repro.core.workspace import (
            H_BYPASS_MAX_REFINEMENTS,
            H_BYPASS_REFINE_TOL,
            LinearizationCache,
        )
        from repro.integrators.base import Integrator
        from repro.integrators.ladder import LADDER_RATIO
        from repro.integrators.newton import NewtonSolver
        from repro.linalg.krylov import KRYLOV_MAX_DIM

        newton = {
            "max_iterations": NewtonSolver.MAX_ITERATIONS,
            "abstol": NewtonSolver.ABSTOL,
            "reltol": NewtonSolver.RELTOL,
            "residual_tol": NewtonSolver.RESIDUAL_TOL,
            "damping": 1.0,
            "apply_limiting": True,
        }
        assert RETIRED_SIM_FIELDS == {
            "cache_linearization": True,
            "reuse_symbolic": True,
            "reuse_segment_slope": True,
            "step_ladder_ratio": LADDER_RATIO,
            "h_bypass_refine_tol": H_BYPASS_REFINE_TOL,
            "h_bypass_max_refinements": H_BYPASS_MAX_REFINEMENTS,
            "lu_cache_entries": LinearizationCache.MAX_ENTRIES,
            "bypass_tol": 0.0,
            "correction": False,
            "alpha": Integrator.ALPHA,
            "beta": Integrator.BETA,
            "grow_when_rejections_below": Integrator.GROW_WHEN_REJECTIONS_BELOW,
            "grow_error_fraction": Integrator.GROW_ERROR_FRACTION,
            "max_rejections": Integrator.MAX_REJECTIONS,
            "krylov_max_dim": KRYLOV_MAX_DIM,
            "gshunt": 0.0,
            "newton": newton,
            "dc": {
                "newton": newton,
                "gmin_steps": list(GMIN_STEPS),
                "source_steps": list(SOURCE_STEPS),
                "use_initial_conditions": False,
            },
        }

    def test_parent_default_payload_loads(self):
        assert SimOptions.from_dict(PARENT_DEFAULT_PAYLOAD) == SimOptions()

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
        ("correction", True),
        ("alpha", 0.25),
        ("beta", 1.5),
        ("grow_when_rejections_below", 2),
        ("grow_error_fraction", 1.0),
        ("max_rejections", 0),
        ("krylov_max_dim", 30),
        ("gshunt", 1e-9),
    ])
    def test_other_values_are_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}' is retired"):
            SimOptions.from_dict({name: value})

    @pytest.mark.parametrize("key", [
        "newton.max_iterations", "newton.abstol", "dc.newton.residual_tol",
    ])
    def test_dotted_keys_are_checked_like_nested_ones(self, key):
        with pytest.raises(ValueError, match=f"'{key}' is retired"):
            SimOptions.from_dict({key: 7})
        fixed = RETIRED_SIM_FIELDS
        for part in key.split("."):
            fixed = fixed[part]
        assert SimOptions.from_dict({key: fixed}) == SimOptions()

    def test_caller_dict_is_not_mutated(self):
        data = {"t_stop": 2e-9, "lu_cache_entries": 8, "newton": {"abstol": 1e-6}}
        SimOptions.from_dict(data)
        assert data == {"t_stop": 2e-9, "lu_cache_entries": 8, "newton": {"abstol": 1e-6}}
