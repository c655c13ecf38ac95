"""Simulation options.

:class:`SimOptions` holds the fifteen settings a caller may choose: the
simulated window (``t_start``/``t_stop``), the step bounds, the error
budgets of the exponential (``err_budget``, the MEVP ``mevp_tol``
``epsilon = 1e-7``) and implicit (``lte_abstol``/``lte_reltol``)
controllers, the ER-C correction coefficient ``gamma = 0.1``, the LU
memory budget, the two LU-reuse knobs (``step_ladder``,
``h_bypass_tol``) and what the result records.  The integration method
-- ER-C included (``"er-c"``) -- is chosen by name, not by an option.

Everything else is a constant next to the code using it: Algorithm 2's
step controller (``alpha = 1/2``, ``beta = 2`` and friends) on
:class:`repro.integrators.base.Integrator`, the Krylov dimension cap in
:mod:`repro.linalg.krylov`, the Newton tolerances on
:class:`repro.integrators.newton.NewtonSolver` and the DC homotopy
ladders in :mod:`repro.analysis.dc`.  :data:`RETIRED_SIM_FIELDS` lists
the fields that once set them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

__all__ = ["SimOptions", "RETIRED_SIM_FIELDS"]

#: the fixed Newton settings, in the nested form stored payloads carry
#: (repro.integrators.newton.NewtonSolver; damping 1.0, limiting always on)
_RETIRED_NEWTON = {
    "max_iterations": 50,
    "abstol": 1e-6,
    "reltol": 1e-3,
    "residual_tol": 1e-9,
    "damping": 1.0,
    "apply_limiting": True,
}

#: retired ``SimOptions`` fields and the behaviour now fixed in their place.
#: Stored payloads (queued jobs, older clients) may still carry them:
#: :meth:`SimOptions.from_dict` drops a key holding its fixed value and
#: refuses any other value by name.  The nested ``newton`` / ``dc`` dicts
#: are compared entry by entry (``"newton.max_iterations"``), in nested or
#: dotted form.
RETIRED_SIM_FIELDS: Dict[str, object] = {
    "cache_linearization": True,
    "reuse_symbolic": True,
    "reuse_segment_slope": True,
    "step_ladder_ratio": 2.0,        # repro.integrators.ladder.LADDER_RATIO
    "h_bypass_refine_tol": 1e-10,    # repro.core.workspace.H_BYPASS_REFINE_TOL
    "h_bypass_max_refinements": 8,   # ...workspace.H_BYPASS_MAX_REFINEMENTS
    "lu_cache_entries": 8,           # LinearizationCache.MAX_ENTRIES
    "bypass_tol": 0.0,               # nonlinear LUs are never reused stale
    "correction": False,             # the method name picks ER-C ("er-c")
    "alpha": 0.5,                    # repro.integrators.base.Integrator.ALPHA
    "beta": 2.0,                     # Integrator.BETA
    "grow_when_rejections_below": 1,  # Integrator.GROW_WHEN_REJECTIONS_BELOW
    "grow_error_fraction": 0.25,     # Integrator.GROW_ERROR_FRACTION
    "max_rejections": 25,            # Integrator.MAX_REJECTIONS
    "krylov_max_dim": 100,           # repro.linalg.krylov.KRYLOV_MAX_DIM
    "gshunt": 0.0,                   # no shunt conductance
    "newton": _RETIRED_NEWTON,
    "dc": {                          # repro.analysis.dc
        "newton": _RETIRED_NEWTON,
        "gmin_steps": [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 0.0],
        "source_steps": [0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
        # run(x0=mna.initial_state()) starts from the .ic vector instead
        "use_initial_conditions": False,
    },
}

_UNKNOWN = object()


def _leaves(key: str, value):
    """Yield ``(dotted name, value)`` for every non-dict entry under ``key``."""
    if isinstance(value, dict):
        for sub, sub_value in value.items():
            yield from _leaves(f"{key}.{sub}", sub_value)
    else:
        yield key, value


def _fixed_value(name: str):
    """Fixed value of a (dotted) retired field name, ``_UNKNOWN`` if none."""
    head, *path = name.split(".")
    fixed = RETIRED_SIM_FIELDS.get(head, _UNKNOWN)
    for part in path:
        fixed = fixed.get(part, _UNKNOWN) if isinstance(fixed, dict) else _UNKNOWN
    return fixed


@dataclass
class SimOptions:
    """Transient simulation controls shared by every integration method."""

    #: simulation end time [s]
    t_stop: float = 1e-9
    #: simulation start time [s]
    t_start: float = 0.0
    #: initial step size [s]; defaults to (t_stop - t_start) / 1000
    h_init: Optional[float] = None
    #: smallest step the controller may take [s]
    h_min: Optional[float] = None
    #: largest step the controller may take [s]
    h_max: Optional[float] = None

    # -- exponential integrator controls (Algorithm 2) -----------------------------
    #: error budget ``Err`` of the nonlinear local error estimator (Eq. 15/24)
    err_budget: float = 1e-4
    #: MEVP convergence criterion ``epsilon`` of Algorithm 1
    mevp_tol: float = 1e-7
    #: ER-C correction-term coefficient ``gamma`` (Eq. 16; method ``"er-c"``)
    gamma: float = 0.1

    # -- implicit (BENR / TR / Gear) controls ------------------------------------------
    #: local truncation error tolerances for the low-order controllers
    lte_abstol: float = 1e-6
    lte_reltol: float = 1e-3

    # -- shared numerical safeguards ------------------------------------------------------
    #: LU fill-in budget emulating a memory limit (None disables)
    max_factor_nnz: Optional[int] = None

    # -- LU reuse (repro.core.workspace) ---------------------------------------------
    #: step-controller quantization mode: ``"off"`` keeps the continuous
    #: controller; ``"geometric"`` rounds every proposed step down onto the
    #: grid ``h_ref * 2**k`` anchored at the resolved initial step
    #: (:data:`repro.integrators.ladder.LADDER_RATIO`), so consecutive steps
    #: share one cached ``LU(C/h + G)``
    step_ladder: str = "off"
    #: cross-``h`` stale-factorization reuse: when a linear-circuit Jacobian
    #: is requested at ``h_new`` and a factorization cached at ``h_cached``
    #: satisfies ``|h_new - h_cached| / h_cached <= h_bypass_tol``, solve
    #: with the stale LU plus iterative refinement against the exact
    #: ``C/h_new + G`` operator instead of refactorizing (0 disables)
    h_bypass_tol: float = 0.0

    # -- output ------------------------------------------------------------------------------
    #: store the full state trajectory (False keeps only observed nodes)
    store_states: bool = True
    #: node names recorded even when ``store_states`` is False
    observe_nodes: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    # -- helpers -----------------------------------------------------------------------

    def validate(self) -> None:
        if self.t_stop <= self.t_start:
            raise ValueError("t_stop must be greater than t_start")
        for name in ("h_init", "h_min", "h_max"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")
        if self.h_min is not None and self.h_max is not None and self.h_min > self.h_max:
            raise ValueError("h_min must not exceed h_max")
        if min(self.lte_abstol, self.lte_reltol) < 0 or self.lte_abstol == self.lte_reltol == 0:
            raise ValueError("lte_abstol and lte_reltol must be non-negative and not both zero")
        if self.err_budget <= 0 or self.mevp_tol <= 0:
            raise ValueError("error budgets must be positive")
        if self.step_ladder not in ("off", "geometric"):
            raise ValueError("step_ladder must be 'off' or 'geometric'")
        if not (0.0 <= self.h_bypass_tol < 1.0):
            raise ValueError("h_bypass_tol must lie in [0, 1)")

    @property
    def span(self) -> float:
        return self.t_stop - self.t_start

    def resolved_h_init(self) -> float:
        return self.h_init if self.h_init is not None else self.span / 1000.0

    def resolved_h_min(self) -> float:
        return self.h_min if self.h_min is not None else self.span * 1e-12

    def resolved_h_max(self) -> float:
        return self.h_max if self.h_max is not None else self.span / 10.0

    def with_updates(self, **kwargs) -> "SimOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Serialize into JSON/pickle-friendly builtins.

        ``SimOptions.from_dict(options.to_dict())`` round-trips exactly;
        the campaign scenario layer ships options between processes in this
        form.
        """
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, list) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimOptions":
        """Rebuild from :meth:`to_dict` output (validating on construction).

        Keys of :data:`RETIRED_SIM_FIELDS` -- nested dicts and dotted keys
        such as ``"newton.abstol"`` included -- are dropped when they carry
        the behaviour that is now fixed and refused by name otherwise.
        Unknown keys raise, so typos in serialized option files fail loudly
        instead of silently falling back to defaults.
        """
        if not isinstance(data, dict):
            raise TypeError(f"SimOptions.from_dict expects a dict, got {type(data).__name__}")
        data = dict(data)
        for key in list(data):
            if str(key).split(".")[0] not in RETIRED_SIM_FIELDS:
                continue
            for name, value in _leaves(str(key), data.pop(key)):
                fixed = _fixed_value(name)
                if fixed is _UNKNOWN:
                    raise ValueError(f"unknown SimOptions field {name!r}")
                if value != fixed:
                    raise ValueError(
                        f"SimOptions field {name!r} is retired; only its fixed "
                        f"value {fixed!r} is accepted"
                    )
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown SimOptions field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        return cls(**{key: list(value) if isinstance(value, list) else value
                      for key, value in data.items()})
