"""The :class:`TransientSimulator` façade.

Ties the pieces together the way Algorithm 2 describes: load/assemble the
circuit, compute the DC operating point, pick an integration method and
run the adaptive time loop, returning a :class:`SimulationResult` whose
statistics carry the Table-I counters.

Typical use::

    from repro import Circuit, TransientSimulator, SimOptions

    ckt = Circuit("rc")
    ...
    sim = TransientSimulator(ckt, method="er",
                             options=SimOptions(t_stop=1e-9, h_init=1e-12))
    result = sim.run()
    v_out = result.voltage("out")
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.analysis.dc import DCResult, dc_operating_point
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit
from repro.core.options import SimOptions
from repro.core.results import SimulationResult
from repro.integrators import INTEGRATOR_REGISTRY, ExponentialRosenbrockEuler
from repro.integrators.base import Integrator
from repro.linalg.sparse_lu import LUStats

__all__ = ["TransientSimulator", "simulate"]


class TransientSimulator:
    """High-level transient simulation driver."""

    def __init__(
        self,
        circuit: Union[Circuit, MNASystem],
        method: str = "er",
        options: Optional[SimOptions] = None,
    ):
        if isinstance(circuit, Circuit):
            self.circuit: Optional[Circuit] = circuit
            self.mna = circuit.build()
        elif isinstance(circuit, MNASystem):
            self.circuit = circuit.circuit
            self.mna = circuit
        else:
            raise TypeError(
                f"expected a Circuit or MNASystem, got {type(circuit).__name__}"
            )
        self.options = options if options is not None else SimOptions()
        self.method = self._normalize_method(method)
        self.integrator = self._make_integrator()
        self.dc_result: Optional[DCResult] = None
        #: LU work of the cached DC solve, attributed to every run that uses it
        self._dc_lu_stats = LUStats()

    # -- construction helpers -----------------------------------------------------------

    @staticmethod
    def _normalize_method(method: str) -> str:
        key = method.strip().lower()
        if key not in INTEGRATOR_REGISTRY:
            known = ", ".join(sorted(set(INTEGRATOR_REGISTRY)))
            raise ValueError(f"unknown integration method {method!r}; known methods: {known}")
        return key

    def _make_integrator(self) -> Integrator:
        cls = INTEGRATOR_REGISTRY[self.method]
        if cls is ExponentialRosenbrockEuler:
            # "er-c" / "erc" select the corrected variant of the same class
            return cls(self.mna, self.options,
                       correction=self.method in ("er-c", "erc"))
        return cls(self.mna, self.options)

    # -- running ----------------------------------------------------------------------------

    @property
    def dc_lu_stats(self) -> LUStats:
        """LU counters of the cached DC solve (empty before the first run)."""
        return self._dc_lu_stats

    def seed_dc(self, dc_result: DCResult, lu_stats: Optional[LUStats] = None) -> None:
        """Install an externally computed DC operating point.

        The campaign runner uses this to share one DC solve across every
        method sweep of the same circuit (the DC system does not depend on
        the integration method).  ``lu_stats`` should be the counters of
        the original solve; they are merged into every run that starts
        from the seeded point, so Table-I statistics stay identical to an
        uncached run.
        """
        self.dc_result = dc_result
        self._dc_lu_stats = lu_stats if lu_stats is not None else LUStats()

    def run_dc(self) -> DCResult:
        """Compute (and cache) the DC operating point used as ``x(0)``."""
        if self.dc_result is None:
            self._dc_lu_stats = LUStats()
            self.dc_result = dc_operating_point(
                self.mna, lu_stats=self._dc_lu_stats,
                max_factor_nnz=self.options.max_factor_nnz,
            )
        return self.dc_result

    def run(self, x0: Optional[np.ndarray] = None) -> SimulationResult:
        """Run the transient analysis and return the result.

        ``x0`` overrides the starting state -- ``mna.initial_state()``
        starts from the circuit's ``.ic`` vector -- and by default the DC
        operating point is computed first (Algorithm 2, line 2), reusing
        the result cached by an earlier :meth:`run_dc` call when one exists.  The DC
        solve's LU counters are merged into every result that starts from
        it, so the Table-I statistics do not depend on whether (or how
        often) the cache was warmed.  The DC solve's last ordering seeds
        the integrator's symbolic cache, so the transient does not order
        that pattern again.
        """
        result = SimulationResult(
            self.mna, method=self.integrator.name,
            store_states=self.options.store_states,
            observe_nodes=self.options.observe_nodes,
        )
        if x0 is None:
            dc = self.run_dc()
            result.stats.lu.merge(self._dc_lu_stats)
            if not dc.converged:
                result.stats.completed = False
                result.stats.failure_reason = "DC operating point did not converge"
                return result
            x0 = dc.x
            if dc.ordering is not None:
                dc.ordering.install(self.integrator.cache.symbolic)
        return self.integrator.run(np.asarray(x0, dtype=float), result)


def simulate(
    circuit: Union[Circuit, MNASystem],
    method: str = "er",
    options: Optional[SimOptions] = None,
    x0: Optional[np.ndarray] = None,
    **option_overrides,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`TransientSimulator`.

    Keyword arguments are applied on top of ``options`` (or the defaults),
    e.g. ``simulate(ckt, "benr", t_stop=1e-9, h_init=1e-12)``.
    """
    if option_overrides:
        base = options if options is not None else SimOptions()
        options = base.with_updates(**option_overrides)
    simulator = TransientSimulator(circuit, method=method, options=options)
    return simulator.run(x0=x0)
