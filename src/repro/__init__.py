"""repro -- exponential-integrator circuit simulation framework.

A from-scratch Python reproduction of

    Zhuang, Yu, Kang, Wang, Cheng,
    "An Algorithmic Framework for Efficient Large-Scale Circuit Simulation
    Using Exponential Integrators", DAC 2015.

The package provides a complete SPICE-like transient simulation stack --
netlists, device models, MNA assembly, DC analysis, classic implicit
integrators -- plus the paper's contribution: the exponential
Rosenbrock-Euler (ER / ER-C) integrator driven by invert-Krylov-subspace
matrix-exponential products that only ever factorize the conductance
matrix ``G``.

Quick start::

    import repro

    ckt = repro.Circuit("rc line")
    ckt.add_vsource("Vin", "in", "0", repro.PULSE(0.0, 1.0, 0.0, 10e-12, 10e-12, 0.5e-9, 1e-9))
    ckt.add_resistor("R1", "in", "n1", 100.0)
    ckt.add_capacitor("C1", "n1", "0", 1e-12)
    result = repro.simulate(ckt, method="er", t_stop=1e-9, h_init=1e-12)
    print(result.voltage("n1"))
"""

from repro.circuit import (
    Circuit,
    DC,
    EXP,
    GROUND,
    MNASystem,
    PULSE,
    PWL,
    SIN,
    parse_netlist,
)
from repro.circuit.devices import Diode, DiodeModel, MOSFET, MOSFETModel
from repro.core import (
    RunStatistics,
    SimOptions,
    SimulationResult,
    TransientSimulator,
    simulate,
)
from repro.analysis import (
    DCResult,
    Signal,
    compare_waveforms,
    dc_operating_point,
)
from repro.integrators import (
    BackwardEulerNR,
    ExponentialRosenbrockEuler,
    ForwardEuler,
    Gear2NR,
    StandardKrylovExponential,
    TrapezoidalNR,
)
from repro.campaign import (
    CampaignResult,
    CircuitSpec,
    Scenario,
    ScenarioOutcome,
    grid_sweep,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "GROUND",
    "MNASystem",
    "DC",
    "PWL",
    "PULSE",
    "SIN",
    "EXP",
    "parse_netlist",
    "Diode",
    "DiodeModel",
    "MOSFET",
    "MOSFETModel",
    "SimOptions",
    "SimulationResult",
    "RunStatistics",
    "TransientSimulator",
    "simulate",
    "DCResult",
    "dc_operating_point",
    "Signal",
    "compare_waveforms",
    "BackwardEulerNR",
    "TrapezoidalNR",
    "Gear2NR",
    "ForwardEuler",
    "ExponentialRosenbrockEuler",
    "StandardKrylovExponential",
    "CampaignResult",
    "CircuitSpec",
    "Scenario",
    "ScenarioOutcome",
    "grid_sweep",
    "run_campaign",
    "__version__",
]
