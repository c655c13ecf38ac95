"""Core simulation layer: options, results and the simulator façade."""

from repro.core.options import SimOptions
from repro.core.results import SimulationResult, StepRecord, RunStatistics
from repro.core.rng import as_generator, derive_seed
from repro.core.simulator import TransientSimulator, simulate
from repro.core.workspace import LinearizationCache

__all__ = [
    "LinearizationCache",
    "as_generator",
    "derive_seed",
    "SimOptions",
    "SimulationResult",
    "StepRecord",
    "RunStatistics",
    "TransientSimulator",
    "simulate",
]
