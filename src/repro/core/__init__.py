"""The study's core: simulation configuration, the discrete-event
orchestrator that runs the hijacking ecosystem against the provider,
scenario presets per experiment, and headline summary metrics.  The
14 datasets of Table 1 are extracted by :mod:`repro.analysis.datasets`."""

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation, SimulationResult
from repro.core.metrics import SummaryMetrics

__all__ = [
    "SimulationConfig",
    "Simulation",
    "SimulationResult",
    "SummaryMetrics",
]
