"""sedlab: classical random-radiation simulations of linear charged-particle
systems and Monte Carlo verification of their closed-form statistics."""

from .core import GridSpec, SystemParams, validate
from .dynamics import (
    Trajectory,
    canonical_momentum,
    sample_from_spectrum,
    simulate_dipoles,
    simulate_oscillator,
)
from .experiments import ExperimentReport, run_scenario
from .noise import FieldRealization, synthesize_field, synthesize_pair
from .spectra import SpectrumModel, field_spectrum, position_spectrum

__version__ = "0.1.0"

__all__ = [
    "ExperimentReport",
    "FieldRealization",
    "GridSpec",
    "SpectrumModel",
    "SystemParams",
    "Trajectory",
    "canonical_momentum",
    "field_spectrum",
    "position_spectrum",
    "run_scenario",
    "sample_from_spectrum",
    "simulate_dipoles",
    "simulate_oscillator",
    "synthesize_field",
    "synthesize_pair",
    "validate",
    "__version__",
]
