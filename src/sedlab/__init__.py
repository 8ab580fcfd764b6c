"""sedlab: classical random-radiation simulations of linear charged-particle
systems and Monte Carlo verification of their closed-form statistics."""

from .core import GridSpec, SystemParams, validate
from .experiments import run_scenario
from .report import ExperimentReport

__version__ = "0.1.0"

__all__ = [
    "ExperimentReport",
    "GridSpec",
    "SystemParams",
    "run_scenario",
    "validate",
    "__version__",
]
