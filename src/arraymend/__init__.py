"""
Minimum-change excitation corrections for linear arrays with failed elements.

Given an array whose dead elements are pinned to zero, the package finds a
correction of as few working excitations as possible that restores a
pattern requirement (by default a maximum sidelobe level over an angular
region), and ships an exhaustive enumeration oracle plus a benchmark
harness for validating the heuristic.
"""

from .correction import CorrectionResult, TraceEntry, minimize_corrections
from .errors import (
    BudgetExceededError,
    DegenerateBroadsideError,
    InfeasibleError,
    NoMainlobeError,
    NumericalFailureError,
)
from .model import (
    AngularRegion,
    ArrayGeometry,
    FailureScenario,
    MetricSpec,
    beamwidth,
    dynamic_range,
    evaluate_metric,
    max_sll,
    pattern_db,
    sidelobe_region,
    steering_matrix,
    uniform_grid,
    uniform_positions,
)
from .oracle import OracleResult, exhaustive_min
from .solver import SolverConfig, l0_norm, l1_norm, solve_constrained_l1
from .taper import apply_failures, dolph_chebyshev

__version__ = "0.1.0"

__all__ = [
    "AngularRegion",
    "ArrayGeometry",
    "BudgetExceededError",
    "CorrectionResult",
    "DegenerateBroadsideError",
    "FailureScenario",
    "InfeasibleError",
    "MetricSpec",
    "NoMainlobeError",
    "NumericalFailureError",
    "OracleResult",
    "SolverConfig",
    "TraceEntry",
    "apply_failures",
    "beamwidth",
    "dolph_chebyshev",
    "dynamic_range",
    "evaluate_metric",
    "exhaustive_min",
    "l0_norm",
    "l1_norm",
    "max_sll",
    "minimize_corrections",
    "pattern_db",
    "sidelobe_region",
    "solve_constrained_l1",
    "steering_matrix",
    "uniform_grid",
    "uniform_positions",
    "__version__",
]
