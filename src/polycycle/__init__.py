"""Hopf limit cycles of planar polynomial systems.

The package reduces a planar polynomial field to one second-order
scalar equation through a polynomial change of variables, applies
first-order averaging to predict whether a small limit cycle exists
near the origin (with its amplitude, period, and stability), and
cross-checks the prediction against direct numerical integration.
"""

from .averaging import (
    GCoefficients,
    KbmPrediction,
    cycle_curve,
    g_coefficients,
    p3_q3,
    predict_cycle,
)
from .change_of_variables import (
    ChangeOfVariables,
    ConstraintSystem,
    NoSolutionError,
    assemble_constraints,
    min_degree_bound,
    residual_condition33,
    solve_theta,
)
from .definition import SystemDefinition, instantiate, load_definition
from .inversion import InverseSeries, invert_to_cubic, trust_radius
from .oracle import (
    ComparisonReport,
    CycleMeasurement,
    Trajectory,
    TransversalityError,
    compare,
    integrate,
    measure_cycle,
    samples_to_csv,
)
from .pipeline import AnalysisOptions, AnalysisReport, run_analyze, run_sweep, sweep_to_csv
from .system import HopfIndicator, PlanarPolySystem, build_system, hopf_indicator

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "ChangeOfVariables",
    "ComparisonReport",
    "ConstraintSystem",
    "CycleMeasurement",
    "GCoefficients",
    "HopfIndicator",
    "InverseSeries",
    "KbmPrediction",
    "NoSolutionError",
    "PlanarPolySystem",
    "SystemDefinition",
    "Trajectory",
    "TransversalityError",
    "assemble_constraints",
    "build_system",
    "compare",
    "cycle_curve",
    "g_coefficients",
    "hopf_indicator",
    "instantiate",
    "integrate",
    "invert_to_cubic",
    "load_definition",
    "measure_cycle",
    "min_degree_bound",
    "p3_q3",
    "predict_cycle",
    "residual_condition33",
    "run_analyze",
    "run_sweep",
    "samples_to_csv",
    "solve_theta",
    "sweep_to_csv",
    "trust_radius",
]
