"""Hopf limit cycles of planar polynomial systems.

The package reduces a planar polynomial field to one second-order
scalar equation through a polynomial change of variables, applies
first-order averaging to predict whether a small limit cycle exists
near the origin (with its amplitude, period, and stability), and
cross-checks the prediction against direct numerical integration.

The stages are the API: :func:`reduce`, :func:`predict`,
:func:`measure_cycle` and :func:`compare`, which :func:`run_analyze`
and :func:`run_sweep` wire together.  The functions of each layer stay
importable from their own modules.
"""

from .averaging import KbmPrediction
from .change_of_variables import NoSolutionError
from .definition import SystemDefinition, instantiate, load_definition
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
from .pipeline import (
    AnalysisOptions,
    AnalysisReport,
    Reduction,
    predict,
    reduce,
    run_analyze,
    run_sweep,
    sweep_to_csv,
)
from .system import HopfIndicator, PlanarPolySystem, build_system, hopf_indicator

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "ComparisonReport",
    "CycleMeasurement",
    "HopfIndicator",
    "KbmPrediction",
    "NoSolutionError",
    "PlanarPolySystem",
    "Reduction",
    "SystemDefinition",
    "Trajectory",
    "TransversalityError",
    "build_system",
    "compare",
    "hopf_indicator",
    "instantiate",
    "integrate",
    "load_definition",
    "measure_cycle",
    "predict",
    "reduce",
    "run_analyze",
    "run_sweep",
    "samples_to_csv",
    "sweep_to_csv",
]
