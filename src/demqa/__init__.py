"""DEM vertical accuracy assessment against ground control points.

Library + CLI covering the full pipeline: coincident-height extraction,
validity and Tukey outlier screening, per-land-cover SD/RMSE summaries,
Global Moran's I with analytic and permutation significance, slope and
aspect derivatives, correlation of errors with terrain, and one-way
ANOVA across land-cover strata.
"""

from .errors import (
    ConfigError,
    DegenerateDataError,
    DegenerateWeightsError,
    DemqaError,
    InsufficientDataError,
    NonFiniteGridError,
    ParseError,
    TrainingPointError,
    ZeroVarianceError,
)
from .raster import Grid, MultibandGrid, cell_of, read_ascii_grid, write_ascii_grid
from .sample import (
    ControlPoint,
    SampleRecord,
    attach_class,
    attach_derivatives,
    extract_coincident,
    read_gcp_csv,
)
from .screen import TukeyFences, quartiles, tukey_filter, validity_filter
from .spatial import (
    MoranResult,
    PermutationResult,
    WeightsMatrix,
    build_weights,
    morans_i,
    morans_significance,
    permutation_test,
)
from .stats import (
    AnovaTable,
    CorrelationResult,
    SummaryStats,
    anova_decompose,
    f_cdf,
    f_test,
    histogram,
    normal_cdf,
    pearson_r,
    summarize,
    two_tailed_p,
)
from .terrain import CellDerivatives, DerivativePair, slope_aspect, slope_aspect_at
from .landcover import ClassBox, classify, train_parallelepiped
from .synth import (
    SceneSpec,
    make_checkerboard,
    make_plane,
    make_smoothed_noise,
    scatter_points,
)

__version__ = "0.1.0"

__all__ = [
    "AnovaTable",
    "CellDerivatives",
    "ClassBox",
    "ConfigError",
    "ControlPoint",
    "CorrelationResult",
    "DegenerateDataError",
    "DegenerateWeightsError",
    "DemqaError",
    "DerivativePair",
    "Grid",
    "InsufficientDataError",
    "MoranResult",
    "MultibandGrid",
    "NonFiniteGridError",
    "ParseError",
    "PermutationResult",
    "SampleRecord",
    "SceneSpec",
    "SummaryStats",
    "TrainingPointError",
    "TukeyFences",
    "WeightsMatrix",
    "ZeroVarianceError",
    "anova_decompose",
    "attach_class",
    "attach_derivatives",
    "build_weights",
    "cell_of",
    "classify",
    "extract_coincident",
    "f_cdf",
    "f_test",
    "histogram",
    "make_checkerboard",
    "make_plane",
    "make_smoothed_noise",
    "morans_i",
    "morans_significance",
    "normal_cdf",
    "pearson_r",
    "permutation_test",
    "quartiles",
    "read_ascii_grid",
    "read_gcp_csv",
    "scatter_points",
    "slope_aspect",
    "slope_aspect_at",
    "summarize",
    "train_parallelepiped",
    "tukey_filter",
    "two_tailed_p",
    "validity_filter",
    "write_ascii_grid",
]
