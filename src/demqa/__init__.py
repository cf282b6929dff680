"""DEM vertical accuracy assessment against ground control points.

Library + CLI covering the full pipeline: coincident-height extraction,
validity and Tukey outlier screening, per-land-cover SD/RMSE summaries,
Global Moran's I with analytic and permutation significance, slope and
aspect derivatives, correlation of errors with terrain, and one-way
ANOVA across land-cover strata.
"""

import importlib

__version__ = "0.1.0"

# The public names, each under the module that defines it. A name is
# imported on first use (PEP 562), so ``import demqa`` compiles nothing else
# and each command compiles only the modules it runs.
_HOMES = {
    "errors": ("ConfigError", "DegenerateDataError", "DegenerateWeightsError", "DemqaError",
               "InsufficientDataError", "NonFiniteGridError", "ParseError",
               "TrainingPointError", "ZeroVarianceError"),
    "raster": ("Grid", "cell_of", "cells_of", "read_ascii_grid", "write_ascii_grid"),
    "sample": ("SampleTable", "attach_class", "attach_derivatives", "extract_coincident",
               "read_gcp_csv"),
    "screen": ("TukeyFences", "quartiles", "tukey_filter", "validity_filter"),
    "spatial": ("MoranResult", "PermutationResult", "WeightsMatrix", "build_weights",
                "morans_i", "morans_significance", "permutation_test"),
    "stats": ("AnovaTable", "CorrelationResult", "SummaryStats", "anova_decompose", "f_test",
              "histogram", "pearson_r", "summarize", "two_tailed_p"),
    "terrain": ("CellDerivatives", "slope_aspect", "slope_aspect_at"),
    "landcover": ("ClassBox", "classify", "train_parallelepiped"),
    "synth": ("ControlPoint", "make_checkerboard", "make_plane", "make_smoothed_noise",
              "scatter_points"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
