"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
ParseError -> 3, DegenerateDataError (and subclasses) -> 4.
"""


class DemqaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DemqaError):
    """Invalid or inconsistent configuration (bad option values, mismatched grids)."""


class ParseError(DemqaError):
    """Malformed input file. Message names the offending line (and column where known)."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)


class TrainingPointError(ParseError, ValueError):
    """A training point off the image or on nodata, or a class code that is
    the image's nodata value (a ValueError too, as before)."""


class DegenerateDataError(DemqaError):
    """Data cannot support the requested statistic."""


class InsufficientDataError(DegenerateDataError):
    """Too few observations for the requested statistic."""


class ZeroVarianceError(DegenerateDataError):
    """A variable with no variation where variation is required."""


class DegenerateWeightsError(DegenerateDataError):
    """Spatial weights are unusable (all zero, or duplicate coordinates)."""


class NonFiniteGridError(DegenerateDataError):
    """A grid to be written holds NaN or infinity, which ASCII grids cannot carry."""
