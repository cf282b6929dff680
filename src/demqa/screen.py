"""Validity screening and Tukey fence outlier removal over a SampleTable.

Both screens compute one boolean mask over the table's columns and split
the table by it; removed rows carry their screening status
(``removed_validity`` or ``removed_outlier``).

Quartiles use linear interpolation between order statistics (the
inclusive spreadsheet convention): with sorted values v[0..n-1] the
p-quantile sits at position h = (n-1)*p and equals
v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]).
Other quantile conventions shift the fences, so the convention is echoed
in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError
from .sample import SampleRecord, SampleTable

FENCE_MULTIPLIER = 1.5

FILTER_FIELDS = ("delta_h", "h_dem")


@dataclass(frozen=True)
class TukeyFences:
    """Quartiles and the derived outlier bounds q1 - 1.5*iqr, q3 + 1.5*iqr."""

    q1: float
    q3: float
    iqr: float
    lower: float
    upper: float


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Lower and upper quartiles by linear interpolation.

    Raises InsufficientDataError for fewer than two values.
    """
    n = len(values)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values for quartiles, got {n}")
    v = np.sort(np.asarray(values, dtype=np.float64), kind="stable").tolist()
    return _quantile_sorted(v, 0.25), _quantile_sorted(v, 0.75)


def _quantile_sorted(v: list[float], p: float) -> float:
    h = (len(v) - 1) * p
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return v[lo]
    return v[lo] + frac * (v[lo + 1] - v[lo])


def fences_of(values: Sequence[float]) -> TukeyFences:
    """Tukey fences of a value set."""
    q1, q3 = quartiles(values)
    iqr = q3 - q1
    return TukeyFences(
        q1=q1,
        q3=q3,
        iqr=iqr,
        lower=q1 - FENCE_MULTIPLIER * iqr,
        upper=q3 + FENCE_MULTIPLIER * iqr,
    )


def tukey_filter(
    samples: SampleTable | Sequence[SampleRecord], field: str = "delta_h"
) -> tuple[SampleTable, SampleTable, TukeyFences]:
    """Split rows into (kept, removed) by Tukey fences on ``field``.

    Only values strictly outside [lower, upper] are outliers; a value
    exactly on a fence is kept. Fences come from the rows where the field
    is present; rows missing the field are kept (they are not outside the
    fences). Single pass: fences are computed once, so re-filtering the
    kept set with the same fences removes nothing.
    """
    if field not in FILTER_FIELDS:
        raise ValueError(f"filter field must be one of {FILTER_FIELDS}, got '{field}'")
    table = SampleTable.of(samples)
    v = getattr(table, field)
    present = v[~np.isnan(v)]
    if present.size < 2:
        raise InsufficientDataError(
            f"need at least 2 records with '{field}' present, got {present.size}"
        )
    fences = fences_of(present)
    kept, removed = table.split((v < fences.lower) | (v > fences.upper), "removed_outlier")
    return kept, removed, fences


def validity_filter(
    samples: SampleTable | Sequence[SampleRecord],
    exclude_classes: Iterable[int] = (),
    min_h: float | None = None,
    require_class: bool = True,
) -> tuple[SampleTable, SampleTable]:
    """Split rows into (kept, removed) by whether they can enter the assessment.

    Removed: rows with no extracted height, rows on excluded land-cover
    classes (water bodies, etc.), unclassified rows (unless
    ``require_class`` is False for runs without a class map), and rows
    with h_dem below ``min_h`` when given.
    """
    table = SampleTable.of(samples)
    codes = table.class_code
    bad = np.isnan(table.h_dem) | np.isin(codes, list(set(exclude_classes)))
    if require_class:
        bad |= np.isnan(codes)
    if min_h is not None:
        bad |= table.h_dem < min_h  # NaN compares False
    return table.split(bad, "removed_validity")
