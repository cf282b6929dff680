"""Descriptive and inferential statistics for height-difference sets.

Conventions deliberately match the common spreadsheet/stats-package
behaviour this kind of assessment is usually run with: the standard
deviation uses the n-1 denominator, the RMSE uses n, and quantiles (see
:mod:`demqa.screen`) interpolate linearly. The two denominators give the
exact identity ``rmse**2 == mean**2 + sd**2 * (n-1)/n`` which doubles as
a cross-check against published summary tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, ZeroVarianceError

# More bins than a plot or a CSV table can use; reached only by a bin width
# far below the spread of the values.
MAX_HISTOGRAM_BINS = 100_000


@dataclass(frozen=True)
class SummaryStats:
    """Count, central tendency and dispersion of one set of differences."""

    n: int
    mean: float
    sd: float
    rmse: float
    min: float
    max: float
    range: float


@dataclass(frozen=True)
class AnovaTable:
    """One-way ANOVA decomposition with the F ratio and its p-value.

    ``infinite_f`` flags the degenerate zero-within-variance case, where
    ``f`` is +inf and ``p`` is 0 by convention.
    """

    ss_between: float
    df_between: int
    ss_within: float
    df_within: int
    ms_between: float
    ms_within: float
    f: float
    p: float
    infinite_f: bool = False


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson product-moment correlation and the sample size behind it."""

    r: float
    n: int


def summarize(deltas: Sequence[float]) -> SummaryStats:
    """Summary statistics of a set of height differences.

    Mean and SD (n-1 denominator) describe the spread about the bias;
    RMSE (n denominator) is the root mean square of the raw differences.

    Raises InsufficientDataError for fewer than two values.
    """
    d = np.asarray(deltas, dtype=np.float64)
    n = d.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    mean = float(d.mean())
    sd = float(math.sqrt(np.sum((d - mean) ** 2) / (n - 1)))
    rmse = float(math.sqrt(np.sum(d**2) / n))
    lo = float(d.min())
    hi = float(d.max())
    return SummaryStats(n=n, mean=mean, sd=sd, rmse=rmse, min=lo, max=hi, range=hi - lo)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson product-moment correlation between two equal-length samples.

    Raises ZeroVarianceError if either variable is constant and
    InsufficientDataError for n < 3.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    n = xa.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 pairs, got {n}")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant variable")
    r = float(np.sum(dx * dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return CorrelationResult(r=r, n=n)


def anova_decompose(
    groups: Sequence[Sequence[float]],
) -> tuple[float, int, float, int]:
    """Between/within sum-of-squares decomposition for one-way ANOVA.

    Returns (ss_between, df_between, ss_within, df_within).
    """
    if len(groups) < 2:
        raise InsufficientDataError("need at least 2 groups")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if any(a.size < 1 for a in arrays):
        raise InsufficientDataError("every group needs at least 1 value")
    k = len(arrays)
    n_total = sum(a.size for a in arrays)
    if n_total <= k:
        raise InsufficientDataError(
            f"total n ({n_total}) must exceed number of groups ({k})"
        )
    grand = sum(float(a.sum()) for a in arrays) / n_total
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(np.sum((a - a.mean()) ** 2)) for a in arrays)
    return float(ss_between), k - 1, float(ss_within), n_total - k


def f_test(
    ss_between: float, df_between: int, ss_within: float, df_within: int
) -> AnovaTable:
    """F ratio and p-value from an ANOVA decomposition.

    Zero within-group variance is reported as a distinct infinite-F flag
    with p = 0 rather than a NaN.
    """
    if df_between < 1 or df_within < 1:
        raise InsufficientDataError("degrees of freedom must be positive")
    if ss_between < 0 or ss_within < 0:
        raise ValueError("sums of squares must be nonnegative")
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        return AnovaTable(
            ss_between=ss_between,
            df_between=df_between,
            ss_within=ss_within,
            df_within=df_within,
            ms_between=ms_between,
            ms_within=0.0,
            f=math.inf,
            p=0.0,
            infinite_f=True,
        )
    f = ms_between / ms_within
    p = 1.0 - f_cdf(f, df_between, df_within)
    return AnovaTable(
        ss_between=ss_between,
        df_between=df_between,
        ss_within=ss_within,
        df_within=df_within,
        ms_between=ms_between,
        ms_within=ms_within,
        f=f,
        p=min(max(p, 0.0), 1.0),
    )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 500
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by continued fraction, accurate to ~1e-15."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the symmetric form whose continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("F statistic must be nonnegative")
    if x == 0.0:
        return 0.0
    z = d1 * x / (d1 * x + d2)
    return regularized_incomplete_beta(d1 / 2.0, d2 / 2.0, z)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def two_tailed_p(z: float) -> float:
    """Two-tailed p-value of a standard normal score."""
    return 2.0 * (1.0 - normal_cdf(abs(z)))


def histogram(
    values: Sequence[float], bin_width: float = 1.0, origin: float = 0.0
) -> list[tuple[float, int]]:
    """Counts in half-open bins [lower, lower + width).

    Bins are anchored at ``origin`` and returned contiguously from the
    lowest to the highest occupied bin (zero-count bins in between kept,
    so the output plots directly). Empty input yields an empty list. More
    than MAX_HISTOGRAM_BINS bins raise ConfigError with the count needed.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return []
    lows = np.floor((v - origin) / bin_width)
    n_bins = lows.max() - lows.min() + 1.0
    if not n_bins <= MAX_HISTOGRAM_BINS:
        raise ConfigError(
            f"bin width {bin_width!r} would need {n_bins:.12g} bins; "
            f"the limit is {MAX_HISTOGRAM_BINS}"
        )
    idx = lows.astype(np.int64)
    counts: dict[int, int] = {}
    for k in idx:
        counts[int(k)] = counts.get(int(k), 0) + 1
    k_lo, k_hi = min(counts), max(counts)
    return [(origin + k * bin_width, counts.get(k, 0)) for k in range(k_lo, k_hi + 1)]
