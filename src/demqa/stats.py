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
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateDataError, InsufficientDataError, ZeroVarianceError

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

    Raises InsufficientDataError for fewer than two values, and
    DegenerateDataError when a sum of squares overflows.
    """
    d = np.asarray(deltas, dtype=np.float64)
    n = d.size
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # _no_overflow names an overflow
        mean = float(d.mean())
        ss = float(np.sum((d - mean) ** 2))
        sq = float(np.sum(d**2))
    sd = math.sqrt(_no_overflow(ss, "standard deviation: the sum of squared deviations") / (n - 1))
    rmse = math.sqrt(_no_overflow(sq, "RMSE: the sum of squares") / n)
    lo = float(d.min())
    hi = float(d.max())
    return SummaryStats(n=n, mean=mean, sd=sd, rmse=rmse, min=lo, max=hi, range=hi - lo)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson product-moment correlation between two equal-length samples.

    Raises ZeroVarianceError if either variable is constant,
    InsufficientDataError for n < 3 and DegenerateDataError when the
    product of the sums of squares is not a positive float64.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    n = xa.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 pairs, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        dx = xa - xa.mean()
        dy = ya - ya.mean()
        sxx = float(np.sum(dx * dx))
        syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant variable")
    if not 0.0 < sxx * syy < math.inf:
        raise DegenerateDataError(
            "correlation: the product of the sums of squares overflows or underflows float64"
        )
    r = float(np.sum(dx * dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return CorrelationResult(r=r, n=n)


def anova_decompose(
    groups: Sequence[Sequence[float]],
) -> tuple[float, int, float, int]:
    """Between/within sum-of-squares decomposition for one-way ANOVA.

    Returns (ss_between, df_between, ss_within, df_within); raises
    DegenerateDataError when a sum of squares overflows. The sums over the
    groups are correctly rounded, so they do not depend on the Python version.
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
    between = "ANOVA: the between-group sum of squares"
    with np.errstate(over="ignore", invalid="ignore"):  # _fsum names an overflow
        grand = _fsum((float(a.sum()) for a in arrays), between) / n_total
        ss_between = _fsum((a.size * (float(a.mean()) - grand) ** 2 for a in arrays), between)
        ss_within = _fsum((float(np.sum((a - a.mean()) ** 2)) for a in arrays),
                          "ANOVA: the within-group sum of squares")
    return ss_between, k - 1, ss_within, n_total - k


def _fsum(terms: Iterable[float], what: str) -> float:
    """``math.fsum(terms)``, or DegenerateDataError naming ``what`` on an overflow."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a float's **, fsum past float64, or inf + -inf
        total = math.inf
    return _no_overflow(total, what)


def f_test(
    ss_between: float, df_between: int, ss_within: float, df_within: int
) -> AnovaTable:
    """F ratio and p-value from an ANOVA decomposition.

    Zero within-group variance is reported as a distinct infinite-F flag
    with p = 0 rather than a NaN; with no variance at all F is 0/0, and
    ZeroVarianceError is raised. An F ratio that overflows raises
    DegenerateDataError.
    """
    if df_between < 1 or df_within < 1:
        raise InsufficientDataError("degrees of freedom must be positive")
    if ss_between < 0 or ss_within < 0:
        raise ValueError("sums of squares must be nonnegative")
    if ss_between == 0.0 and ss_within == 0.0:
        raise ZeroVarianceError("F undefined: no value varies, within or between groups")
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        f, p, infinite_f = math.inf, 0.0, True
    else:
        f, infinite_f = _no_overflow(ms_between / ms_within, "ANOVA: the F ratio"), False
        # the upper tail itself, I_{d2/(d2 + d1 F)}(d2/2, d1/2), not 1 - cdf,
        # which is 0 below about 1e-16
        p = regularized_incomplete_beta(df_within / 2.0, df_between / 2.0,
                                        df_within / (df_within + df_between * f))
    return AnovaTable(
        ss_between=ss_between,
        df_between=df_between,
        ss_within=ss_within,
        df_within=df_within,
        ms_between=ms_between,
        ms_within=ms_within,
        f=f,
        p=p,
        infinite_f=infinite_f,
    )


def _no_overflow(value: float, what: str) -> float:
    """``value``, or DegenerateDataError naming ``what`` if it is infinite or NaN."""
    if not math.isfinite(value):
        raise DegenerateDataError(f"{what} overflows float64")
    return value


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 500
    eps = 3e-16
    fpmin = 1e-300

    def guard(v: float) -> float:  # keeps a NaN, which then never converges
        return fpmin if abs(v) < fpmin else v

    c = 1.0
    h = d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the fraction's even coefficient, then its odd one
        for aa in (m * (b - m) * x / (((a - 1.0) + m2) * (a + m2)),
                   -(a + m) * ((a + b) + m) * x / ((a + m2) * ((a + 1.0) + m2))):
            d = 1.0 / guard(1.0 + aa * d)
            c = guard(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < eps:
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


def two_tailed_p(z: float) -> float:
    """Two-tailed p-value of a standard normal score, from erfc: 1 - erf
    would give 0 from |z| of about 8.5 on."""
    return math.erfc(abs(z) / math.sqrt(2.0))


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
    # a subnormal width overflows lows; the guard rejects the inf/nan count
    with np.errstate(over="ignore", invalid="ignore"):
        lows = np.floor((v - origin) / bin_width)
        n_bins = lows.max() - lows.min() + 1.0
        if math.isnan(n_bins):
            # every bin index overflowed to the same infinity: report the
            # range over the width if that is too many bins, else the index
            span = np.ptp(v) / bin_width
            n_bins = span if span > MAX_HISTOGRAM_BINS else np.inf
    if not n_bins <= MAX_HISTOGRAM_BINS:
        raise ConfigError(
            f"bin width {bin_width!r} would need {n_bins:.12g} bins; "
            f"the limit is {MAX_HISTOGRAM_BINS}"
        )
    lo = lows.min()
    counts = np.bincount((lows - lo).astype(np.int64)).tolist()
    return [(origin + k * bin_width, c) for k, c in enumerate(counts, start=int(lo))]
