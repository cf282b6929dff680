import math

import numpy as np
import pytest
from scipy.integrate import quad

from demqa.errors import ConfigError, InsufficientDataError, ZeroVarianceError
from demqa.stats import (
    MAX_HISTOGRAM_BINS,
    anova_decompose,
    f_cdf,
    f_test,
    histogram,
    normal_cdf,
    pearson_r,
    summarize,
    two_tailed_p,
)

# Published summary rows (count, mean, sd, rmse) for the identity check:
# total and per-stratum figures from the two study sites.
PUBLISHED_ROWS = [
    ("site-a bare", 28, 0.12, 2.27, 2.23),
    ("site-a built", 275, 0.91, 2.22, 2.40),
    ("site-a vegetation", 194, 0.08, 2.24, 2.24),
    ("site-a total", 497, 0.54, 2.26, 2.33),
    ("site-b bare", 40, 1.46, 2.03, 2.48),
    ("site-b built", 42, 2.84, 3.78, 4.69),
    ("site-b vegetation", 103, 1.65, 3.24, 3.62),
    ("site-b total", 185, 1.88, 3.19, 3.69),
]


def test_summarize_hand_case():
    s = summarize([1, -1, 3])
    assert s.mean == pytest.approx(1.0, abs=1e-15)
    assert s.sd == pytest.approx(2.0, abs=1e-15)
    assert s.rmse == pytest.approx(math.sqrt(11 / 3), abs=1e-15)
    assert s.min == -1 and s.max == 3 and s.range == 4


def test_summarize_zeros():
    s = summarize([0.0, 0.0, 0.0])
    assert s.mean == 0 and s.sd == 0 and s.rmse == 0 and s.range == 0


def test_summarize_needs_two():
    with pytest.raises(InsufficientDataError):
        summarize([1.0])


def test_summarize_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(300):
        d = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), int(rng.integers(2, 400)))
        s = summarize(d)
        lhs = s.rmse**2
        rhs = s.mean**2 + s.sd**2 * (s.n - 1) / s.n
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


@pytest.mark.parametrize("name,n,mean,sd,rmse", PUBLISHED_ROWS)
def test_identity_reproduces_published_rmse(name, n, mean, sd, rmse):
    implied = math.sqrt(mean**2 + sd**2 * (n - 1) / n)
    assert implied == pytest.approx(rmse, abs=0.015), name


def test_pearson_exact_lines():
    assert pearson_r([1, 2, 3, 4], [3, 5, 7, 9]).r == pytest.approx(1.0, abs=1e-15)
    assert pearson_r([1, 2, 3, 4], [-1, -2, -3, -4]).r == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_case():
    # deviations x: (-1,0,1), y: (-1,1,0); sum xy = 1, sum x2 = sum y2 = 2
    res = pearson_r([1, 2, 3], [1, 3, 2])
    assert res.r == pytest.approx(0.5, abs=1e-15)
    assert res.n == 3


def test_pearson_errors():
    with pytest.raises(ZeroVarianceError):
        pearson_r([1, 1, 1], [1, 2, 3])
    with pytest.raises(ZeroVarianceError):
        pearson_r([1, 2, 3], [4, 4, 4])
    with pytest.raises(ValueError):
        pearson_r([1, 2, 3], [1, 2])
    with pytest.raises(InsufficientDataError):
        pearson_r([1, 2], [3, 4])


def test_pearson_scale_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 50)
    y = rng.normal(0, 1, 50)
    base = pearson_r(x, y).r
    assert pearson_r(3.5 * x + 2, y).r == pytest.approx(base, abs=1e-12)
    assert pearson_r(-2 * x + 1, y).r == pytest.approx(-base, abs=1e-12)
    assert pearson_r(y, x).r == pytest.approx(base, abs=1e-12)


def test_anova_identical_groups():
    ssb, dfb, ssw, dfw = anova_decompose([[1, 2, 3], [1, 2, 3]])
    assert ssb == pytest.approx(0.0, abs=1e-12)


def test_anova_hand_case():
    ssb, dfb, ssw, dfw = anova_decompose([[0, 0], [2, 2]])
    assert ssb == pytest.approx(4.0, abs=1e-12)
    assert ssw == 0.0
    assert (dfb, dfw) == (1, 2)


def test_anova_total_ss_additivity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        groups = [
            rng.normal(rng.uniform(-3, 3), 2, int(rng.integers(1, 30)))
            for _ in range(int(rng.integers(2, 6)))
        ]
        if sum(len(g) for g in groups) <= len(groups):
            continue
        ssb, _, ssw, _ = anova_decompose(groups)
        allv = np.concatenate(groups)
        sst = float(np.sum((allv - allv.mean()) ** 2))
        assert abs(ssb + ssw - sst) <= 1e-9 * max(1.0, sst)


def test_anova_degenerate():
    with pytest.raises(InsufficientDataError):
        anova_decompose([[1, 2, 3]])
    with pytest.raises(InsufficientDataError):
        anova_decompose([[1], [2]])


def test_f_test_published_first_site():
    t = f_test(88.63, 3, 2450.496, 493)
    assert t.f == pytest.approx(5.944, abs=0.001)
    assert 0.0005 <= t.p <= 0.0015
    assert t.ms_between == pytest.approx(88.63 / 3, abs=1e-12)
    assert t.ms_within == pytest.approx(2450.496 / 493, abs=1e-12)


def test_f_test_published_second_site():
    t = f_test(55.544, 4, 1830.027, 182)
    assert t.f == pytest.approx(1.381, abs=0.001)
    assert t.p == pytest.approx(0.242, abs=0.002)


def test_f_test_unit_f_equal_df():
    t = f_test(10.0, 5, 10.0, 5)
    assert t.f == 1.0
    assert t.p == pytest.approx(0.5, abs=1e-12)


def test_f_test_infinite_f():
    t = f_test(4.0, 2, 0.0, 10)
    assert t.infinite_f
    assert math.isinf(t.f)
    assert t.p == 0.0


def _f_logpdf(x, d1, d2):
    return (
        0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1) * math.log(x)
        - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2)
        - (math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2) - math.lgamma(0.5 * (d1 + d2)))
    )


def f_cdf_oracle(x, d1, d2):
    """Adaptive quadrature of the F density, independent of the CDF path."""
    val, err = quad(
        lambda t: math.exp(_f_logpdf(t, d1, d2)), 0.0, x,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    assert err < 1e-9
    return val


def test_f_cdf_trivials():
    assert f_cdf(0.0, 3, 10) == 0.0
    assert f_cdf(1.0, 7, 7) == pytest.approx(0.5, abs=1e-12)
    assert f_cdf(1.0, 493, 493) == pytest.approx(0.5, abs=1e-12)


def test_f_cdf_against_quadrature():
    for d1 in (1, 3, 10, 100, 493):
        for d2 in (1, 3, 10, 100, 493):
            for x in (0.1, 0.5, 1.0, 2.0, 5.944, 10.0):
                assert f_cdf(x, d1, d2) == pytest.approx(
                    f_cdf_oracle(x, d1, d2), abs=1e-6
                ), (x, d1, d2)


def test_f_cdf_frozen_value():
    # 1 - this is the p attached to the published first-site F ratio.
    assert f_cdf(5.944, 3, 493) == pytest.approx(0.9994, abs=2e-4)


def test_f_cdf_monotone_and_bounded():
    xs = np.linspace(0.0, 20.0, 200)
    for d1, d2 in ((1, 1), (3, 493), (100, 10)):
        vals = [f_cdf(float(x), d1, d2) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_f_cdf_bad_args():
    with pytest.raises(ValueError):
        f_cdf(1.0, 0, 5)
    with pytest.raises(ValueError):
        f_cdf(-1.0, 3, 5)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-10)
    assert normal_cdf(-6) == pytest.approx(9.865876450377018e-10, rel=1e-6)


def test_two_tailed_published_pair():
    assert two_tailed_p(1.454) == pytest.approx(0.146, abs=0.001)
    assert two_tailed_p(4.703) < 1e-4
    assert two_tailed_p(-1.454) == two_tailed_p(1.454)


def test_histogram_basic():
    assert histogram([0.1, 0.9, 1.1], 1.0, 0.0) == [(0.0, 2), (1.0, 1)]


def test_histogram_empty():
    assert histogram([], 1.0, 0.0) == []


def test_histogram_edge_goes_up():
    assert histogram([1.0], 1.0, 0.0) == [(1.0, 1)]
    assert histogram([-1.0, 0.0], 1.0, 0.0) == [(-1.0, 1), (0.0, 1)]


def test_histogram_gap_bins_kept_and_counts_sum():
    rng = np.random.default_rng(8)
    v = rng.normal(0, 3, 500)
    bins = histogram(v, 0.5, 0.25)
    assert sum(c for _, c in bins) == 500
    lowers = [b for b, _ in bins]
    steps = np.diff(lowers)
    assert np.allclose(steps, 0.5)


def test_histogram_bad_width():
    with pytest.raises(ValueError):
        histogram([1.0], 0.0, 0.0)


def test_histogram_bin_limit():
    # 100,000 bins are built; one more is a ConfigError naming the count,
    # raised before any row is built
    bins = histogram([0.0, 99999.5], 1.0, 0.0)
    assert len(bins) == MAX_HISTOGRAM_BINS == 100_000
    with pytest.raises(ConfigError, match=r"bin width 1\.0 would need 100001 bins; "
                                          r"the limit is 100000"):
        histogram([0.0, 100000.0], 1.0, 0.0)
    with pytest.raises(ConfigError, match="would need 131073 bins"):
        histogram([-1.0, 0.3, 1.0], 2.0**-16, 0.0)
    with pytest.raises(ConfigError, match=r"would need 1e\+300 bins"):
        histogram([0.0, 1.0], 1e-300, 0.0)
