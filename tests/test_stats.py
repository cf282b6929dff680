import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from demqa.errors import (
    ConfigError,
    DegenerateDataError,
    InsufficientDataError,
    ZeroVarianceError,
)
from demqa.stats import (
    MAX_HISTOGRAM_BINS,
    anova_decompose,
    f_test,
    histogram,
    pearson_r,
    regularized_incomplete_beta,
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


def test_anova_sums_are_correctly_rounded():
    # within-group terms 1, 1e16 and 1: left to right 1e16 + 1 rounds to
    # 1e16 twice, the exact 1e16 + 2 is a float
    half = [0.5, -0.5, 0.5, -0.5]
    ssb, _, ssw, _ = anova_decompose([half, [5e7, -5e7, 5e7, -5e7], half])
    assert (1.0 + 1e16) + 1.0 == 1e16
    assert ssw == 1e16 + 2
    assert ssb == 0.0


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


def test_f_test_without_any_variance_raises():
    # F = 0/0 when every value is equal: no evidence that groups differ
    with pytest.raises(ZeroVarianceError, match="no value varies"):
        f_test(0.0, 1, 0.0, 4)
    assert f_test(0.0, 1, 1.0, 4).f == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: summarize([1e200, -1e200]),
     "standard deviation: the sum of squared deviations overflows"),
    (lambda: summarize([1e200, 1e200]), "RMSE: the sum of squares overflows"),
    (lambda: pearson_r([1e200, -1e200, 0.0], [1.0, 2.0, 4.0]),
     "correlation: the product of the sums of squares overflows or underflows"),
    (lambda: pearson_r([1e-160, -1e-160, 0.0], [1e-160, 0.0, -1e-160]),
     "correlation: the product of the sums of squares overflows or underflows"),
    # a Python float's ** raises OverflowError where numpy gives inf
    (lambda: anova_decompose([[1e200, 1e200], [-1e200, -1e200]]),
     "ANOVA: the between-group sum of squares overflows"),
    (lambda: anova_decompose([[1e200, -1e200], [0.0, 0.0]]),
     "ANOVA: the within-group sum of squares overflows"),
    # each group's term is finite (1.5e308), their sum is not
    (lambda: anova_decompose([[8.7e153, -8.7e153], [8.7e153, -8.7e153]]),
     "ANOVA: the within-group sum of squares overflows"),
    # group totals of inf and -inf: no grand mean
    (lambda: anova_decompose([[1e308, 1e308], [-1e308, -1e308]]),
     "ANOVA: the between-group sum of squares overflows"),
    (lambda: f_test(1e300, 1, 1e-300, 10), "ANOVA: the F ratio overflows"),
], ids=["sd", "rmse", "pearson-over", "pearson-under", "anova-between", "anova-within",
        "anova-within-sum", "anova-grand", "f"])
def test_sums_beyond_float64_raise_degenerate_data(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match=f"^{message} float64$"):
            call()


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


def f_upper(x, d1, d2):
    """The upper tail 1 - F_cdf(x; d1, d2), as f_test's p for an F ratio of
    x (to within an ulp of x)."""
    return f_test(x * d1, d1, float(d2), d2).p


# The f_cdf tests check the upper tail that f_test reports against the
# complement of the CDF oracle, with the bounds they had on the CDF.
def test_f_cdf_trivials():
    assert f_upper(0.0, 3, 10) == 1.0
    assert f_upper(1.0, 7, 7) == pytest.approx(0.5, abs=1e-12)
    assert f_upper(1.0, 493, 493) == pytest.approx(0.5, abs=1e-12)


def test_f_cdf_against_quadrature():
    for d1 in (1, 3, 10, 100, 493):
        for d2 in (1, 3, 10, 100, 493):
            for x in (0.1, 0.5, 1.0, 2.0, 5.944, 10.0):
                assert f_upper(x, d1, d2) == pytest.approx(
                    1 - f_cdf_oracle(x, d1, d2), abs=1e-6
                ), (x, d1, d2)


def test_f_cdf_frozen_value():
    # the p attached to the published first-site F ratio
    assert f_upper(5.944, 3, 493) == pytest.approx(1 - 0.9994, abs=2e-4)


def test_f_cdf_monotone_and_bounded():
    xs = np.linspace(0.0, 20.0, 200)
    for d1, d2 in ((1, 1), (3, 493), (100, 10)):
        vals = [f_upper(float(x), d1, d2) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))


def test_f_cdf_bad_args():
    with pytest.raises(InsufficientDataError):
        f_test(1.0, 0, 5.0, 5)
    with pytest.raises(ValueError):
        f_test(-1.0, 3, 5.0, 5)


def test_normal_cdf_basics():
    # the two-tailed p is 2 (1 - cdf(|z|))
    assert two_tailed_p(0.0) == pytest.approx(1.0, abs=1e-15)
    assert two_tailed_p(1.959963984540054) == pytest.approx(0.05, abs=2e-10)
    assert two_tailed_p(-6) == pytest.approx(2 * 9.865876450377018e-10, rel=1e-6)


def test_tail_p_values_match_scipy_down_to_1e_300():
    scipy_stats = pytest.importorskip("scipy.stats")
    # the deep tails 1 - cdf lost: 0.0 at z = 9 and at F = 40 on (3, 700)
    assert two_tailed_p(9.0) == pytest.approx(2.257176811907681e-19, rel=1e-10)
    assert f_upper(40.0, 3, 700) == pytest.approx(
        scipy_stats.f.sf(40.0, 3, 700), rel=1e-10)
    for z in np.linspace(0.0, 37.5, 301):
        want = 2 * scipy_stats.norm.sf(z)
        if want >= 1e-300:
            assert two_tailed_p(float(z)) == pytest.approx(want, rel=1e-10), z
    for d1 in (1, 2, 3, 10, 100, 493):
        for d2 in (1, 3, 10, 100, 700, 5000):
            for x in np.geomspace(1e-3, 1e6, 46):
                table = f_test(float(x) * d1, d1, float(d2), d2)
                want = scipy_stats.f.sf(table.f, d1, d2)
                if want >= 1e-300:
                    assert table.p == pytest.approx(want, rel=1e-10), (x, d1, d2)


# float.hex of I_x(a, b) as the continued fraction computes it; the scipy
# checks at 1e-10 relative would miss a last-bit change, which changes the
# bytes of a report's anova.p. Both sides of the symmetry switch
# x < (a + 1) / (a + b + 2), shapes from 0.01 to 1e4, x near 0 and near 1.
INCOMPLETE_BETA_BITS = [
    (0.5, 0.5, 0.3, "0x1.79ddc9edb550ap-2"),
    (0.5, 0.5, 0.7, "0x1.43111b092557dp-1"),
    (0.01, 0.01, 0.25, "0x1.fa7501fdcbe74p-2"),
    (0.01, 0.01, 0.75, "0x1.02c57f011a0c6p-1"),
    (0.01, 0.01, 1e-300, "0x1.062fbeb9120bap-11"),
    (0.01, 10000.0, 1e-300, "0x1.2113467b21771p-10"),
    (0.01, 10000.0, 1e-06, "0x1.ebb298af454a6p-1"),
    (10000.0, 0.01, 0.9999999999999999, "0x1.e3ef12b0172ecp-3"),
    (10000.0, 0.01, 0.999999, "0x1.44d6750b43b60p-5"),
    (10000.0, 10000.0, 0.49, "0x1.3252b2c8832ecp-9"),
    (10000.0, 10000.0, 0.5, "0x1.fffffffffe1b6p-2"),
    (10000.0, 10000.0, 0.51, "0x1.fecdad4d377cdp-1"),
    (2.0, 3.0, 1e-10, "0x1.1b578c9638d81p-64"),
    (2.0, 3.0, 0.9, "0x1.fe1b089a02752p-1"),
    (3.0, 2.0, 1e-100, "0x1.56e1fc2f8efecp-995"),
    (3.0, 2.0, 0.6, "0x1.e69ad42c3c9f2p-2"),
    (100.0, 0.01, 0.999, "0x1.29c75290e3ac0p-6"),
    (0.01, 100.0, 0.001, "0x1.f6b1c56b78e4fp-1"),
    (5.0, 5.0, 0.5, "0x1.0000000000006p-1"),
    (7.5, 2.5, 0.75, "0x1.cdabec3fecba4p-2"),
    (10000.0, 100.0, 0.99, "0x1.c9d56178674c0p-2"),
    (100.0, 10000.0, 0.0099, "0x1.06809e26c8d2fp-1"),
    # the paper-sized ANOVA, 3 and 700 degrees of freedom: p for F = 0.05,
    # 0.5, 1, 1.43, 2.6, 5, 10, 40 and 400 is I_{700/(700 + 3F)}(350, 1.5)
    (350.0, 1.5, 0.9997857601942441, "0x1.f86dd7092ea4fp-1"),
    (350.0, 1.5, 0.9978617248752673, "0x1.5d62bbe17aac1p-1"),
    (350.0, 1.5, 0.9957325746799431, "0x1.91b30ee6dab60p-2"),
    (350.0, 1.5, 0.9939087591759077, "0x1.dcba632cb560cp-3"),
    (350.0, 1.5, 0.9889799378355468, "0x1.a3513b3a745edp-5"),
    (350.0, 1.5, 0.9790209790209791, "0x1.fe855cb642deap-10"),
    (350.0, 1.5, 0.958904109589041, "0x1.f0581e8c17ad4p-20"),
    (350.0, 1.5, 0.8536585365853658, "0x1.18af24f6f3740p-77"),
    (350.0, 1.5, 0.3684210526315789, "0x1.d41ca4f8f07eep-501"),
]


@pytest.mark.parametrize("a, b, x, bits", INCOMPLETE_BETA_BITS)
def test_incomplete_beta_bits(a, b, x, bits):
    assert regularized_incomplete_beta(a, b, x).hex() == bits


@pytest.mark.parametrize(
    "a, b, x", [(math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 2.0, math.nan)]
)
def test_incomplete_beta_of_nan_does_not_converge(a, b, x):
    # the tiny-value guard keeps a NaN a NaN, so no step ever converges
    with pytest.raises(ArithmeticError, match="failed to converge"):
        regularized_incomplete_beta(a, b, x)


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
    # a subnormal width overflows the bin index: rejected without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="would need inf bins"):
            histogram([0.0, 1.0], 5e-324, 0.0)
        # every index overflows to +inf: the count is the range over the
        # width (it read "nan bins"), or inf when one bin holds every value
        with pytest.raises(ConfigError, match="would need inf bins"):
            histogram([1.0, 2.0], 5e-324, 0.0)
        with pytest.raises(ConfigError, match="would need inf bins"):
            histogram([1.0, 1.0], 5e-324, 0.0)
        with pytest.raises(ConfigError, match=r"would need 4\.49423283716e\+307 bins"):
            histogram([1.0, 1.0 + 2.0**-52], 5e-324, 0.0)
