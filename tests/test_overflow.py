"""Height errors whose squares or products leave float64's range.

Such a sum must not reach a report as inf or NaN: the total statistics and
the ``moran`` command exit 4 naming the statistic, and the per-stratum
inference of ``assess`` is recorded as skipped.
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from demqa.cli import main
from demqa.errors import DegenerateWeightsError
from demqa.raster import Grid, write_ascii_grid
from demqa.spatial import WeightsMatrix
from demqa.synth import make_smoothed_noise

N_POINTS = 8


def run(argv):
    """``main(argv)`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main([str(a) for a in argv])


def write_heights(path, heights, points):
    with open(path, "w") as f:
        f.write("id,x,y,h\n")
        for k, ((x, y), h) in enumerate(zip(points, heights)):
            f.write(f"g{k},{x!r},{y!r},{h!r}\n")


def gcp_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def assert_exit_4(code, capsys, command, message, out=None):
    assert code == 4
    assert capsys.readouterr().err == f"degenerate statistics [{command}]: {message}\n"
    assert out is None or not (out / "report.json").exists()


def test_assess_height_errors_whose_squares_overflow_exit_4(tmp_path, capsys):
    assert run(["synth", "--kind", "plane", "--nrows", 30, "--ncols", 30, "--a", 0.5,
                "--cellsize", 20, "--n-points", 40, "--seed", 3,
                "--out", tmp_path / "dem.asc", "--gcps-out", tmp_path / "gcps.csv"]) == 0
    rows = gcp_rows(tmp_path / "gcps.csv")
    heights = [float(h) + (-1) ** k * 1e200 * (1 + k / 100) for k, (*_, h) in enumerate(rows)]
    write_heights(tmp_path / "huge.csv", heights, [(float(x), float(y)) for _, x, y, _ in rows])
    capsys.readouterr()
    out = tmp_path / "out"
    code = run(["assess", "--dem", tmp_path / "dem.asc", "--gcps", tmp_path / "huge.csv",
                "--n-perm", 99, "--hist-width", 1e199, "--out", out])
    assert_exit_4(code, capsys, "assess",
                  "standard deviation: the sum of squared deviations overflows float64", out)


@pytest.mark.parametrize("values, message", [
    ((1e308, -1e308, 1e308, -1e308, 1), "Moran's I: the sum of squared deviations overflows"),
    ((1e-100, -2e-100, 3e-100, -1e-100, 1e-100), "Moran's I: the squared variance underflows"),
], ids=["overflow", "underflow"])
def test_moran_values_whose_squares_leave_the_range_exit_4(tmp_path, capsys, values, message):
    rows = "".join(f"{k},{k % 2},{v!r}\n" for k, v in enumerate(values))
    (tmp_path / "s.csv").write_text("x,y,delta_h\n" + rows)
    out = tmp_path / "moran.json"
    code = run(["moran", "--samples", tmp_path / "s.csv", "--out", out])
    assert_exit_4(code, capsys, "moran", f"{message} float64")
    assert not out.exists()


@pytest.fixture
def scene(tmp_path):
    """A 6 x 6 DEM with relief, a two-class map and N_POINTS cell centres."""
    dem = make_smoothed_noise(20.0, 0, 6, 6, seed=4, cellsize=10.0)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    codes = 1.0 + (np.indices((6, 6)).sum(axis=0) % 2)
    write_ascii_grid(Grid(ncols=6, nrows=6, xll=0, yll=0, cellsize=10.0, values=codes),
                     tmp_path / "classes.asc")
    cells = [(0, 0), (1, 3), (2, 5), (3, 1), (4, 4), (5, 2), (2, 2), (4, 0)]
    return tmp_path, [dem.cell_center(r, c) for r, c in cells]


def test_assess_skips_inference_whose_sums_overflow(scene, capsys):
    # sums of squares near 1e307: the totals are finite, fourth powers and
    # the correlation's product of sums are not
    tmp_path, points = scene
    write_heights(tmp_path / "gcps.csv", [(-1) ** k * 1e153 * (1 + k / 10) for k in range(8)],
                  points)
    out = tmp_path / "out"
    assert run(["assess", "--dem", tmp_path / "dem.asc", "--gcps", tmp_path / "gcps.csv",
                "--classmap", tmp_path / "classes.asc", "--hist-width", 1e300,
                "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(math.isfinite(v) for v in report["stats"]["total"].values())
    assert report["moran"] == {"skipped": "Moran's I: the sum of fourth powers overflows float64"}
    assert report["correlations"]["dh_vs_slope"] == {
        "skipped": "correlation: the product of the sums of squares overflows or underflows "
                   "float64"}
    assert math.isfinite(report["anova"]["f"])


def non_finite_fields(report, path=()):
    """The paths of the "nan", "inf" and "-inf" values of a report."""
    if isinstance(report, dict):
        return [p for k, v in report.items() for p in non_finite_fields(v, path + (k,))]
    if isinstance(report, list):
        return [p for k, v in enumerate(report) for p in non_finite_fields(v, path + (k,))]
    return [path] if report in ("nan", "inf", "-inf") else []


def check_outcome(code, capsys, report_path):
    """Exit 0 with a report free of NaN and infinity (but an infinite F
    flagged as such), or a documented exit code with one line on stderr
    and no report."""
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not report_path.exists()
        return
    report = json.loads(report_path.read_text())
    bad = non_finite_fields(report)
    if bad == [("anova", "f")]:
        assert report["anova"]["f"] == "inf" and report["anova"]["infinite_f"] is True
    else:
        assert bad == [], bad


heights = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=N_POINTS, max_size=N_POINTS)


def test_assess_with_any_finite_heights_never_reports_nan(scene, capsys):
    tmp_path, points = scene
    n = itertools.count()

    @seed(2025)
    @settings(max_examples=60, deadline=None, database=None)
    @given(heights)
    def check(hs):
        write_heights(tmp_path / "gcps.csv", hs, points)
        out = tmp_path / f"out{next(n)}"
        code = run(["assess", "--dem", tmp_path / "dem.asc", "--gcps", tmp_path / "gcps.csv",
                    "--classmap", tmp_path / "classes.asc", "--n-perm", 99,
                    "--hist-width", 1e300, "--out", out])
        check_outcome(code, capsys, out / "report.json")

    check()


def test_moran_with_any_finite_values_never_reports_nan(scene, capsys):
    tmp_path, points = scene
    n = itertools.count()

    @seed(2026)
    @settings(max_examples=100, deadline=None, database=None)
    @given(heights)
    def check(values):
        rows = "".join(f"{x!r},{y!r},{v!r}\n" for (x, y), v in zip(points, values))
        (tmp_path / "s.csv").write_text("x,y,delta_h\n" + rows)
        out = tmp_path / f"moran{next(n)}.json"
        code = run(["moran", "--samples", tmp_path / "s.csv", "--n-perm", 99, "--out", out])
        check_outcome(code, capsys, out)

    check()


# Two of the points 1e-160 apart: their inverse-distance weight is 1e160,
# so S0 is finite but S1 and S2 (sums of squared weights) overflow.
NEAR_POINTS = [(0.0, 0.0), (1e-160, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]


def test_moran_weights_whose_sums_overflow_exit_4(tmp_path, capsys):
    rows = "".join(f"{x!r},{y!r},{k + 1}\n" for k, (x, y) in enumerate(NEAR_POINTS))
    (tmp_path / "s.csv").write_text("x,y,delta_h\n" + rows)
    out = tmp_path / "moran.json"
    code = run(["moran", "--samples", tmp_path / "s.csv", "--out", out])
    assert_exit_4(code, capsys, "moran", "spatial weights: S1 overflows float64")
    assert not out.exists()


# Two pairs of points 2e-154 apart, with a weight of 5e153 each way: each
# adds (1e154)^2 = 1e308 to S1, a finite term; the two together are not.
S1_SUM_SAMPLES = """x,y,delta_h
0,0,1
2e-154,0,2
0,1e-150,3
2e-154,1e-150,1
10,0,2
11,0,5
10,1,1
11,1,4
"""


def test_moran_weights_whose_s1_terms_add_past_float64_exit_4(tmp_path, capsys):
    # math.fsum raises OverflowError on these terms, which must not escape main
    (tmp_path / "s.csv").write_text(S1_SUM_SAMPLES)
    out = tmp_path / "moran.json"
    code = run(["moran", "--samples", tmp_path / "s.csv", "--out", out])
    assert_exit_4(code, capsys, "moran", "spatial weights: S1 overflows float64")
    assert not out.exists()


def test_weights_whose_finite_s1_terms_add_past_float64_raise():
    # each pair adds (1.2e154)^2 = 1.44e308 to S1: finite terms, an infinite sum
    with pytest.raises(DegenerateWeightsError, match=r"^spatial weights: S1 overflows float64$"):
        WeightsMatrix(4, [0, 2], [1, 3], [1.2e154, 1.2e154])


def test_assess_skips_moran_whose_weights_overflow(tmp_path, capsys):
    dem = Grid(ncols=2, nrows=2, xll=-5.0, yll=-5.0, cellsize=10.0,
               values=[[100.0, 101.0], [102.0, 104.0]])
    write_ascii_grid(dem, tmp_path / "dem.asc")
    heights = [102.5, 101.7, 104.2, 100.1, 101.4]  # DEM minus these: -0.5 .. 0.6
    write_heights(tmp_path / "gcps.csv", heights, NEAR_POINTS)
    out = tmp_path / "out"
    assert run(["assess", "--dem", tmp_path / "dem.asc", "--gcps", tmp_path / "gcps.csv",
                "--out", out]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["moran"] == {"skipped": "spatial weights: S1 overflows float64"}
    assert non_finite_fields(report) == []
