"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (failures show up as ordinary pytest failures).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from demqa.cli import main
from demqa.raster import write_ascii_grid
from demqa.sample import SampleTable
from demqa.screen import tukey_filter
from demqa.spatial import (
    WeightsMatrix,
    build_weights,
    morans_i,
    morans_significance,
    permutation_test,
)
from demqa.stats import f_test, two_tailed_p
from demqa.synth import make_checkerboard, make_plane, make_smoothed_noise, scatter_points
from demqa.terrain import slope_aspect

from test_stats import PUBLISHED_ROWS, f_cdf_oracle, f_upper


def report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}")


def test_c01_summary_identity_vs_published_tables():
    t0 = time.monotonic()
    for name, n, mean, sd, rmse in PUBLISHED_ROWS:
        implied = math.sqrt(mean**2 + sd**2 * (n - 1) / n)
        assert abs(implied - rmse) <= 0.015, (name, implied, rmse)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("01 summary-identity", f"(8 rows, {elapsed:.3f}s)")


def test_c02_anova_replication():
    t0 = time.monotonic()
    first = f_test(88.63, 3, 2450.496, 493)
    assert abs(first.f - 5.944) <= 0.001
    assert 0.0005 <= first.p <= 0.0015
    second = f_test(55.544, 4, 1830.027, 182)
    assert abs(second.f - 1.381) <= 0.001
    assert abs(second.p - 0.242) <= 0.002
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("02 anova-replication", f"(F={first.f:.4f}, p={first.p:.5f})")


def test_c03_normal_tail_replication():
    assert abs(two_tailed_p(1.454) - 0.146) <= 0.001
    assert two_tailed_p(4.703) < 1e-4
    report("03 normal-tails", f"(p(1.454)={two_tailed_p(1.454):.5f})")


def chain_weights(n):
    # row i links to i - 1 and i + 1, in (i, j) order
    rows = np.repeat(np.arange(n), 2)[1:-1]
    cols = np.column_stack([np.arange(n) - 1, np.arange(n) + 1]).ravel()[1:-1]
    return WeightsMatrix(n, rows, cols, np.ones(rows.size))


def test_c04_moran_exactness():
    # E[I] exact for every n in 4..1000
    for n in range(4, 1001):
        w = chain_weights(n)
        vals = np.arange(n, dtype=float)
        vals[0] += 0.5  # break symmetry, keep variance nonzero
        res = morans_significance(vals, w)
        assert abs(res.e_i + 1.0 / (n - 1)) <= 1e-15

    # checkerboard on rook weights
    g = make_checkerboard(1.0, 4, 4)
    pts = [g.cell_center(r, c) for r in range(4) for c in range(4)]
    vals = [float(g.values[r, c]) for r in range(4) for c in range(4)]
    w = build_weights(pts, scheme="fixed_band", threshold=1.0)
    assert abs(morans_i(vals, w) - (-1.0)) <= 1e-12

    # analytic randomization variance == exhaustive permutation variance
    rng = np.random.default_rng(42)
    for n in (4, 5, 6):
        for scheme in ("fixed_band", "inverse_distance"):
            pts = [tuple(p) for p in rng.uniform(0, 10, size=(n, 2))]
            x = rng.normal(0, 2, n)
            w = build_weights(pts, scheme=scheme)
            res = morans_significance(x, w, assumption="randomization")
            sims = np.array(
                [morans_i(x[list(p)], w) for p in itertools.permutations(range(n))]
            )
            assert abs(sims.var() - res.v_i) <= 1e-9
    report("04 moran-exactness")


def test_c05_moran_oracle_agreement():
    t0 = time.monotonic()
    agree = 0
    for s in range(20):
        radius = 3 if s % 2 == 0 else 0
        field = make_smoothed_noise(1.0, radius, 50, 50, seed=s)
        pts = scatter_points(field, 200, seed=1000 + s)
        vals = [p.h_ref for p in pts]
        w = build_weights([(p.x, p.y) for p in pts])
        analytic = morans_significance(vals, w)
        perm = permutation_test(vals, w, n_perm=9999, seed=s)
        agree += (analytic.p < 0.05) == (perm.pseudo_p < 0.05)
    elapsed = time.monotonic() - t0
    assert agree >= 19, f"only {agree}/20 classifications agree"
    assert elapsed < 60.0
    report("05 moran-oracle-agreement", f"({agree}/20, {elapsed:.1f}s)")


def test_c06_terrain_exactness():
    for a in (-2.0, 0.0, 1.0):
        for b in (-1.0, 0.0, 0.5):
            dem = make_plane(a, b, 10.0, 8, 8, cellsize=2.0)
            pair = slope_aspect(dem, 0, dem.nrows)
            slope = pair.slope[1:-1, 1:-1]
            aspect = pair.aspect[1:-1, 1:-1]
            want_slope = math.degrees(math.atan(math.hypot(a, b)))
            assert np.all(np.abs(slope - want_slope) <= 1e-9)
            if a == 0 and b == 0:
                assert np.all(aspect == -1.0)
            else:
                want = math.degrees(math.atan2(-a, -b)) % 360.0
                diff = np.abs((aspect - want + 180.0) % 360.0 - 180.0)
                assert np.all(diff <= 1e-9)
    report("06 terrain-exactness", "(9 planes)")


def test_c07_tukey_oracle():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(5, 501))
        kind = trial % 4
        if kind == 0:
            v = rng.normal(0, rng.uniform(0.5, 10), n)
        elif kind == 1:
            v = rng.uniform(-50, 50, n)
        elif kind == 2:
            v = rng.integers(-5, 6, n).astype(float)
        else:
            v = rng.lognormal(0, 1, n)
        zeros = np.zeros(n)
        records = SampleTable(ids=[f"r{i}" for i in range(n)], x=zeros, y=zeros, h_ref=zeros,
                              h_dem=v, delta_h=v, class_code=np.ones(n))
        kept, removed, fences = tukey_filter(records)
        q1, q3 = np.percentile(v, [25, 75], method="linear")
        lower = q1 - 1.5 * (q3 - q1)
        upper = q3 + 1.5 * (q3 - q1)
        expected = {i for i, d in zip(records.ids, v) if d < lower or d > upper}
        assert set(removed.ids) == expected, trial
    report("07 tukey-oracle", "(1000 datasets)")


def test_c08_f_cdf_accuracy():
    worst = 0.0
    for d1 in (1, 3, 10, 100, 493):
        for d2 in (1, 3, 10, 100, 493):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                diff = abs(f_upper(x, d1, d2) - (1 - f_cdf_oracle(x, d1, d2)))
                worst = max(worst, diff)
                assert diff <= 1e-6, (x, d1, d2)
    report("08 f-cdf-accuracy", f"(worst |diff| = {worst:.2e})")


def test_c09_end_to_end_closure(tmp_path):
    dem = make_plane(0.5, -0.25, 20.0, 12, 12, cellsize=3.0)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    pts = scatter_points(dem, 40, seed=11, snap_to_centres=True)
    with open(tmp_path / "gcps.csv", "w") as f:
        f.write("id,x,y,h\n")
        for p in pts:
            f.write(f"{p.id},{p.x!r},{p.y!r},{p.h_ref!r}\n")
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[input]\ndem = {tmp_path / 'dem.asc'}\ngcps = {tmp_path / 'gcps.csv'}\n\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["assess", "--config", str(cfg)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["stats"]["total"]["rmse"]) <= 1e-12
    first = (out / "report.json").read_bytes()
    assert main(["assess", "--config", str(cfg)]) == 0
    assert (out / "report.json").read_bytes() == first
    report("09 end-to-end-closure", "(rmse 0, byte-identical reruns)")


def test_c10_published_dataset_replication():
    pytest.skip(
        "stretch criterion: needs the published GCP/DEM dataset, which must be "
        "downloaded separately (no dataset access in this environment); see README"
    )
