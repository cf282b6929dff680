import io
import math
from dataclasses import replace

import numpy as np
import pytest

from demqa.cli import main
from demqa.raster import Grid, read_ascii_grid, write_ascii_grid
from demqa.sample import attach_derivatives, read_gcp_csv
from demqa.synth import make_plane
from demqa.terrain import slope_aspect, slope_aspect_at


def analytic_slope(a, b):
    return math.degrees(math.atan(math.hypot(a, b)))


def analytic_aspect(a, b):
    """Compass azimuth of the downslope vector (-a, -b); -1 when flat."""
    if a == 0 and b == 0:
        return -1.0
    return math.degrees(math.atan2(-a, -b)) % 360.0


def full(dem, z_factor=1.0):
    """Slope and aspect over every row of a DEM."""
    return slope_aspect(dem, 0, dem.nrows, z_factor)


def interior(values):
    return values[1:-1, 1:-1]


def test_constant_dem_flat_everywhere():
    dem = make_plane(0, 0, 7.0, 5, 5)
    pair = full(dem)
    assert np.all(pair.slope == 0.0)
    assert np.all(pair.aspect == -1.0)


def test_east_ramp():
    pair = full(make_plane(1.0, 0.0, 0.0, 6, 6))
    assert np.allclose(interior(pair.slope), 45.0, atol=1e-9)
    assert np.allclose(interior(pair.aspect), 270.0, atol=1e-9)


def test_north_ramp():
    pair = full(make_plane(0.0, 1.0, 0.0, 6, 6))
    assert np.allclose(interior(pair.slope), 45.0, atol=1e-9)
    assert np.allclose(interior(pair.aspect), 180.0, atol=1e-9)


@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("b", [-1.0, 0.0, 1.0])
def test_plane_exactness_nine_cases(a, b):
    dem = make_plane(a, b, 3.0, 7, 7, cellsize=2.0, xll=-3.0, yll=5.0)
    pair = full(dem)
    assert np.allclose(interior(pair.slope), analytic_slope(a, b), atol=1e-9)
    expect = analytic_aspect(a, b)
    got = interior(pair.aspect)
    if expect < 0:
        assert np.all(got == -1.0)
    else:
        # compare on the circle
        diff = np.abs((got - expect + 180.0) % 360.0 - 180.0)
        assert np.all(diff <= 1e-9)


def test_slope_invariant_under_constant_offset():
    rng = np.random.default_rng(3)
    vals = rng.normal(50, 10, 64)
    dem = Grid(ncols=8, nrows=8, xll=0, yll=0, cellsize=1, values=vals)
    lifted = Grid(ncols=8, nrows=8, xll=0, yll=0, cellsize=1, values=vals + 123.0)
    assert np.allclose(full(dem).slope,
                       full(lifted).slope, atol=1e-9)


def test_z_factor_doubles_gradient():
    pair = full(make_plane(1.0, 0.0, 0.0, 6, 6), z_factor=2.0)
    assert np.allclose(interior(pair.slope), math.degrees(math.atan(2.0)), atol=1e-9)
    assert interior(pair.slope)[0, 0] == pytest.approx(63.43494882292201, abs=1e-9)
    with pytest.raises(ValueError):
        full(make_plane(1, 0, 0, 4, 4), z_factor=0.0)


def test_rotation_consistency():
    # Rotating the field 90 deg counterclockwise turns the compass aspect
    # back by 90 deg.
    base = make_plane(1.0, 0.4, 0.0, 9, 9)
    rotated = Grid(ncols=9, nrows=9, xll=0, yll=0, cellsize=1,
                   values=np.rot90(base.values).copy())
    a0 = interior(full(base).aspect)[0, 0]
    a1 = interior(full(rotated).aspect)[0, 0]
    diff = abs((a1 - (a0 - 90.0) + 180.0) % 360.0 - 180.0)
    assert diff <= 1e-9
    s0 = interior(full(base).slope)[0, 0]
    s1 = interior(full(rotated).slope)[0, 0]
    assert s1 == pytest.approx(s0, abs=1e-9)


def test_slope_zero_iff_aspect_flat():
    rng = np.random.default_rng(8)
    vals = rng.normal(0, 5, 100)
    vals[rng.random(100) < 0.2] = 4.0
    dem = Grid(ncols=10, nrows=10, xll=0, yll=0, cellsize=1, values=vals)
    pair = full(dem)
    flat = pair.aspect == -1.0
    zero = pair.slope == 0.0
    assert np.array_equal(flat, zero)


def test_aspect_range():
    rng = np.random.default_rng(13)
    dem = Grid(ncols=12, nrows=12, xll=0, yll=0, cellsize=1,
               values=rng.normal(0, 4, 144))
    pair = full(dem)
    a = pair.aspect
    valid = a != -1.0
    assert np.all((a[valid] >= 0.0) & (a[valid] < 360.0))
    s = pair.slope
    assert np.all((s >= 0.0) & (s <= 90.0))


def reference_slope_aspect(dem, z_factor=1.0):
    """Scalar per-cell re-derivation of the kernel, as an oracle."""
    slope = np.empty((dem.nrows, dem.ncols))
    aspect = np.empty((dem.nrows, dem.ncols))
    for r in range(dem.nrows):
        for c in range(dem.ncols):
            centre = dem.values[r, c]
            if centre == dem.nodata:
                slope[r, c] = dem.nodata
                aspect[r, c] = dem.nodata
                continue

            def nb(dr, dc):
                rr, cc = r + dr, c + dc
                if 0 <= rr < dem.nrows and 0 <= cc < dem.ncols:
                    v = dem.values[rr, cc]
                    return centre if v == dem.nodata else v
                return centre

            a_, b_, c_ = nb(-1, -1), nb(-1, 0), nb(-1, 1)
            d_, f_ = nb(0, -1), nb(0, 1)
            g_, h_, i_ = nb(1, -1), nb(1, 0), nb(1, 1)
            dzdx = ((c_ + 2 * f_ + i_) - (a_ + 2 * d_ + g_)) / (8 * dem.cellsize)
            dzdy = ((g_ + 2 * h_ + i_) - (a_ + 2 * b_ + c_)) / (8 * dem.cellsize)
            slope[r, c] = math.degrees(math.atan(z_factor * math.hypot(dzdx, dzdy)))
            if dzdx == 0 and dzdy == 0:
                aspect[r, c] = -1.0
            else:
                aspect[r, c] = (90.0 - math.degrees(math.atan2(dzdy, -dzdx))) % 360.0
    return slope, aspect


def test_matches_scalar_reference_with_nodata():
    rng = np.random.default_rng(31)
    for _ in range(20):
        nrows = int(rng.integers(3, 9))
        ncols = int(rng.integers(3, 9))
        vals = rng.normal(10, 5, nrows * ncols)
        vals[rng.random(nrows * ncols) < 0.2] = -9999.0
        dem = Grid(ncols=ncols, nrows=nrows, xll=0, yll=0, cellsize=1.5, values=vals)
        pair = full(dem, z_factor=1.3)
        ref_slope, ref_aspect = reference_slope_aspect(dem, z_factor=1.3)
        assert np.allclose(pair.slope, ref_slope, atol=1e-12)
        assert np.allclose(pair.aspect, ref_aspect, atol=1e-12)


def test_nodata_centre_propagates():
    vals = np.ones(9)
    vals[4] = -9999.0
    dem = Grid(ncols=3, nrows=3, xll=0, yll=0, cellsize=1, values=vals)
    pair = full(dem)
    assert pair.slope[1, 1] == -9999.0
    assert pair.aspect[1, 1] == -9999.0
    # neighbours of the hole still get values
    assert pair.slope[0, 0] != -9999.0


def test_output_georef_matches_input(tmp_path):
    dem = replace(make_plane(0.2, 0.1, 0, 4, 5, cellsize=20.0, xll=500.0, yll=800.0), nodata=-1.5)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    assert main(["terrain", str(tmp_path / "dem.asc"), "--out-prefix", str(tmp_path / "d")]) == 0
    pair = full(dem)
    for name, values in (("slope", pair.slope), ("aspect", pair.aspect)):
        assert read_ascii_grid(tmp_path / f"d_{name}.asc") == replace(dem, values=values)


def seeded_dem(rng):
    """A small DEM with the shapes and values the windowed kernel must handle:
    1-row and 1-column grids, nodata holes, flat patches, integral heights."""
    shape = rng.choice(["one_row", "one_col", "tiny", "small"])
    nrows = 1 if shape == "one_row" else int(rng.integers(1, 4 if shape == "tiny" else 12))
    ncols = 1 if shape == "one_col" else int(rng.integers(1, 4 if shape == "tiny" else 12))
    n = nrows * ncols
    vals = rng.normal(100.0, rng.choice([0.01, 1.0, 50.0]), n)
    if rng.random() < 0.3:
        vals = np.round(vals)
    flat = rng.random(n) < rng.choice([0.0, 0.3, 0.8])
    vals[flat] = 100.0
    nodata = float(rng.choice([-9999.0, 0.0, 100.0]))
    vals[rng.random(n) < rng.choice([0.0, 0.1, 0.4])] = nodata
    return Grid(ncols=ncols, nrows=nrows, xll=float(rng.uniform(-1e3, 1e3)),
                yll=float(rng.uniform(-1e3, 1e3)),
                cellsize=float(rng.choice([0.5, 1.0, 2.0, 30.0, 0.1])),
                values=vals, nodata=nodata)


def test_windowed_equals_full_grid_bitwise():
    rng = np.random.default_rng(2026)
    n_holes = n_boundary_holes = 0  # nodata cells, and blocks with one in a row beside a cut
    for _ in range(1200):
        dem = seeded_dem(rng)
        z = float(rng.choice([1.0, 0.3, 2.5, 1e-5]))
        whole = full(dem, z_factor=z)
        rows, cols = np.divmod(np.arange(dem.nrows * dem.ncols), dem.ncols)
        order = rng.permutation(rows.size)  # any order, and each cell once more
        rows = np.concatenate([rows[order], rows[:3]])
        cols = np.concatenate([cols[order], cols[:3]])
        got = slope_aspect_at(dem, rows.tolist(), cols.tolist(), z_factor=z)
        assert got.slope.dtype == got.aspect.dtype == np.float64
        assert got.slope.shape == got.aspect.shape == rows.shape
        for r, c, s, a in zip(rows, cols, got.slope, got.aspect):
            if dem.values[r, c] == dem.nodata:
                n_holes += 1
                assert np.isnan(s) and np.isnan(a)
            else:
                assert s.tobytes() == whole.slope[r, c].tobytes()
                assert a.tobytes() == whole.aspect[r, c].tobytes()
        # any split of the rows: random blocks, then one row each
        cuts = rng.integers(0, dem.nrows + 1, int(rng.integers(0, 4)))
        for bounds in (np.unique(np.r_[0, cuts, dem.nrows]), np.arange(dem.nrows + 1)):
            blocks = [slope_aspect(dem, lo, hi, z) for lo, hi in zip(bounds[:-1], bounds[1:])]
            for k in (0, 1):
                assert np.concatenate([b[k] for b in blocks]).tobytes() == whole[k].tobytes()
            n_boundary_holes += sum((dem.values[b - 1 : b + 1] == dem.nodata).any()
                                    for b in bounds[1:-1])
    assert n_holes > 0
    assert n_boundary_holes > 0


def test_windowed_edge_neighbours_take_centre_value():
    # the NW corner of a 2x2 grid: five off-grid neighbours and one nodata
    # neighbour take the centre value
    dem = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1,
               values=[1.0, 3.0, -9999.0, 5.0])
    got = slope_aspect_at(dem, [0], [0])
    # dz/dx = ((1 + 2*3 + 5) - 4*1) / 8, dz/dy = ((1 + 2*1 + 5) - 4*1) / 8
    assert got.slope[0] == pytest.approx(analytic_slope(8 / 8, 4 / 8), abs=1e-12)


def test_windowed_rejects_bad_cells_and_z_factor():
    dem = make_plane(1.0, 0.0, 0.0, 3, 4)
    for rows, cols in (([3], [0]), ([0], [4]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="off the grid"):
            slope_aspect_at(dem, rows, cols)
    with pytest.raises(ValueError, match="same length"):
        slope_aspect_at(dem, [0, 1], [0])
    for z in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="z_factor"):
            slope_aspect_at(dem, [0], [0], z_factor=z)
        with pytest.raises(ValueError, match="z_factor"):
            full(dem, z_factor=z)
        with pytest.raises(ValueError, match="z_factor"):
            attach_derivatives(dem, read_gcp_csv(io.StringIO("id,x,y,h\na,0.5,0.5,0\n")), z)
    empty = slope_aspect_at(dem, [], [])
    assert len(empty.slope) == len(empty.aspect) == 0
    for lo, hi in ((-1, 2), (2, 1), (0, 4)):
        with pytest.raises(ValueError, match="rows off the grid"):
            slope_aspect(dem, lo, hi)
    for lo in (0, 3):
        assert slope_aspect(dem, lo, lo).slope.shape == (0, 4)
