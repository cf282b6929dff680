import numpy as np
import pytest

from demqa.errors import DegenerateDataError
from demqa.raster import Grid, cell_of
from demqa.sample import ControlPoint, extract_coincident
from demqa.spatial import build_weights, morans_significance
from demqa.stats import summarize
from demqa.synth import (
    SceneSpec,
    make_checkerboard,
    make_plane,
    make_smoothed_noise,
    scatter_points,
)


def test_plane_constant():
    g = make_plane(0, 0, 7.0, 3, 4)
    assert np.all(g.values == 7.0)
    assert g.nrows == 3 and g.ncols == 4


def test_plane_east_ramp_cell_centre_values():
    g = make_plane(1.0, 0.0, 0.0, 2, 3, cellsize=2.0)
    # centres at x = 1, 3, 5
    assert g.values[0].tolist() == [1.0, 3.0, 5.0]
    assert g.values[1].tolist() == [1.0, 3.0, 5.0]


def test_plane_adjacent_centres_differ_by_gradient_times_cellsize():
    g = make_plane(0.25, -0.5, 3.0, 5, 5, cellsize=4.0)
    assert g.values[2, 3] - g.values[2, 2] == pytest.approx(0.25 * 4.0, abs=1e-12)
    # row 1 is north of row 2
    assert g.values[1, 2] - g.values[2, 2] == pytest.approx(-0.5 * 4.0, abs=1e-12)


def test_checkerboard_alternates():
    g = make_checkerboard(2.0, 3, 3)
    assert g.values[0, 0] == 2.0
    assert g.values[0, 1] == -2.0
    assert g.values[1, 0] == -2.0
    assert g.values[1, 1] == 2.0


def test_smoothed_noise_deterministic():
    a = make_smoothed_noise(1.0, 2, 10, 10, seed=5)
    b = make_smoothed_noise(1.0, 2, 10, 10, seed=5)
    c = make_smoothed_noise(1.0, 2, 10, 10, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_smoothing_reduces_variance():
    raw = make_smoothed_noise(1.0, 0, 50, 50, seed=0)
    smooth = make_smoothed_noise(1.0, 3, 50, 50, seed=0)
    assert smooth.values.std() < raw.values.std()


def moran_z(grid, n_points, seed):
    pts = scatter_points(grid, n_points, seed=seed)
    w = build_weights([(p.x, p.y) for p in pts])
    return morans_significance([p.h_ref for p in pts], w).z


def test_unsmoothed_noise_moran_near_null():
    # Monte Carlo batch: with no smoothing the field is independent, so
    # |z| should rarely clear 1.96. Seeded, hence deterministic.
    hits = sum(abs(moran_z(make_smoothed_noise(1.0, 0, 40, 40, seed=s), 120, s)) < 1.96
               for s in range(10))
    assert hits >= 8


def test_smoothed_noise_moran_significant():
    # "With high probability", not certainty: weakly sampled fields can
    # dip under the threshold (seed 6 does, z ~ 1.24).
    hits = sum(moran_z(make_smoothed_noise(1.0, 3, 40, 40, seed=s), 120, s) > 1.96
               for s in range(10))
    assert hits >= 9


def test_scatter_single_point_in_bounds():
    g = make_plane(0, 0, 1.0, 4, 4)
    pts = scatter_points(g, 1, seed=3)
    assert len(pts) == 1
    assert cell_of(g, pts[0].x, pts[0].y) is not None


def test_scatter_infeasible_separation_errors():
    g = make_plane(0, 0, 1.0, 4, 4)
    diag = np.hypot(4, 4)
    with pytest.raises(DegenerateDataError):
        scatter_points(g, 2, seed=0, min_separation=diag + 1)


def test_scatter_respects_separation_and_seed():
    g = make_plane(0.1, 0.2, 5.0, 30, 30)
    a = scatter_points(g, 25, seed=4, min_separation=2.0)
    b = scatter_points(g, 25, seed=4, min_separation=2.0)
    assert a == b
    xy = np.array([(p.x, p.y) for p in a])
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    off = d[~np.eye(len(a), dtype=bool)]
    assert off.min() >= 2.0


def test_scatter_avoids_nodata_cells():
    vals = np.full(16, -9999.0)
    vals[5] = 3.0  # single valid cell
    g = make_plane(0, 0, 0, 4, 4)
    g = type(g)(ncols=4, nrows=4, xll=0, yll=0, cellsize=1, values=vals)
    pts = scatter_points(g, 1, seed=0)
    assert cell_of(g, pts[0].x, pts[0].y) == (1, 1)
    assert pts[0].h_ref == 3.0


def test_scatter_planted_error():
    g = make_plane(0, 0, 10.0, 10, 10)
    with_err = scatter_points(g, 50, seed=7, error_sd=0.5)
    spread = np.std([p.h_ref - 10.0 for p in with_err])
    assert 0.2 < spread < 1.0
    without = scatter_points(g, 50, seed=7)
    assert all(p.h_ref == 10.0 for p in without)


def test_closure_snapped_points_zero_error():
    # Plane + cell-centre GCPs + zero planted error => every delta is 0.
    g = make_plane(0.5, -0.25, 20.0, 12, 12, cellsize=3.0)
    pts = scatter_points(g, 30, seed=11, snap_to_centres=True)
    recs = extract_coincident(g, pts, method="nearest")
    stats = summarize([r.delta_h for r in recs])
    assert abs(stats.mean) <= 1e-12
    assert stats.sd <= 1e-12
    assert stats.rmse <= 1e-12


def test_scene_spec_dispatch():
    plane = SceneSpec(kind="plane", nrows=3, ncols=3, a=1.0).build()
    board = SceneSpec(kind="checkerboard", nrows=3, ncols=3, amplitude=2.0).build()
    noise = SceneSpec(kind="smoothed_noise", nrows=3, ncols=3, sd=1.0, seed=1).build()
    assert plane.values[0, 1] > plane.values[0, 0]
    assert board.values[0, 0] == 2.0
    assert noise.values.std() > 0
    with pytest.raises(ValueError):
        SceneSpec(kind="volcano", nrows=3, ncols=3).build()


def test_bad_parameters():
    with pytest.raises(ValueError):
        make_smoothed_noise(0.0, 1, 5, 5, seed=0)
    with pytest.raises(ValueError):
        make_smoothed_noise(1.0, -1, 5, 5, seed=0)
    with pytest.raises(ValueError):
        scatter_points(make_plane(0, 0, 0, 3, 3), 0)


# The quadratic scatter loop the set and cell buckets replaced, kept as the
# oracle: same points, same RNG draws, same errors.


def quadratic_scatter_points(grid, n, seed=0, min_separation=0.0, snap_to_centres=False,
                             error_sd=0.0, id_prefix="p"):
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    width = grid.ncols * grid.cellsize
    height = grid.nrows * grid.cellsize
    placed = []
    points = []
    max_attempts = 1000 * n
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > max_attempts:
            raise DegenerateDataError(
                f"could not place {n} points with separation {min_separation} "
                f"after {max_attempts} attempts"
            )
        x = grid.xll + rng.uniform(0.0, width)
        y = grid.yll + rng.uniform(0.0, height)
        rc = cell_of(grid, x, y)
        if rc is None:
            continue
        if snap_to_centres:
            x, y = grid.cell_center(*rc)
        if any(x == px and y == py for px, py in placed):
            continue
        if min_separation > 0 and any(
            (x - px) ** 2 + (y - py) ** 2 < min_separation**2 for px, py in placed
        ):
            continue
        h = grid.value_at(*rc)
        if h is None:
            continue
        if error_sd > 0:
            h += rng.normal(0.0, error_sd)
        placed.append((x, y))
        points.append(ControlPoint(id=f"{id_prefix}{len(points):04d}", x=x, y=y, h_ref=h))
    return points


def scatter_outcome(scatter, grid, n, **kw):
    try:
        return scatter(grid, n, **kw)
    except DegenerateDataError as exc:
        return str(exc)


def random_scatter_case(rng):
    nrows, ncols = (int(k) for k in rng.integers(1, 12, 2))
    cellsize = float(rng.choice([0.5, 1.0, 3.0, 30.0]))
    origin = float(rng.choice([0.0, -1234.5, 4.5e6]))
    values = rng.normal(100.0, 5.0, nrows * ncols)
    values[rng.random(values.size) < 0.2] = -9999.0  # some nodata cells
    grid = Grid(ncols=ncols, nrows=nrows, xll=origin, yll=-origin / 3, cellsize=cellsize,
                values=values)
    kw = dict(
        seed=int(rng.integers(1000)),
        snap_to_centres=bool(rng.random() < 0.4),
        error_sd=float(rng.choice([0.0, 0.5])),
        min_separation=float(rng.choice([0.0, 0.0, 0.3, 0.7, 1.5, 4.0]) * cellsize),
    )
    # mostly feasible: an infeasible case takes 1000 * n attempts
    n = int(rng.integers(1, min(40, max(2, nrows * ncols // 4))))
    return grid, n, kw


def test_scatter_matches_quadratic_oracle():
    rng = np.random.default_rng(4242)
    seen = set()
    for _ in range(200):
        grid, n, kw = random_scatter_case(rng)
        got = scatter_outcome(scatter_points, grid, n, **kw)
        assert got == scatter_outcome(quadratic_scatter_points, grid, n, **kw), (grid, n, kw)
        seen.add((type(got).__name__, kw["min_separation"] > 0, kw["snap_to_centres"]))
    # every layout placed, and infeasible packings with and without snapping
    assert seen >= {("list", sep, snap) for sep in (False, True) for snap in (False, True)}
    assert seen >= {("str", True, False), ("str", True, True)}
    # more snapped points than valid cells: every later candidate is a duplicate
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1.0, 2.0])
    for scatter in (scatter_points, quadratic_scatter_points):
        with pytest.raises(DegenerateDataError, match="could not place 3 points"):
            scatter(g, 3, snap_to_centres=True)


@pytest.mark.parametrize("separation", [1e-300, 1e-9, 1e-8, float("inf")])
def test_scatter_extreme_separation_matches_oracle(separation):
    g = make_smoothed_noise(1.0, 1, 12, 12, seed=2, xll=4.5e6, yll=-2.0e6, cellsize=2.0)
    n = 1 if separation == float("inf") else 40
    for seed in range(3):
        kw = dict(seed=seed, min_separation=separation)
        assert scatter_points(g, n, **kw) == quadratic_scatter_points(g, n, **kw)
    with pytest.raises(DegenerateDataError):
        scatter_points(make_plane(0, 0, 1.0, 3, 3), 2, min_separation=float("inf"))


@pytest.mark.parametrize("separation", [1.1, 1.5, 2.5])
def test_scatter_separation_near_float_spacing_matches_oracle(separation):
    # at 2**52 floats are 1 apart, so x // separation is no longer an exact
    # floor and the cell buckets could miss a neighbour: the search must
    # fall back to one cell
    g = Grid(ncols=24, nrows=24, xll=2.0**52, yll=3 * 2.0**51, cellsize=1.0,
             values=np.ones(576))
    for seed in range(5):
        kw = dict(seed=seed, min_separation=separation)
        assert scatter_points(g, 40, **kw) == quadratic_scatter_points(g, 40, **kw)
