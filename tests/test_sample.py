import io
import math

import numpy as np
import pytest

from demqa.errors import ConfigError, ParseError
from demqa.raster import Grid, cell_of
from demqa.sample import (
    ControlPoint,
    SampleRecord,
    SampleTable,
    attach_class,
    attach_derivatives,
    extract_coincident,
    read_gcp_csv,
)
from demqa.synth import make_plane
from demqa.terrain import slope_aspect


def flat_grid(value=10.0, n=2):
    return Grid(ncols=n, nrows=n, xll=0, yll=0, cellsize=1,
                values=np.full(n * n, value))


def pt(x, y, h=10.0, pid="p1"):
    return ControlPoint(id=pid, x=x, y=y, h_ref=h)


def table(points):
    return SampleTable.of(points)


def test_nearest_constant_surface():
    recs = extract_coincident(flat_grid(), table([pt(0.7, 1.3, h=10.0)]))
    assert recs[0].h_dem == 10.0
    assert recs[0].delta_h == 0.0


def test_bilinear_on_ramp_hand_value():
    # centres at x = 0.5, 1.5 carry z = 0.5, 1.5; halfway in x gives exactly 1.
    dem = make_plane(1.0, 0.0, 0.0, 2, 2)
    recs = extract_coincident(dem, table([pt(1.0, 0.5, h=1.0)]), method="bilinear")
    assert recs[0].h_dem == pytest.approx(1.0, abs=1e-15)


def test_point_outside_gives_none():
    for method in ("nearest", "bilinear"):
        recs = extract_coincident(flat_grid(), table([pt(-0.5, 0.5)]), method=method)
        assert recs[0].h_dem is None
        assert recs[0].delta_h is None


def test_nearest_on_nodata_gives_none():
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[-9999, 5])
    recs = extract_coincident(g, table([pt(0.5, 0.5), pt(1.5, 0.5, pid="p2")]))
    assert recs[0].h_dem is None
    assert recs[1].h_dem == 5


def test_bilinear_nodata_corner_gives_none():
    g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1,
             values=[1, -9999, 1, 1])
    # interpolation square spans all four centres
    recs = extract_coincident(g, table([pt(1.0, 1.0)]), method="bilinear")
    assert recs[0].h_dem is None


def test_bilinear_at_exact_centre_ignores_zero_weight_corners():
    g = flat_grid(4.0, n=2)
    # (0.5, 0.5) is the SW cell centre; the zero-weight corners off to the
    # east/north must not matter even at the grid edge.
    recs = extract_coincident(g, table([pt(0.5, 0.5)]), method="bilinear")
    assert recs[0].h_dem == 4.0


def test_bilinear_outside_centre_hull_gives_none():
    recs = extract_coincident(flat_grid(), table([pt(0.1, 0.2)]), method="bilinear")
    assert recs[0].h_dem is None


def test_nearest_equals_bilinear_on_constant_grid():
    g = flat_grid(3.25, n=4)
    rng = np.random.default_rng(12)
    pts = [pt(float(x), float(y), pid=f"p{i}")
           for i, (x, y) in enumerate(rng.uniform(0.6, 3.4, size=(50, 2)))]
    a = extract_coincident(g, table(pts), method="nearest")
    b = extract_coincident(g, table(pts), method="bilinear")
    for ra, rb in zip(a, b):
        assert ra.h_dem == pytest.approx(rb.h_dem, abs=1e-12)


def test_delta_is_exact_difference():
    dem = make_plane(0.3, -0.2, 7.0, 6, 6)
    rng = np.random.default_rng(1)
    pts = [pt(float(x), float(y), h=float(rng.normal(5, 2)), pid=f"p{i}")
           for i, (x, y) in enumerate(rng.uniform(0, 6, size=(40, 2)))]
    for r in extract_coincident(dem, table(pts)):
        assert r.delta_h == r.h_dem - r.h_ref


def test_extraction_is_permutation_equivariant():
    dem = make_plane(1.0, 2.0, 0.0, 5, 5)
    rng = np.random.default_rng(9)
    pts = [pt(float(x), float(y), pid=f"p{i}")
           for i, (x, y) in enumerate(rng.uniform(0, 5, size=(30, 2)))]
    order = rng.permutation(len(pts))
    straight = extract_coincident(dem, table(pts))
    shuffled = extract_coincident(dem, table([pts[i] for i in order]))
    for k, i in enumerate(order):
        assert shuffled[k] == straight[i]


@pytest.mark.parametrize("method", ["nearest", "bilinear"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e300, -1e300])
def test_non_finite_or_huge_coordinate_gives_none(method, bad):
    # bilinear used to raise a bare ValueError from math.floor(nan)
    for x, y in ((bad, 1.0), (1.0, bad)):
        recs = extract_coincident(flat_grid(), [pt(x, y), pt(1.0, 1.0, pid="ok")], method=method)
        assert (recs[0].h_dem, recs[0].delta_h) == (None, None)
        assert recs[1].h_dem == 10.0


def test_bilinear_matches_scalar_corner_loop():
    # the parent's per-point loop: corners in (dc, dr) order from 0.0,
    # zero weights skipped, None on an off-grid or nodata corner
    def scalar(g, x, y):
        u = (x - g.xll) / g.cellsize - 0.5
        v = (y - g.yll) / g.cellsize - 0.5
        c0, r0s = math.floor(u), math.floor(v)
        fu, fv = u - c0, v - r0s
        total = 0.0
        for dc, wu in ((0, 1.0 - fu), (1, fu)):
            for dr, wv in ((0, 1.0 - fv), (1, fv)):
                w = wu * wv
                if w == 0.0:
                    continue
                col, row = c0 + dc, g.nrows - 1 - (r0s + dr)
                if col < 0 or col >= g.ncols or row < 0 or row >= g.nrows:
                    return None
                val = g.value_at(row, col)
                if val is None:
                    return None
                total += w * val
        return total

    rng = np.random.default_rng(44)
    vals = rng.normal(100, 30, 6 * 8)
    vals[rng.random(vals.size) < 0.1] = -9999.0
    g = Grid(ncols=8, nrows=6, xll=-20, yll=5, cellsize=2.5, values=vals)
    xy = np.column_stack([rng.uniform(-22, 2, 3000), rng.uniform(3, 22, 3000)])
    xy[:200] = np.round(xy[:200] * 0.8) / 0.8  # on cell centres and edges
    pts = [pt(float(x), float(y), pid=f"p{k}") for k, (x, y) in enumerate(xy)]
    got = extract_coincident(g, table(pts), method="bilinear")
    assert any(r.h_dem is None for r in got) and any(r.h_dem is not None for r in got)
    for p, r in zip(pts, got):
        assert r.h_dem == scalar(g, p.x, p.y)


def test_unknown_method_is_config_error():
    with pytest.raises(ConfigError):
        extract_coincident(flat_grid(), table([pt(0.5, 0.5)]), method="cubic")


def test_attach_class_examples():
    cm = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[1, 2, 3, -9999])
    recs = extract_coincident(flat_grid(n=2), table([
        pt(0.5, 1.5, pid="nw"), pt(1.5, 0.5, pid="se"), pt(0.5, 0.5, pid="sw"),
    ]))
    out = attach_class(cm, recs)
    assert out[0].class_code == 1
    assert out[1].class_code is None  # nodata cell
    assert out[2].class_code == 3


def test_attach_class_remap_and_first_bad_code_in_point_order():
    cm = Grid(ncols=3, nrows=1, xll=0, yll=0, cellsize=1, values=[1.0, 2.0, 3.0])
    recs = extract_coincident(flat_grid(n=3), table([
        pt(2.5, 0.5, pid="c"), pt(0.5, 0.5, pid="a"), pt(1.5, 0.5, pid="b"),
    ]))
    # one pass over the original codes: 1 -> 2 and 2 -> 3 do not chain
    out = attach_class(cm, recs, remap={1: 2, 2: 3})
    assert [r.class_code for r in out] == [3, 2, 3]
    bad = Grid(ncols=3, nrows=1, xll=0, yll=0, cellsize=1, values=[0.5, 2.0, 3.5])
    with pytest.raises(ParseError, match=r"class map value 3\.5 at point 'c'"):
        attach_class(bad, recs)


def test_attach_class_boundary_matches_cell_of():
    cm = Grid(ncols=3, nrows=3, xll=0, yll=0, cellsize=1,
              values=np.arange(9, dtype=float))
    rng = np.random.default_rng(21)
    recs = extract_coincident(
        Grid(ncols=3, nrows=3, xll=0, yll=0, cellsize=1, values=np.ones(9)),
        table([pt(float(x), float(y), pid=f"p{i}")
               for i, (x, y) in enumerate(rng.uniform(0, 3, size=(100, 2)))]),
    )
    out = attach_class(cm, recs)
    for r in out:
        rc = cell_of(cm, r.x, r.y)
        assert r.class_code == int(cm.values[rc])


def test_attach_class_rejects_non_integral_code():
    cm = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[2.0, 2.7])
    recs = extract_coincident(flat_grid(n=2),
                              table([pt(0.5, 0.5, pid="a"), pt(1.5, 0.5, pid="b")]))
    with pytest.raises(ParseError, match=r"class map value 2\.7 at point 'b'"):
        attach_class(cm, recs)


def test_attach_derivatives_flat_dem():
    dem = flat_grid(5.0, n=3)
    recs = extract_coincident(dem, table([pt(1.5, 1.5)]))
    out = attach_derivatives(dem, recs)
    assert out[0].slope_deg == 0.0
    assert out[0].aspect_deg == -1.0


def test_attach_derivatives_ramp_slope_45():
    dem = make_plane(1.0, 0.0, 0.0, 5, 5)
    recs = extract_coincident(dem, table([pt(2.5, 2.5)]))
    out = attach_derivatives(dem, recs)
    assert out[0].slope_deg == pytest.approx(45.0, abs=1e-9)
    assert out[0].aspect_deg == pytest.approx(270.0, abs=1e-9)


def test_attach_derivatives_nodata_gives_none():
    vals = np.ones(9)
    vals[4] = -9999.0
    dem = Grid(ncols=3, nrows=3, xll=0, yll=0, cellsize=1, values=vals)
    recs = extract_coincident(dem, table([pt(1.5, 1.5)]))  # centre cell is the hole
    out = attach_derivatives(dem, recs)
    assert out[0].slope_deg is None
    assert out[0].aspect_deg is None


def test_attach_derivatives_equals_full_grid_lookup():
    # every record gets the full-grid value of its cell; off-grid points get None
    rng = np.random.default_rng(17)
    vals = rng.normal(20, 6, 7 * 9)
    vals[rng.random(vals.size) < 0.15] = -9999.0
    dem = Grid(ncols=9, nrows=7, xll=100, yll=50, cellsize=2.5, values=vals)
    xy = np.column_stack([rng.uniform(95, 130, 200), rng.uniform(45, 72, 200)])
    recs = extract_coincident(dem, table([pt(float(x), float(y), pid=f"p{k}")
                                          for k, (x, y) in enumerate(xy)]))
    pair = slope_aspect(dem, z_factor=1.7)
    out = attach_derivatives(dem, recs, z_factor=1.7)
    assert [r.id for r in out] == [r.id for r in recs]
    assert any(r.slope_deg is None for r in out)
    for r in out:
        rc = cell_of(dem, r.x, r.y)
        want_s = None if rc is None else pair.slope.value_at(*rc)
        want_a = None if rc is None else pair.aspect.value_at(*rc)
        assert (r.slope_deg, r.aspect_deg) == (want_s, want_a)
        assert r.slope_deg is None or type(r.slope_deg) is float


def test_attach_derivatives_keeps_values_equal_to_nodata():
    # a flat cell's slope 0 and aspect -1 are values even when NODATA_value
    # is 0 or -1 (a lookup in the full-grid results would read them as holes)
    for nodata in (0.0, -1.0):
        dem = Grid(ncols=3, nrows=3, xll=0, yll=0, cellsize=1,
                   values=np.full(9, 5.0), nodata=nodata)
        out = attach_derivatives(dem, extract_coincident(dem, table([pt(1.5, 1.5)])))
        assert (out[0].slope_deg, out[0].aspect_deg) == (0.0, -1.0)


def test_attach_derivatives_no_points():
    assert list(attach_derivatives(flat_grid(), table([]))) == []


def test_read_gcp_csv():
    text = "id,x,y,h\na,1.5,2.5,10.25\nb,2,3,11\n"
    pts = read_gcp_csv(io.StringIO(text))
    assert list(pts) == [
        SampleRecord(id="a", x=1.5, y=2.5, h_ref=10.25),
        SampleRecord(id="b", x=2.0, y=3.0, h_ref=11.0),
    ]


def test_read_gcp_csv_errors():
    with pytest.raises(ParseError, match="header"):
        read_gcp_csv(io.StringIO("x,y,h\n1,2,3\n"))
    with pytest.raises(ParseError, match="duplicate"):
        read_gcp_csv(io.StringIO("id,x,y,h\na,1,2,3\na,4,5,6\n"))
    with pytest.raises(ParseError, match="line 2"):
        read_gcp_csv(io.StringIO("id,x,y,h\na,one,2,3\n"))
    with pytest.raises(ParseError):
        read_gcp_csv(io.StringIO(""))


def test_read_gcp_csv_reports_first_bad_line():
    # a bad number on an earlier line wins over a duplicate id on a later one
    with pytest.raises(ParseError, match=r"non-numeric .* \(line 2\)"):
        read_gcp_csv(io.StringIO("id,x,y,h\na,one,2,3\na,4,5,6\n"))
    with pytest.raises(ParseError, match=r"non-finite value 'inf' \(line 3, column 3\)"):
        read_gcp_csv(io.StringIO("id,x,y,h\na,1,2,3\nb,4,inf,7\nb,1,1,x\n"))
    with pytest.raises(ParseError, match=r"duplicate point id 'a' \(line 3\)"):
        read_gcp_csv(io.StringIO("id,x,y,h\na,1,2,3\na,4,5,6\nc,x,1,1\n"))


def test_table_rows_subsets_and_status():
    t = table([pt(0.5, 0.5, pid="a"), pt(1.5, 0.5, pid="b"), pt(9.0, 9.0, pid="c")])
    assert len(t) == 3 and list(t.status) == ["kept"] * 3
    assert t[2] == SampleRecord(id="c", x=9.0, y=9.0, h_ref=10.0)
    kept, removed = t.split(np.array([False, True, False]), "removed_validity")
    assert [r.id for r in kept] == ["a", "c"] and list(kept.status) == ["kept", "kept"]
    assert [r.id for r in removed] == ["b"] and list(removed.status) == ["removed_validity"]
    both = SampleTable.concat([removed, kept])
    assert both.ids == ["b", "a", "c"]
    assert list(both.status) == ["removed_validity", "kept", "kept"]
    assert [r.id for r in both.take([2, 0])] == ["c", "b"]
    assert SampleTable.of(list(both))[0] == both[0]
    with pytest.raises(ValueError, match="column x"):
        SampleTable(ids=["a"], x=[1.0, 2.0], y=[1.0], h_ref=[1.0])


def test_read_gcp_csv_skips_comments():
    text = "# provenance\nid,x,y,h\na,1,2,3\n"
    assert len(read_gcp_csv(io.StringIO(text))) == 1
