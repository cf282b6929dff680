import io

import numpy as np
import pytest

from demqa.errors import DemqaError, NonFiniteGridError, ParseError
from demqa.raster import (
    Grid,
    MultibandGrid,
    cell_of,
    dumps_ascii_grid,
    read_ascii_grid,
    write_ascii_grid,
)


def make_text(body, ncols=2, nrows=2, nodata_line="NODATA_value -9999"):
    header = f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    if nodata_line:
        header += nodata_line + "\n"
    return header + body


def test_read_basic():
    g = read_ascii_grid(io.StringIO(make_text("1 2\n3 4\n")))
    assert g.ncols == 2 and g.nrows == 2
    assert g.values.tolist() == [[1, 2], [3, 4]]
    assert g.nodata == -9999


def test_nodata_sentinel_passthrough():
    g = read_ascii_grid(io.StringIO(make_text("1 -9999\n3 4\n")))
    assert g.is_nodata(0, 1)
    assert g.value_at(0, 1) is None
    assert g.value_at(0, 0) == 1.0


def test_missing_nodata_header_defaults():
    g = read_ascii_grid(io.StringIO(make_text("1 2\n3 4\n", nodata_line=None)))
    assert g.nodata == -9999.0


def test_wrong_cell_count():
    with pytest.raises(ParseError, match="expected 4 values"):
        read_ascii_grid(io.StringIO(make_text("1 2 3\n")))


def test_non_numeric_token_names_position():
    with pytest.raises(ParseError, match=r"line 7, column 2"):
        read_ascii_grid(io.StringIO(make_text("1 oops\n3 4\n")))


def test_missing_header_keyword():
    text = "ncols 2\nnrows 2\ncellsize 1\n1 2 3 4\n"
    with pytest.raises(ParseError, match="xllcorner"):
        read_ascii_grid(io.StringIO(text))


def test_header_case_insensitive_and_crlf():
    text = "NCOLS 2\r\nNrows 2\r\nXLLCORNER 5\r\nyllCorner 6\r\nCellSize 2\r\n1 2\r\n3 4\r\n"
    g = read_ascii_grid(io.StringIO(text))
    assert g.xll == 5 and g.yll == 6 and g.cellsize == 2


def test_leading_comment_lines_skipped():
    g = read_ascii_grid(io.StringIO("# provenance\n" + make_text("1 2\n3 4\n")))
    assert g.values[1, 1] == 4


def test_roundtrip_simple():
    g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[1, 2, 3, 4])
    assert read_ascii_grid(io.StringIO(dumps_ascii_grid(g))) == g


def test_roundtrip_one_by_one():
    g = Grid(ncols=1, nrows=1, xll=0, yll=0, cellsize=1, values=[7.25])
    text = dumps_ascii_grid(g)
    assert text.count("\n") == 7  # 6 header lines + 1 body row
    assert read_ascii_grid(io.StringIO(text)) == g


def test_roundtrip_nodata_token():
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1, -9999])
    text = dumps_ascii_grid(g)
    assert "-9999" in text.splitlines()[-1]
    assert read_ascii_grid(io.StringIO(text)) == g


def test_roundtrip_random_grids():
    # Exact round-trip must survive awkward decimals and mixed magnitudes.
    rng = np.random.default_rng(7)
    for _ in range(50):
        nrows = int(rng.integers(1, 8))
        ncols = int(rng.integers(1, 8))
        vals = rng.normal(0, 1, nrows * ncols) * 10.0 ** rng.integers(-8, 9)
        vals[rng.random(nrows * ncols) < 0.15] = -9999.0
        g = Grid(
            ncols=ncols,
            nrows=nrows,
            xll=float(rng.normal() * 1e5),
            yll=float(rng.normal() * 1e5),
            cellsize=float(rng.uniform(0.1, 100)),
            values=vals,
        )
        assert read_ascii_grid(io.StringIO(dumps_ascii_grid(g))) == g


def test_write_to_path(tmp_path):
    g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[1, 2, 3, 4])
    path = tmp_path / "g.asc"
    write_ascii_grid(g, path)
    assert read_ascii_grid(path) == g


def test_write_non_finite_names_first_cell(tmp_path):
    values = np.arange(12.0).reshape(3, 4)
    values[2, 0] = np.inf
    values[1, 2] = np.nan
    g = Grid(ncols=4, nrows=3, xll=0, yll=0, cellsize=1, values=values)
    path = tmp_path / "g.asc"
    with pytest.raises(NonFiniteGridError, match=r"value nan at row 1, column 2$") as exc:
        write_ascii_grid(g, path)
    assert isinstance(exc.value, DemqaError)
    assert not path.exists()
    g = Grid(ncols=1, nrows=1, xll=0, yll=0, cellsize=1, nodata=float("nan"), values=[1.0])
    with pytest.raises(NonFiniteGridError, match="nodata nan"):
        dumps_ascii_grid(g)


def test_cell_of_examples():
    g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[0, 0, 0, 0])
    assert cell_of(g, 0.5, 0.5) == (1, 0)
    assert cell_of(g, 1.5, 1.5) == (0, 1)
    assert cell_of(g, -0.1, 0.5) is None


def test_cell_of_outer_boundary_is_outside():
    g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[0, 0, 0, 0])
    assert cell_of(g, 2.0, 1.0) is None  # east edge
    assert cell_of(g, 1.0, 2.0) is None  # north edge
    assert cell_of(g, 0.0, 0.0) == (1, 0)  # south-west corner is inside


def test_cell_of_matches_footprint_scan():
    rng = np.random.default_rng(3)
    g = Grid(ncols=5, nrows=4, xll=-3.5, yll=12.25, cellsize=2.5,
             values=np.zeros(20))
    for _ in range(300):
        x = float(rng.uniform(g.xll - 3, g.xll + g.ncols * g.cellsize + 3))
        y = float(rng.uniform(g.yll - 3, g.yll + g.nrows * g.cellsize + 3))
        hit = None
        for r in range(g.nrows):
            for c in range(g.ncols):
                x0 = g.xll + c * g.cellsize
                y0 = g.yll + (g.nrows - 1 - r) * g.cellsize
                if x0 <= x < x0 + g.cellsize and y0 <= y < y0 + g.cellsize:
                    hit = (r, c)
        assert cell_of(g, x, y) == hit


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(ncols=0, nrows=2, xll=0, yll=0, cellsize=1, values=[])
    with pytest.raises(ValueError):
        Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=0, values=[1, 2, 3, 4])
    with pytest.raises(ValueError):
        Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[1, 2, 3])


def test_grid_values_read_only():
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1, 2])
    with pytest.raises(ValueError):
        g.values[0, 0] = 5


def test_multiband_georef_check():
    a = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1, 2])
    b = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=2, values=[1, 2])
    with pytest.raises(ValueError, match="band 2"):
        MultibandGrid(bands=[a, b])
    assert MultibandGrid(bands=[a, a]).n_bands == 2
