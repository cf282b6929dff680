"""``assess`` converts only the grid cells it reads, and still checks every token.

``read_ascii_grid(source, cells=...)`` converts only the named cells and
returns a grid that holds them alone: ``raster.values_at`` reads the
others as NaN. A block of plain decimals is checked by a byte
scan (``raster._scan``) and any other block is converted in full. The
full read is the oracle: ``assess`` through the windowed read must write
the bytes it writes through the full read, and fail with the same error.
"""

import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demqa.pipeline
from demqa import raster
from demqa.cli import CSV_NAMES, REPORT_NAME, main
from demqa.errors import ParseError
from demqa.landcover import read_legend_csv
from demqa.raster import Grid, cells_of, read_ascii_grid, values_at
from demqa.sample import (
    EXTRACTION_METHODS,
    SampleTable,
    attach_class,
    attach_derivatives,
    cells_near,
    extract_coincident,
    read_gcp_csv,
)

PLAIN = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")


def every_cell(grid):
    """The value of each cell of ``grid`` through the lookup, in row-major order."""
    return values_at(grid, *np.divmod(np.arange(grid.nrows * grid.ncols), grid.ncols))


def full_read_inputs(cfg):
    """``pipeline.read_inputs`` as it was before the windowed read."""
    return (
        read_ascii_grid(cfg.dem),
        read_gcp_csv(cfg.gcps),
        read_ascii_grid(cfg.classmap) if cfg.classmap else None,
        read_legend_csv(cfg.legend) if cfg.legend else {},
    )


# ---------------------------------------------------------------------------
# The byte scan accepts exactly the texts whose tokens are plain decimals of
# at most _MAX_TOKEN characters, split by space, tab, LF or CR.


def scan_tokens(text):
    spans = raster._scan(text)
    return None if spans is None else [text[a:b] for a, b in zip(*(s.tolist() for s in spans))]


def plain_text(text):
    tokens = text.split()
    return (
        set(text) <= set("0123456789.+- \t\n\r")
        and all(PLAIN.fullmatch(t) and len(t) <= raster._MAX_TOKEN for t in tokens)
    )


def check_scan(text):
    tokens = scan_tokens(text)
    assert (tokens is not None) == plain_text(text), repr(text)
    if tokens is not None:
        assert tokens == text.split(), repr(text)
        assert all(math.isfinite(float(t)) for t in tokens), repr(text)


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.text(alphabet="0123456789.+-eE_in \t\n\r\x0b\x0c", max_size=40))
def test_scan_matches_split_and_float(text):
    check_scan(text)


def test_scan_on_seeded_random_texts():
    # denser in the characters that make plain decimals than the hypothesis
    # alphabet, so that most texts are accepted or fail on one rule only
    rng = np.random.default_rng(9)
    alphabet = np.array(list("0123456789" * 3 + "..+-  \t\n\reEi_\x0b"))
    for _ in range(20_000):
        check_scan("".join(rng.choice(alphabet, int(rng.integers(0, 30)))))


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("1 -2 +3.5 .5 5. -.25 +0.", True),
        ("1" * raster._MAX_TOKEN, True),
        ("1" * (raster._MAX_TOKEN + 1), False),  # "9" * 309 would be inf
        ("1.2.3", False),
        ("1..2", False),
        ("+", False),
        ("-.", False),
        (".", False),
        ("1-2", False),
        ("--1", False),
        ("1e5", False),
        ("nan", False),
        ("1\x0b2", False),  # whitespace to split(), "other" to the scan
        ("1 2", False),  # not ASCII
        ("", True),
        (" \n\r\t", True),
    ],
)
def test_scan_examples(text, accepted):
    assert (raster._scan(text) is not None) == accepted
    check_scan(text)


# ---------------------------------------------------------------------------
# read_ascii_grid with cells


def random_grid(rng, nrows, ncols, cellsize=0.5, xll=100.0, yll=200.0):
    rows, cols = np.mgrid[0:nrows, 0:ncols]
    values = 300.0 + 0.7 * cols - 0.4 * rows + rng.normal(0.0, 2.0, (nrows, ncols))
    for _ in range(3):  # nodata patches
        r, c = int(rng.integers(0, nrows - 2)), int(rng.integers(0, ncols - 2))
        values[r : r + 3, c : c + 4] = -9999.0
    values[rng.random((nrows, ncols)) < 0.03] = -9999.0
    return Grid(ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=cellsize, values=values)


def token(rng, v):
    """``v`` as a plain decimal, in exponent form or with a plus sign: the
    exponents send their blocks to the full conversion."""
    form = rng.random()
    if v == -9999.0:
        return "-9999"
    if form < 0.05:
        return f"{v:.17e}"
    if form < 0.1:
        return "+" + repr(v) if v >= 0 else repr(v)
    return repr(v)


def grid_text(grid, rng, layout="rows", end="\n"):
    tokens = [token(rng, float(v)) for v in grid.values.ravel()]
    lines = [f"ncols {grid.ncols}", f"nrows {grid.nrows}", f"xllcorner {grid.xll!r}",
             f"yllcorner {grid.yll!r}", f"cellsize {grid.cellsize!r}", "NODATA_value -9999"]
    if layout == "one_line":
        lines.append(" ".join(tokens))
    elif layout == "ragged":
        k = 0
        while k < len(tokens):
            n = int(rng.integers(1, 2 * grid.ncols))
            lines.append("\t".join(tokens[k : k + n]))
            k += n
    else:
        lines += [" ".join(tokens[k : k + grid.ncols]) for k in range(0, len(tokens), grid.ncols)]
    return end.join(lines) + end


def hostile_points(rng, grid, n_inside=25):
    """Points inside, on the edges and corners, up to one cell outside, and
    far off the grid (huge, infinite and NaN coordinates)."""
    x0, y0, cs = grid.xll, grid.yll, grid.cellsize
    x1, y1 = x0 + grid.ncols * cs, y0 + grid.nrows * cs
    xs = list(rng.uniform(x0, x1, n_inside))
    ys = list(rng.uniform(y0, y1, n_inside))
    for x in (x0, x1, x1 - 1e-9, x0 - cs, x0 - 0.5 * cs, x1 + 0.99 * cs, x0 + 0.5 * cs):
        for y in (y0, y1, y0 + 1e-9, y1 + 0.5 * cs, y0 - cs, y0 + 0.5 * cs):
            xs.append(x)
            ys.append(y)
    xs += [1.7e308, -1.7e308, 0.5 * (x0 + x1), math.nan, math.inf, x0]
    ys += [0.5 * (y0 + y1), 0.5 * (y0 + y1), -1.7e308, y0, y0, -math.inf]
    return np.array(xs), np.array(ys)


@pytest.fixture
def windowed(monkeypatch):
    """Every named cell list takes the windowed read, however long."""
    monkeypatch.setattr(raster, "_DENSE_FRACTION", 1.0)


@pytest.mark.parametrize("layout", ["rows", "one_line", "ragged"])
@pytest.mark.parametrize("method", EXTRACTION_METHODS)
def test_stages_read_the_full_reads_values_from_a_windowed_grid(windowed, method, layout):
    rng = np.random.default_rng(len(layout) + 7 * len(method))
    dem = random_grid(rng, 23, 31)
    classes = Grid(ncols=17, nrows=19, xll=99.3, yll=201.1, cellsize=0.8,
                   values=rng.choice([1.0, 2.0, 3.0, -9999.0], size=17 * 19))
    x, y = hostile_points(rng, dem)
    table = SampleTable(ids=[f"p{k}" for k in range(x.size)], x=x, y=y,
                        h_ref=np.full(x.size, 300.0))
    dem_text, class_text = grid_text(dem, rng, layout), grid_text(classes, rng, layout)
    got = {}
    for side in ("full", "windowed"):
        win = side == "windowed"
        d = read_ascii_grid(io.StringIO(dem_text),
                            cells=(lambda g: cells_near(g, x, y, 1)) if win else None)
        c = read_ascii_grid(io.StringIO(class_text),
                            cells=(lambda g: cells_near(g, x, y, 0)) if win else None)
        assert np.isnan(every_cell(d)).any() == win
        t = attach_derivatives(d, attach_class(c, extract_coincident(d, table, method)))
        got[side] = [getattr(t, name).tobytes() for name in
                     ("h_dem", "delta_h", "class_code", "slope_deg", "aspect_deg")]
    assert got["windowed"] == got["full"]


def mask_cells_near(grid, x, y, reach):
    """``cells_near`` as it was: a grid-sized mask of the windows' cells."""
    _, rows, cols = cells_of(grid, x, y)
    read = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    for dr in range(-reach, reach + 1):
        r = np.clip(rows + dr, 0, grid.nrows - 1)
        for dc in range(-reach, reach + 1):
            read[r, np.clip(cols + dc, 0, grid.ncols - 1)] = True
    return np.flatnonzero(read)


@pytest.mark.parametrize("shape", [(23, 31), (1, 9), (9, 1), (1, 1)])
def test_cells_near_matches_a_grid_mask(shape):
    rng = np.random.default_rng(sum(shape))
    nrows, ncols = shape
    grid = Grid(ncols=ncols, nrows=nrows, xll=100.0, yll=200.0, cellsize=0.5,
                values=np.zeros(nrows * ncols))
    x, y = hostile_points(rng, grid)
    for reach in (0, 1, 2):
        for k in (x.size, 1, 0):  # every point, one, none
            got = cells_near(grid, x[:k], y[:k], reach)
            assert got.dtype == np.int64
            assert got.tolist() == mask_cells_near(grid, x[:k], y[:k], reach).tolist()


def test_named_cells_hold_the_full_reads_values_and_the_rest_nan(windowed):
    rng = np.random.default_rng(4)
    grid = random_grid(rng, 30, 40)
    text = grid_text(grid, rng)
    cells = np.unique(rng.integers(0, grid.values.size, 50))
    seen = []

    def name_cells(g):
        seen.append(g)
        return cells

    got = read_ascii_grid(io.StringIO(text), cells=name_cells)
    full = read_ascii_grid(io.StringIO(text))
    assert full == grid
    (unread,) = seen
    assert unread.same_georef(grid) and unread.nodata == grid.nodata
    assert unread.cells.size == 0 and np.isnan(every_cell(unread)).all()
    assert got.cells.tolist() == cells.tolist()
    flat = every_cell(got)
    assert flat[cells].tobytes() == full.values.ravel()[cells].tobytes()
    assert np.isnan(np.delete(flat, cells)).all()


def test_windowed_grid_holds_its_named_cells_alone():
    geo = dict(ncols=3, nrows=2, xll=0.0, yll=0.0, cellsize=1.0)
    windowed = Grid(**geo, values=[2.0, 6.0], cells=[1, 5])
    got = values_at(windowed, np.array([[0, 0, 0], [1, 1, 1]]), np.array([0, 1, 2]))
    assert got.shape == (2, 3)
    assert got[0, 1] == 2.0 and got[1, 2] == 6.0 and np.isnan(got).sum() == 4
    assert windowed.value_at(0, 1) == 2.0 and math.isnan(windowed.value_at(0, 0))
    assert np.isnan(values_at(Grid(**geo, values=(), cells=()), 1, 2))
    assert windowed == Grid(**geo, values=[2.0, 6.0], cells=[1, 5])
    assert windowed != Grid(**geo, values=[2.0, 6.0], cells=[1, 4])
    assert windowed != Grid(**geo, values=[0.0, 2.0, 0.0, 0.0, 0.0, 6.0])
    with pytest.raises(ValueError, match="^expected 2 values, got 3$"):
        Grid(**geo, values=[1.0, 2.0, 3.0], cells=[0, 1])


def test_many_named_cells_read_every_cell():
    rng = np.random.default_rng(5)
    grid = random_grid(rng, 16, 16)
    text = grid_text(grid, rng)
    few = np.arange(0, 256, 9)  # 29 of 256: under the fraction
    many = np.arange(0, 256, 7)  # 37 of 256: over it
    assert few.size <= raster._DENSE_FRACTION * 256 < many.size
    assert np.isnan(every_cell(read_ascii_grid(io.StringIO(text), cells=lambda g: few))).any()
    assert read_ascii_grid(io.StringIO(text), cells=lambda g: many) == grid


@pytest.mark.parametrize("cells", [None, (0, 99)])
@pytest.mark.parametrize("block_chars", [1, 16, 100])
def test_bad_token_in_a_long_line_names_its_line_and_column(monkeypatch, cells, block_chars):
    # the body's 100 values on one line, cut into pieces of about
    # block_chars characters; one more line after it
    monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(raster, "_DENSE_FRACTION", 1.0)
    header = "ncols 10\nnrows 11\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    tokens = [f"{k}.25" for k in range(100)]
    good = header + " ".join(tokens) + "\n" + " ".join(tokens[:10]) + "\n"
    name = None if cells is None else (lambda g: cells)
    assert values_at(read_ascii_grid(io.StringIO(good), cells=name), 0, 0) == 0.25
    for column in (1, 37, 100):
        bad = list(tokens)
        bad[column - 1] = "1.2.3"
        text = header + " ".join(bad) + "\n" + " ".join(tokens[:10]) + "\n"
        with pytest.raises(ParseError) as exc:
            read_ascii_grid(io.StringIO(text), cells=name)
        assert str(exc.value) == f"non-numeric token '1.2.3' (line 6, column {column})"
    text = header + " ".join(tokens) + "\n" + " ".join(tokens[:9]) + " inf\n"
    with pytest.raises(ParseError, match=r"non-finite token 'inf' \(line 7, column 10\)$"):
        read_ascii_grid(io.StringIO(text), cells=name)


@pytest.mark.parametrize("windowed_read", [False, True])
def test_one_line_body_is_read_in_bounded_pieces(tmp_path, windowed_read):
    # the grid_heavy DEM's size (1000 x 1000 values of ~17 digits, 18 MB)
    # on one line: the line itself and the 8 MB array, not a token list of
    # the whole line (184 MB before the line was cut into pieces); a
    # windowed read holds its 1000 named values and one piece, not the 8 MB
    # array (1.6 MB on 2 CPUs and 2.9 MB on one, against 9.6 MB with it)
    rng = np.random.default_rng(11)
    values = rng.uniform(200.0, 300.0, 1_000_000)
    path = tmp_path / "one_line.asc"
    with open(path, "w", encoding="utf-8") as f:
        f.write("ncols 1000\nnrows 1000\nxllcorner 0\nyllcorner 0\ncellsize 10\n")
        f.write(" ".join(map(repr, values.tolist())) + "\n")
    cells = (lambda g: np.arange(0, 1_000_000, 1001)) if windowed_read else None
    tracemalloc.start()
    try:
        got = read_ascii_grid(path, cells=cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    flat = every_cell(got)
    if windowed_read:
        assert flat[::1001].tobytes() == values[::1001].tobytes()
    else:
        assert flat.tobytes() == values.tobytes()
    assert peak < (5e6 if windowed_read else 11e6), peak


# ---------------------------------------------------------------------------
# assess: the windowed read against the full read, byte for byte


def write_scene(tmp_path, seed, layout="rows", end="\n"):
    rng = np.random.default_rng(seed)
    dem = random_grid(rng, 41, 53)
    (tmp_path / "dem.asc").write_text(grid_text(dem, rng, layout, end), encoding="utf-8",
                                      newline="")
    classes = Grid(ncols=37, nrows=31, xll=99.7, yll=199.1, cellsize=0.75,
                   values=rng.choice([1.0, 2.0, 3.0, 5.0, -9999.0], size=37 * 31))
    (tmp_path / "classes.asc").write_text(grid_text(classes, rng, layout, end),
                                          encoding="utf-8", newline="")
    (tmp_path / "legend.csv").write_text("class_code,label\n1,forest\n2,grass\n5,water\n",
                                         encoding="utf-8")
    x, y = hostile_points(rng, dem)
    keep = np.isfinite(x) & np.isfinite(y)  # the GCP reader rejects the others
    x, y = x[keep], y[keep]
    inside, rows, cols = raster.cells_of(dem, x, y)
    h = np.full(x.size, 305.0)
    h[inside] = np.where(dem.values[rows, cols] == -9999.0, 305.0, dem.values[rows, cols])
    h += rng.normal(0.0, 0.5, x.size)
    with open(tmp_path / "gcps.csv", "w", encoding="utf-8", newline="") as f:
        f.write("id,x,y,h\n")
        for k, (xk, yk, hk) in enumerate(zip(x.tolist(), y.tolist(), h.tolist())):
            f.write(f"g{k},{xk!r},{yk!r},{hk!r}\n")
    return dem, x, y


CASES = {
    "nearest": ["--classmap", "classes.asc", "--legend", "legend.csv",
                "--exclude-classes", "5", "--n-perm", "99", "--seed", "3"],
    "bilinear": ["--method", "bilinear", "--classmap", "classes.asc",
                 "--scheme", "fixed_band", "--threshold", "5", "--row-standardize",
                 "--assumption", "normality"],
    "bilinear_no_classes": ["--method", "bilinear", "--z-factor", "0.5"],
}


def run_both(tmp_path, monkeypatch, argv):
    """Exit codes of ``demqa assess`` through the windowed read and through
    the full read; each writes to "out" (the report echoes it), moved to
    out_w and out_f afterwards."""
    got = {}
    for side in ("w", "f"):
        with monkeypatch.context() as m:
            if side == "f":
                m.setattr(demqa.pipeline, "read_inputs", full_read_inputs)
            got[side] = main(["assess", "--dem", "dem.asc", "--gcps", "gcps.csv", *argv,
                              "--out", "out"])
        (tmp_path / "out").rename(tmp_path / f"out_{side}")
    return got


@pytest.mark.parametrize("blocks", ["default", "line_blocks"])
@pytest.mark.parametrize("layout", ["rows", "one_line", "ragged"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_assess_writes_the_full_reads_bytes(tmp_path, monkeypatch, windowed, case, layout,
                                            blocks):
    write_scene(tmp_path, seed=len(case) + len(layout), layout=layout,
                end="\r\n" if blocks == "default" else "\n")
    monkeypatch.chdir(tmp_path)
    if blocks == "line_blocks":
        # one line per block, and pieces of one token each: cut inside
        # every line that holds more than one
        monkeypatch.setattr(raster, "_BLOCK_CHARS", 1)
    grids = []
    extract = demqa.pipeline.extract
    monkeypatch.setattr(demqa.pipeline, "extract",
                        lambda cfg, dem, points: grids.append(dem) or extract(cfg, dem, points))
    assert run_both(tmp_path, monkeypatch, CASES[case]) == {"w": 0, "f": 0}
    windowed_dem, full_dem = grids
    assert np.isnan(every_cell(windowed_dem)).any() and not np.isnan(every_cell(full_dem)).any()
    for name in (REPORT_NAME, *CSV_NAMES):
        assert (tmp_path / "out_w" / name).read_bytes() == \
            (tmp_path / "out_f" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# assess: every token is still checked, and the errors keep their order


def replace_cell(path, flat_index, ncols, text, header_lines=6):
    lines = path.read_text(encoding="utf-8").split("\n")
    row, col = divmod(flat_index, ncols)
    parts = lines[header_lines + row].split(" ")
    parts[col] = text
    lines[header_lines + row] = " ".join(parts)
    path.write_text("\n".join(lines), encoding="utf-8")
    return header_lines + row + 1, col + 1  # file line and column


def far_cell(grid, x, y):
    """A cell whose value assess never reads."""
    return int(np.setdiff1d(np.arange(grid.values.size), cells_near(grid, x, y, 1))[-1])


def assess_errors(tmp_path, monkeypatch, capsys, argv=()):
    """(exit code, stderr) through the windowed read and through the full read."""
    out = []
    for full in (False, True):
        with monkeypatch.context() as m:
            if full:
                m.setattr(demqa.pipeline, "read_inputs", full_read_inputs)
            code = main(["assess", "--dem", "dem.asc", "--gcps", "gcps.csv", *argv,
                         "--out", "out"])
        out.append((code, capsys.readouterr().err))
    assert out[0] == out[1]
    return out[0]


def test_bad_token_in_an_unread_cell_exits_3(tmp_path, monkeypatch, capsys, windowed):
    dem, x, y = write_scene(tmp_path, seed=3)
    monkeypatch.chdir(tmp_path)
    line, column = replace_cell(tmp_path / "dem.asc", far_cell(dem, x, y), dem.ncols, "1.2.3")
    code, err = assess_errors(tmp_path, monkeypatch, capsys)
    assert code == 3
    assert err == (f"parse error [assess]: non-numeric token '1.2.3' "
                   f"(line {line}, column {column})\n")


def test_wrong_count_wins_over_a_bad_token(tmp_path, monkeypatch, capsys, windowed):
    dem, x, y = write_scene(tmp_path, seed=4)
    monkeypatch.chdir(tmp_path)
    replace_cell(tmp_path / "dem.asc", far_cell(dem, x, y), dem.ncols, "oops")
    text = (tmp_path / "dem.asc").read_text(encoding="utf-8")
    (tmp_path / "dem.asc").write_text(text.rstrip("\n") + " 7\n", encoding="utf-8")
    code, err = assess_errors(tmp_path, monkeypatch, capsys)
    assert (code, err) == (3, f"parse error [assess]: expected {dem.values.size} values, "
                              f"got {dem.values.size + 1}\n")


@pytest.mark.parametrize("dem_defect", ["body", "header", "none"])
@pytest.mark.parametrize("gcp_defect", ["bad_row", "missing"])
def test_dem_error_wins_over_gcp_error(tmp_path, monkeypatch, capsys, windowed, dem_defect,
                                       gcp_defect):
    dem, x, y = write_scene(tmp_path, seed=5)
    monkeypatch.chdir(tmp_path)
    if dem_defect == "body":
        line, column = replace_cell(tmp_path / "dem.asc", far_cell(dem, x, y), dem.ncols, "x")
        want = f"parse error [assess]: non-numeric token 'x' (line {line}, column {column})"
    elif dem_defect == "header":
        text = (tmp_path / "dem.asc").read_text(encoding="utf-8")
        (tmp_path / "dem.asc").write_text(text.replace("cellsize 0.5", "cellsize -1"),
                                          encoding="utf-8")
        want = "parse error [assess]: cellsize must be positive (line 5, column 2)"
    if gcp_defect == "bad_row":
        with open(tmp_path / "gcps.csv", "a", encoding="utf-8") as f:
            f.write("bad,1,nan,3\n")
        if dem_defect == "none":
            want = "parse error [assess]: non-finite value 'nan'"
    else:
        (tmp_path / "gcps.csv").unlink()
        if dem_defect == "none":
            want = "i/o error [assess]:"
    code, err = assess_errors(tmp_path, monkeypatch, capsys)
    assert code == 3
    assert err.startswith(want), err


def test_class_map_error_wins_over_legend_error(tmp_path, monkeypatch, capsys, windowed):
    write_scene(tmp_path, seed=6)
    monkeypatch.chdir(tmp_path)
    classes = read_ascii_grid(tmp_path / "classes.asc")
    gcps = read_gcp_csv(tmp_path / "gcps.csv")
    unread = np.setdiff1d(np.arange(classes.values.size), cells_near(classes, gcps.x, gcps.y, 0))
    line, column = replace_cell(tmp_path / "classes.asc", int(unread[0]), classes.ncols, "1e999")
    (tmp_path / "legend.csv").write_text("class_code,label\nx,forest\n", encoding="utf-8")
    code, err = assess_errors(tmp_path, monkeypatch, capsys,
                              ["--classmap", "classes.asc", "--legend", "legend.csv"])
    assert (code, err) == (3, f"parse error [assess]: non-finite token '1e999' "
                              f"(line {line}, column {column})\n")
