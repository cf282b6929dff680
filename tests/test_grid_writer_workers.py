"""Grid text written in row strips over forked workers: the same bytes at
any worker count, no fork for small grids, and no child process left
behind."""

import io
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import demqa._workers
import demqa.raster
from demqa.cli import main
from demqa.errors import NonFiniteGridError
from demqa.raster import Grid, read_ascii_grid, write_ascii_grid
from demqa.synth import make_smoothed_noise
from demqa.terrain import slope_aspect


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def edge_grid(nrows=7, ncols=5):
    """Values that exercise every rule of the number formatter."""
    rng = np.random.default_rng(17)
    values = rng.uniform(-500.0, 500.0, (nrows, ncols))
    special = [-0.0, 0.0, 1e16, -1e16, 9999999999999998.0, 1e17, 123456789012345678.0,
               -9999.0, 5.0, 1e-300, 2.5e-5, np.nextafter(1.0, 2.0)]
    flat = values.ravel()
    flat[: min(len(special), flat.size)] = special[: flat.size]
    values[-1, -2:] = -9999.0  # nodata cells
    return Grid(ncols=ncols, nrows=nrows, xll=-0.0, yll=1e16, cellsize=0.5, values=values)


def text_with(monkeypatch, workers, grid, dest, comment):
    monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", grid.ncols)  # blocks of one row
    write_ascii_grid(grid, dest, comment=comment)
    assert_no_child_left()
    return dest.getvalue().encode() if isinstance(dest, io.StringIO) else dest.read_bytes()


@pytest.mark.parametrize("shape", [(7, 5), (2, 4), (1, 3)], ids=["7x5", "2x4", "1x3"])
@pytest.mark.parametrize("to", ["path", "stream"])
def test_bytes_do_not_depend_on_workers(monkeypatch, tmp_path, shape, to):
    # 2 and 1 rows: fewer rows than workers
    grid = edge_grid(*shape)
    comment = "generated by a test\nsecond line"
    texts = []
    for workers in (1, 2, 3):
        dest = tmp_path / f"w{workers}.asc" if to == "path" else io.StringIO()
        texts.append(text_with(monkeypatch, workers, grid, dest, comment))
    assert texts[0] == texts[1] == texts[2]
    lines = texts[0].decode().splitlines()
    assert lines[:2] == ["# generated by a test", "# second line"]
    assert "xllcorner 0" in lines and "yllcorner 1e+16" in lines
    if shape == (7, 5):
        assert lines[8].split() == ["0", "0", "1e+16", "-1e+16", "9999999999999998"]
        assert lines[9].split()[:3] == ["1e+17", "1.2345678901234568e+17", "-9999"]
    assert read_ascii_grid(io.StringIO(texts[0].decode())) == grid


def test_rows_split_over_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(demqa._workers, "_WORKERS", 3)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 5)  # blocks of one row
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    write_ascii_grid(edge_grid(7, 5), tmp_path / "g.asc")
    assert len(forks) == 2
    write_ascii_grid(edge_grid(2, 5), tmp_path / "g.asc")
    assert len(forks) == 3  # two rows: two workers
    assert_no_child_left()


def test_grid_below_the_threshold_never_forks(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    cells = 2 * demqa.raster._WRITE_CELLS  # the least cells a writing worker formats
    assert demqa._workers._worker_count(2, 2 * cells, cells) == 2

    def no_fork():
        raise AssertionError("os.fork called")

    ncols = 64
    nrows = (2 * cells - 1) // ncols
    grid = Grid(ncols=ncols, nrows=nrows, xll=0, yll=0, cellsize=1,
                values=np.arange(nrows * ncols) / 7)
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        write_ascii_grid(grid, tmp_path / "g.asc")
    assert read_ascii_grid(tmp_path / "g.asc") == grid  # a body this size is read in parts


def test_failing_parent_kills_and_reaps_its_writer_children(monkeypatch, tmp_path):
    monkeypatch.setattr(demqa._workers, "_WORKERS", 3)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 5)  # blocks of one row
    parent = os.getpid()
    text = demqa.raster._grid_text

    def grid_text(values):
        if os.getpid() == parent and np.size(values) > 1:  # body rows, not a header value
            raise KeyboardInterrupt
        if os.getpid() != parent:
            time.sleep(60)
        return text(values)

    monkeypatch.setattr(demqa.raster, "_grid_text", grid_text)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_ascii_grid(edge_grid(7, 5), tmp_path / "g.asc")
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_failing_writer_child_exits_3(monkeypatch, tmp_path, capfd):
    monkeypatch.setattr(demqa._workers, "_WORKERS", 2)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 4)  # blocks of one row
    parent = os.getpid()
    text = demqa.raster._grid_text

    def grid_text(values):
        if os.getpid() != parent:
            raise ValueError("formatter broke")
        return text(values)

    monkeypatch.setattr(demqa.raster, "_grid_text", grid_text)
    out = tmp_path / "g.asc"
    argv = ["synth", "--kind", "plane", "--nrows", "6", "--ncols", "4", "--out", str(out)]
    for before in (None, b"an earlier grid\n"):
        if before is not None:
            out.write_bytes(before)
        assert main(argv) == 3
        assert_no_child_left()
        err = capfd.readouterr().err
        assert err == ("worker for rows 3..5: ValueError('formatter broke')\n"
                       "i/o error [synth]: worker for rows 3..5 exited with status 1 after "
                       "0 bytes\n")
        assert "Traceback" not in err
        # no partial grid and no temporary file; an earlier grid keeps its bytes
        assert os.listdir(tmp_path) == ([] if before is None else ["g.asc"])
        assert before is None or out.read_bytes() == before


def test_computed_rows_are_held_a_block_at_a_time(monkeypatch, tmp_path):
    # Horn's ~16 temporaries of a default 32,768-cell block (about 4.2 MB)
    # outweigh this DEM's 2.88 MB, so the blocks here are 4,096 cells: the
    # peak follows the block, not the grid
    monkeypatch.setattr(demqa._workers, "_WORKERS", 1)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 1 << 12)
    dem = make_smoothed_noise(5.0, 3, 600, 600, seed=7)
    tracemalloc.start()
    try:
        write_ascii_grid(dem, tmp_path / "blocks.asc",
                         rows=lambda lo, hi: slope_aspect(dem, lo, hi).slope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dem.values.nbytes / 4
    write_ascii_grid(replace(dem, values=slope_aspect(dem, 0, dem.nrows).slope),
                     tmp_path / "whole.asc")
    assert (tmp_path / "blocks.asc").read_bytes() == (tmp_path / "whole.asc").read_bytes()


def several_with(monkeypatch, workers, dem, dests, parts_at_least=1):
    """Write slope and aspect of ``dem`` with one Horn pass to ``dests``
    (two paths or two streams); return their bytes."""
    monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
    bounds = record_bounds(monkeypatch)
    write_ascii_grid(dem, dests, comment="two outputs",
                     rows=lambda lo, hi: slope_aspect(dem, lo, hi))
    assert_no_child_left()
    assert len(bounds) == 1 and len(bounds[0]) - 1 >= parts_at_least
    return [d.getvalue().encode() if isinstance(d, io.StringIO) else d.read_bytes() for d in dests]


def record_bounds(monkeypatch):
    """The list to which each of the writer's ``_map_parts`` calls appends
    its part bounds."""
    bounds = []
    map_parts = demqa.raster._map_parts
    monkeypatch.setattr(demqa.raster, "_map_parts", lambda part, outs, b, *rest: (
        bounds.append(b) or map_parts(part, outs, b, *rest)))
    return bounds


@pytest.mark.parametrize("to", ["path", "stream"])
@pytest.mark.parametrize("part_cells", [None, 100], ids=["one_round", "parts"])
def test_several_outputs_give_the_bytes_of_single_writes(monkeypatch, tmp_path, to, part_cells):
    dem = make_smoothed_noise(5.0, 2, 23, 17, seed=5)
    dem.values.flags.writeable = True
    dem.values[4, 6] = dem.nodata
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 40)  # blocks of 2 rows
    if part_cells is not None:  # strips of 2 rows of both outputs
        monkeypatch.setattr(demqa.raster, "_PART_CELLS", part_cells)
    singles = []
    for k in range(2):
        dest = io.StringIO()
        write_ascii_grid(dem, dest, comment="two outputs",
                         rows=lambda lo, hi, k=k: slope_aspect(dem, lo, hi)[k])
        singles.append(dest.getvalue().encode())
    for workers in (1, 2, 3):
        dests = ([tmp_path / f"s{workers}.asc", tmp_path / f"a{workers}.asc"] if to == "path"
                 else [io.StringIO(), io.StringIO()])
        parts = workers if part_cells is None else 12
        assert several_with(monkeypatch, workers, dem, dests, parts) == singles
    # a list of one destination takes a list of one array
    one = io.StringIO()
    write_ascii_grid(dem, [one], comment="two outputs", rows=lambda lo, hi: [dem.values[lo:hi]])
    plain = io.StringIO()
    write_ascii_grid(dem, plain, comment="two outputs")
    assert one.getvalue() == plain.getvalue()


def forty_rows():
    return Grid(ncols=10, nrows=40, xll=0, yll=0, cellsize=1, values=np.arange(400.0) / 3)


def test_parts_bound_what_a_worker_holds(monkeypatch, tmp_path):
    # 40 rows of 10 cells, two outputs, two workers, at most 100 cells a
    # part: 5 rows each, so eight 5-row strips
    monkeypatch.setattr(demqa._workers, "_WORKERS", 2)
    monkeypatch.setattr(demqa.raster, "_PART_CELLS", 100)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 50)  # blocks of 5 rows
    bounds = record_bounds(monkeypatch)
    write_ascii_grid(forty_rows(), [tmp_path / "a.asc", tmp_path / "b.asc"])
    assert bounds == [list(range(0, 41, 5))]
    assert read_ascii_grid(tmp_path / "a.asc") == read_ascii_grid(tmp_path / "b.asc")
    assert read_ascii_grid(tmp_path / "a.asc") == forty_rows()


def test_strips_are_cut_between_blocks(monkeypatch, tmp_path):
    # 20 rows of 4 cells in 7 blocks of 3 rows (the last of 2), at most 30
    # cells a strip: strips of whole blocks, 2 at most, each block computed once
    monkeypatch.setattr(demqa._workers, "_WORKERS", 1)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 12)
    monkeypatch.setattr(demqa.raster, "_PART_CELLS", 30)
    grid = Grid(ncols=4, nrows=20, xll=0, yll=0, cellsize=1, values=np.arange(80.0) / 7)
    bounds, asked = record_bounds(monkeypatch), []
    write_ascii_grid(grid, tmp_path / "g.asc",
                     rows=lambda lo, hi: asked.append((lo, hi)) or grid.values[lo:hi])
    assert bounds == [[0, 3, 9, 15, 20]]
    assert asked == [(lo, min(lo + 3, 20)) for lo in range(0, 20, 3)]
    assert read_ascii_grid(tmp_path / "g.asc") == grid


@pytest.mark.parametrize("workers", [2, 3])
def test_at_most_one_child_per_worker_is_alive(monkeypatch, tmp_path, workers):
    # eight strips: this process writes the first while workers - 1
    # children run, then each strip is forked as a child ahead of it is reaped
    monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
    monkeypatch.setattr(demqa.raster, "_PART_CELLS", 50)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 50)  # blocks of 5 rows
    alive, most, forked = [0], [0], []
    fork_part, reap = demqa._workers._fork_part, demqa._workers._reap

    def counted_fork(part, lo, hi, *rest):
        child = fork_part(part, lo, hi, *rest)
        forked.append(lo)
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        return child

    def counted_reap(*args, **kwargs):
        alive[0] -= 1
        return reap(*args, **kwargs)

    monkeypatch.setattr(demqa._workers, "_fork_part", counted_fork)
    monkeypatch.setattr(demqa._workers, "_reap", counted_reap)
    write_ascii_grid(forty_rows(), tmp_path / "g.asc")
    assert_no_child_left()
    assert forked == list(range(5, 40, 5)) and alive == [0] and most == [workers]
    assert read_ascii_grid(tmp_path / "g.asc") == forty_rows()


def test_a_strip_that_raises_inside_the_window_raises_here(monkeypatch, tmp_path, capfd):
    # two workers and eight strips: the child of rows 20..24 fails while the
    # child of rows 25..29 runs; the error is the one a serial run raises
    monkeypatch.setattr(demqa._workers, "_WORKERS", 2)
    monkeypatch.setattr(demqa.raster, "_PART_CELLS", 50)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 50)  # blocks of 5 rows
    grid = forty_rows()
    forked = []
    fork_part = demqa._workers._fork_part
    monkeypatch.setattr(demqa._workers, "_fork_part",
                        lambda part, lo, *rest: forked.append(lo) or fork_part(part, lo, *rest))

    def rows(lo, hi):
        if lo >= 20:
            raise ValueError(f"no slope at row {lo}")
        return grid.values[lo:hi]

    with pytest.raises(ValueError, match="^no slope at row 20$"):
        write_ascii_grid(grid, tmp_path / "g.asc", rows=rows)
    assert forked == [5, 10, 15, 20, 25]
    assert_no_child_left()
    assert os.listdir(tmp_path) == []  # no grid and no temporary file
    assert capfd.readouterr().err == ""


def test_one_worker_never_forks(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(demqa._workers, "_WORKERS", 1)
    monkeypatch.setattr(demqa.raster, "_PART_CELLS", 50)
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 50)  # blocks of 5 rows
    monkeypatch.setattr(os, "fork", no_fork)
    bounds = record_bounds(monkeypatch)
    write_ascii_grid(forty_rows(), tmp_path / "g.asc")
    assert bounds == [list(range(0, 41, 5))]  # eight strips, all written here
    assert read_ascii_grid(tmp_path / "g.asc") == forty_rows()


@pytest.mark.parametrize("aspect_cell, named", [
    ((3, 0), "nan at row 5, column 1"),  # in the slope's block: checked after the slope
    ((1, 2), "inf at row 1, column 2"),  # in a block above it: named first
], ids=["same_block", "block_above"])
def test_first_output_is_checked_first_within_a_block(monkeypatch, tmp_path, aspect_cell, named):
    # blocks of 3 rows; three workers cut the strips at rows 3 and 6, so
    # the block of rows 3-5 is one strip's: the cell named is the same
    grid = Grid(ncols=4, nrows=12, xll=0, yll=0, cellsize=1, values=np.zeros((12, 4)))
    slope, aspect = np.ones((12, 4)), np.ones((12, 4))
    slope[5, 1] = np.nan
    aspect[aspect_cell] = np.nan if aspect_cell == (3, 0) else np.inf
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 12)
    for workers in (1, 2, 3):
        monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
        with pytest.raises(NonFiniteGridError) as exc:
            write_ascii_grid(grid, [tmp_path / "s.asc", tmp_path / "a.asc"],
                             rows=lambda lo, hi: (slope[lo:hi], aspect[lo:hi]))
        assert_no_child_left()
        assert str(exc.value) == f"cannot write non-finite value {named}"
        assert os.listdir(tmp_path) == []  # neither file, and no temporary file


def test_terrain_names_a_nan_aspect_in_a_block_above_the_first_nan_slope(
        monkeypatch, tmp_path, capfd):
    # rows of 1e308, -1e308, 1e308 at 7-9: the aspect is NaN from row 7, the
    # slope only at row 8. In one block the slope's cell is named (see
    # test_terrain_overflow_in_a_forked_strip_exits_4); with blocks of 8 rows
    # row 7 is a block above it, so the aspect's cell is
    values = np.arange(60.0).reshape(10, 6)
    values[-3:] = [[1e308], [-1e308], [1e308]]
    write_ascii_grid(Grid(ncols=6, nrows=10, xll=0, yll=0, cellsize=1, values=values),
                     tmp_path / "dem.asc")
    monkeypatch.setattr(demqa.raster, "_WRITE_CELLS", 48)
    for workers in (1, 2, 3):
        monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
        argv = ["terrain", str(tmp_path / "dem.asc"), "--out-prefix", str(tmp_path / "d")]
        assert main(argv) == 4
        assert capfd.readouterr().err == ("degenerate statistics [terrain]: cannot write "
                                          "non-finite value nan at row 7, column 0\n")
        assert sorted(os.listdir(tmp_path)) == ["dem.asc"]
