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
    cells = demqa.raster._WRITE_CELLS
    assert demqa._workers._worker_count(2, 2 * cells, cells) == 2

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    ncols = 64
    nrows = (2 * cells - 1) // ncols
    grid = Grid(ncols=ncols, nrows=nrows, xll=0, yll=0, cellsize=1,
                values=np.arange(nrows * ncols) / 7)
    write_ascii_grid(grid, tmp_path / "g.asc")
    assert read_ascii_grid(tmp_path / "g.asc") == grid


def test_failing_parent_kills_and_reaps_its_writer_children(monkeypatch, tmp_path):
    monkeypatch.setattr(demqa._workers, "_WORKERS", 3)
    parent = os.getpid()
    line = demqa.raster._grid_line

    def grid_line(values):
        if os.getpid() == parent and np.size(values) == 5:  # a body row, not the header
            raise KeyboardInterrupt
        if os.getpid() != parent:
            time.sleep(60)
        return line(values)

    monkeypatch.setattr(demqa.raster, "_grid_line", grid_line)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_ascii_grid(edge_grid(7, 5), tmp_path / "g.asc")
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_failing_writer_child_exits_3(monkeypatch, tmp_path, capfd):
    monkeypatch.setattr(demqa._workers, "_WORKERS", 2)
    parent = os.getpid()
    line = demqa.raster._grid_line

    def grid_line(values):
        if os.getpid() != parent:
            raise ValueError("formatter broke")
        return line(values)

    monkeypatch.setattr(demqa.raster, "_grid_line", grid_line)
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
