"""Grid bodies read in byte ranges over forked workers: the serial read's
values and errors at any worker count, no fork for small bodies, pipes or
in-memory streams, and no child process left behind."""

import codecs
import io
import os
import re
import signal
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import demqa._workers
from demqa import raster
from demqa.cli import main
from demqa.errors import ParseError
from demqa.raster import Grid, read_ascii_grid, values_at, write_ascii_grid


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls so far."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def every_cell(grid):
    """The value of each cell of ``grid`` through the lookup, in row-major order."""
    return values_at(grid, *np.divmod(np.arange(grid.nrows * grid.ncols), grid.ncols))


def outcome(path, cells):
    """Every cell's bytes (signs of zeros included), or the ParseError message."""
    try:
        return every_cell(read_ascii_grid(path, cells=cells)).tobytes()
    except ParseError as exc:
        return f"ParseError: {exc}"


TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0", "+1.5", ".5", "7.", "-9999", "1e3", "-2.5E-3", "12.5"]),
)
# a bad token, a non-finite one, a separator only str.split knows, a letter
# outside ASCII, an extra and a missing value, a byte that is not UTF-8, a
# file that ends inside a UTF-8 character
FAULTS = ["1.2.3", "inf", "1\xa02", "é", "extra", "missing", "\x01", "cut"]


@st.composite
def bodies(draw):
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    tokens = draw(st.lists(TOKENS, min_size=nrows * ncols, max_size=nrows * ncols))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    fault = draw(st.none() | st.sampled_from(FAULTS))  # half of the bodies are clean
    at = draw(st.integers(0, len(tokens) - 1))
    if fault == "extra":
        tokens.insert(at, "4")
    elif fault == "missing":
        del tokens[at]
    elif fault and fault != "cut":
        tokens[at] = fault
    layout = draw(st.sampled_from(["rows", "wrapped", "one_line"]))
    width = {"rows": ncols, "one_line": len(tokens) or 1}.get(layout)
    lines, k = [], 0
    while k < len(tokens):
        n = width or draw(st.integers(1, 2 * ncols))
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(sep.join(tokens[k : k + n]))
        k += n
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " \t"])))  # a blank line
    head = [f"# comment {i}" for i in range(draw(st.integers(0, 2)))]
    head += [f"ncols {ncols}", f"nrows {nrows}", "xllcorner 0.5", "yllcorner -2",
             "cellsize 0.25", "NODATA_value -9999"]
    data = (end.join(head + lines) + end).encode("utf-8").replace(b"\x01", b"\xff")
    if fault == "cut":  # inside the last token, so the byte count of tokens holds
        data = data.rstrip(b"\r\n") + "é".encode("utf-8")[:1]
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    named = None
    if draw(st.booleans()):
        named = sorted(draw(st.sets(st.integers(0, nrows * ncols - 1), max_size=6)))
    return data, named, draw(st.sampled_from([2, 3])), draw(st.sampled_from([5, 64, 1 << 17]))


def test_ranges_give_the_serial_reads_bits_or_error(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(raster, "_READ_BYTES", 16)
    monkeypatch.setattr(raster, "_DENSE_FRACTION", 1.0)  # every named list reads windowed
    path = tmp_path / "g.asc"
    seen = Counter()

    # a fixed seed and no example database: the same 400 bodies whatever the
    # source of check, so the floors below hold for a known draw
    @seed(20260)
    @settings(max_examples=400, deadline=None, database=None)
    @given(bodies())
    def check(body):
        data, named, workers, block_chars = body
        path.write_bytes(data)
        cells = None if named is None else (lambda grid: named)
        monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
        monkeypatch.setattr(demqa._workers, "_WORKERS", 1)
        serial = outcome(path, cells)
        monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
        before = len(forks)
        assert outcome(path, cells) == serial, data
        assert_no_child_left()
        if len(forks) > before:
            seen["forked", isinstance(serial, str), named is None] += 1
            # lone-CR line ends, every line read whole: the header loop's last read ends in CR
            lone_cr = b"\r" in data and b"\n" not in data
            seen["forked", "lone CR"] += lone_cr and block_chars == 1 << 17

    check()
    # the ranges were read, clean and not, full and windowed, lone-CR files too
    assert all(seen["forked", error, full] >= 10 for error in (False, True)
               for full in (False, True)), seen
    assert seen["forked", "lone CR"] >= 5, seen


def test_ranges_of_a_large_body_match_the_serial_read(tmp_path, monkeypatch, forks):
    rng = np.random.default_rng(5)
    grid = Grid(ncols=300, nrows=400, xll=0, yll=0, cellsize=1,
                values=rng.uniform(-500.0, 500.0, 120_000))
    path = tmp_path / "g.asc"
    write_ascii_grid(grid, path)
    forks.clear()  # the writer's
    monkeypatch.setattr(raster, "_READ_BYTES", 1 << 16)
    named = np.arange(0, 120_000, 331)
    for workers in (1, 2, 3):
        monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
        assert read_ascii_grid(path).values.tobytes() == grid.values.tobytes()
        windowed = every_cell(read_ascii_grid(path, cells=lambda g: named))
        assert windowed[named].tobytes() == grid.values.ravel()[named].tobytes()
        assert np.isnan(np.delete(windowed, named)).all()
    assert len(forks) == 2 * (1 + 2)
    assert_no_child_left()
    # a bad token in the last range: the serial read's line and column
    text = path.read_text()
    path.write_text(text[:-2] + "x\n")
    with pytest.raises(ParseError, match=r"non-numeric token '\S*x' \(line 406, column 300\)$"):
        read_ascii_grid(path, cells=lambda g: named)
    assert len(forks) == 2 * (1 + 2) + 2


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
def test_lone_cr_line_ends_are_read_in_ranges(tmp_path, monkeypatch, forks, bom):
    # the body's byte offset is counted by the header loop, so a header line
    # that ends in a lone CR does not keep the body from being split
    rng = np.random.default_rng(6)
    grid = Grid(ncols=500, nrows=400, xll=0, yll=0, cellsize=1,
                values=rng.uniform(-500.0, 500.0, 200_000))
    path = tmp_path / "g.asc"
    write_ascii_grid(grid, path)
    path.write_bytes(bom + path.read_bytes().replace(b"\n", b"\r"))
    assert path.stat().st_size > 2 * raster._READ_BYTES
    forks.clear()  # the writer's
    named = np.arange(0, 200_000, 97)
    monkeypatch.setattr(demqa._workers, "_WORKERS", 1)
    full = read_ascii_grid(path).values.tobytes()
    windowed = every_cell(read_ascii_grid(path, cells=lambda g: named)).tobytes()
    assert full == grid.values.tobytes()
    assert not forks
    monkeypatch.setattr(demqa._workers, "_WORKERS", 2)
    assert read_ascii_grid(path).values.tobytes() == full
    assert len(forks) == 1
    assert every_cell(read_ascii_grid(path, cells=lambda g: named)).tobytes() == windowed
    assert len(forks) == 2
    assert_no_child_left()


def test_a_range_without_tokens_is_read_again_here(tmp_path, monkeypatch, forks):
    # three 100-byte lines and three workers: the middle range holds only
    # blanks and a control byte, which the count takes for a separator and
    # str.split for a token; an empty reply from it must not pass for clean
    monkeypatch.setattr(raster, "_READ_BYTES", 16)
    monkeypatch.setattr(demqa._workers, "_WORKERS", 3)
    row = " ".join(["1.25"] * 20) + "\n"
    path = tmp_path / "g.asc"
    path.write_text("ncols 20\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                    + row + " " * 49 + "\x01" + " " * 49 + "\n" + row)
    with pytest.raises(ParseError, match=r"^expected 40 values, got 41$"):
        read_ascii_grid(path)
    path.write_text(path.read_text().replace("\x01", " "))
    assert (read_ascii_grid(path).values == 1.25).all()
    assert not forks  # a range with no token is no part


def bench_sized_grids():
    """Grids the size of the ``points_heavy`` workload's DEM (0.73 MB) and
    class map (80 KB)."""
    rng = np.random.default_rng(3)
    dem = Grid(ncols=200, nrows=200, xll=0, yll=0, cellsize=20,
               values=rng.uniform(100.0, 900.0, 40_000))
    classes = Grid(ncols=200, nrows=200, xll=0, yll=0, cellsize=20,
                   values=rng.choice([1.0, 2.0, 3.0], 40_000))
    return dem, classes


def test_small_bodies_pipes_and_streams_never_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    dem, classes = bench_sized_grids()
    for name, grid in (("dem", dem), ("classes", classes)):
        write_ascii_grid(grid, tmp_path / f"{name}.asc")
    assert 0.6e6 < (tmp_path / "dem.asc").stat().st_size < 0.8e6
    assert 70e3 < (tmp_path / "classes.asc").stat().st_size < 90e3
    # a body twice the threshold: enough for two workers
    big = Grid(ncols=500, nrows=300, xll=0, yll=0, cellsize=1,
               values=np.random.default_rng(4).uniform(0.0, 1.0, 150_000))
    write_ascii_grid(big, tmp_path / "big.asc")
    assert (tmp_path / "big.asc").stat().st_size > 2 * raster._READ_BYTES

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    for name, grid in (("dem", dem), ("classes", classes)):
        assert read_ascii_grid(tmp_path / f"{name}.asc") == grid
        assert values_at(read_ascii_grid(tmp_path / f"{name}.asc", cells=lambda g: [0, 5]),
                         0, 0) == grid.values[0, 0]
    text = (tmp_path / "big.asc").read_text()
    assert read_ascii_grid(io.StringIO(text)) == big
    fifo = tmp_path / "big.fifo"
    os.mkfifo(fifo)
    feeder = threading.Thread(target=lambda: fifo.write_text(text), daemon=True)
    feeder.start()
    assert read_ascii_grid(fifo) == big
    feeder.join()


def test_killed_reader_child_exits_3(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(raster, "_READ_BYTES", 1 << 12)
    monkeypatch.setattr(demqa._workers, "_WORKERS", 2)
    assert main(["synth", "--kind", "smoothed_noise", "--nrows", "60", "--ncols", "60",
                 "--cellsize", "20", "--out", str(tmp_path / "dem.asc"), "--gcps-out",
                 str(tmp_path / "gcps.csv"), "--n-points", "30", "--seed", "7"]) == 0
    argv = ["assess", "--dem", str(tmp_path / "dem.asc"), "--gcps", str(tmp_path / "gcps.csv"),
            "--out", str(tmp_path / "out")]
    parent = os.getpid()
    body = raster._read_body

    def read_body(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return body(*args)

    monkeypatch.setattr(raster, "_read_body", read_body)
    capfd.readouterr()
    assert main(argv) == 3
    assert_no_child_left()
    err = capfd.readouterr().err
    assert re.fullmatch(r"i/o error \[assess\]: worker for bytes \d+\.\.\d+ exited with "
                        r"status -9 after 0 bytes\n", err), err
    assert not (tmp_path / "out").exists()
