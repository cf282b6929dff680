import csv
import io
import os
import threading
import tracemalloc

import numpy as np
import pytest

from demqa import raster
from demqa.errors import DemqaError, NonFiniteGridError, ParseError
from demqa.raster import (
    _HEADER_KEYS,
    _REQUIRED_KEYS,
    DEFAULT_NODATA,
    Grid,
    _csv_rows,
    _open_text,
    cell_of,
    cells_of,
    read_ascii_grid,
    write_ascii_grid,
)


def make_text(body, ncols=2, nrows=2, nodata_line="NODATA_value -9999"):
    header = f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    if nodata_line:
        header += nodata_line + "\n"
    return header + body


def dumps(grid):
    """``write_ascii_grid``'s text for ``grid``."""
    buf = io.StringIO()
    write_ascii_grid(grid, buf)
    return buf.getvalue()


def test_read_basic():
    g = read_ascii_grid(io.StringIO(make_text("1 2\n3 4\n")))
    assert g.ncols == 2 and g.nrows == 2
    assert g.values.tolist() == [[1, 2], [3, 4]]
    assert g.nodata == -9999


def test_nodata_sentinel_passthrough():
    g = read_ascii_grid(io.StringIO(make_text("1 -9999\n3 4\n")))
    assert g.values[0, 1] == g.nodata
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
    assert read_ascii_grid(io.StringIO(dumps(g))) == g


def test_roundtrip_one_by_one():
    g = Grid(ncols=1, nrows=1, xll=0, yll=0, cellsize=1, values=[7.25])
    text = dumps(g)
    assert text.count("\n") == 7  # 6 header lines + 1 body row
    assert read_ascii_grid(io.StringIO(text)) == g


def test_roundtrip_nodata_token():
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1, -9999])
    text = dumps(g)
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
        assert read_ascii_grid(io.StringIO(dumps(g))) == g


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
        dumps(g)


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


def test_cells_of_matches_cell_of():
    rng = np.random.default_rng(8)
    g = Grid(ncols=5, nrows=4, xll=-3.5, yll=12.25, cellsize=2.5, values=np.zeros(20))
    xs = np.concatenate([rng.uniform(-7, 13, 400), g.xll + 2.5 * np.arange(-1, 7),
                         [np.nan, np.inf, -np.inf, 1e300, -1e308]])
    ys = np.concatenate([rng.uniform(8, 26, 400), g.yll + 2.5 * np.arange(-2, 6),
                         [0.5, 13.0, 13.0, 13.0, 13.0]])
    inside, rows, cols = cells_of(g, xs, ys)
    want = [cell_of(g, float(x), float(y)) for x, y in zip(xs, ys)]
    assert [rc is not None for rc in want] == inside.tolist()
    assert [rc for rc in want if rc is not None] == list(zip(rows.tolist(), cols.tolist()))
    assert 0 < inside.sum() < len(xs)


@pytest.mark.parametrize("x, y", [
    (float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5), (0.5, -float("inf")),
    (np.float64("nan"), np.float64(0.5)), (1e308, 0.5), (0.5, -1e308),
])
def test_cell_of_non_finite_or_huge_point_is_off_grid(x, y):
    g = Grid(ncols=2, nrows=2, xll=-1e308, yll=0, cellsize=1, values=[0, 0, 0, 0])
    assert cell_of(g, x, y) is None


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(ncols=0, nrows=2, xll=0, yll=0, cellsize=1, values=[])
    with pytest.raises(ValueError):
        Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=0, values=[1, 2, 3, 4])
    with pytest.raises(ValueError):
        Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[1, 2, 3])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cellsize", float("nan"), "cellsize must be positive"),
        ("cellsize", float("inf"), "xll, yll and cellsize must be finite"),
        ("xll", float("nan"), "xll, yll and cellsize must be finite"),
        ("yll", float("nan"), "xll, yll and cellsize must be finite"),
        ("xll", -float("inf"), "xll, yll and cellsize must be finite"),
    ],
)
def test_grid_rejects_non_finite_georeferencing(field, value, message):
    kwargs = dict(ncols=1, nrows=1, xll=0.0, yll=0.0, cellsize=1.0, values=[1.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        Grid(**{**kwargs, field: value})


def test_grid_values_read_only():
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1, 2])
    with pytest.raises(ValueError):
        g.values[0, 0] = 5


# ---------------------------------------------------------------------------
# The token-loop reader the bulk reader replaced, kept as the oracle: every
# grid text it accepts (with finite values and a valid header) must read to
# the same Grid, and every text it rejects must give the same error.


def token_loop_read(stream):
    header = {}
    body_tokens = []
    body_positions = []
    lineno = 0
    in_header = True
    for raw in stream:
        lineno += 1
        line = raw.rstrip("\r\n")
        if in_header and line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if not parts:
            continue
        if in_header:
            key = parts[0].lower()
            if key in _HEADER_KEYS:
                if key in header:
                    raise ParseError(f"duplicate header keyword '{parts[0]}'", line=lineno)
                if len(parts) != 2:
                    raise ParseError(
                        f"header line '{parts[0]}' needs exactly one value", line=lineno
                    )
                try:
                    header[key] = float(parts[1])
                except ValueError:
                    raise ParseError(
                        f"non-numeric header value '{parts[1]}'", line=lineno, column=2
                    ) from None
                continue
            missing = [k for k in _REQUIRED_KEYS if k not in header]
            if missing:
                raise ParseError(
                    f"body starts before header keyword(s): {', '.join(missing)}",
                    line=lineno,
                )
            in_header = False
        for col, tok in enumerate(parts, start=1):
            body_tokens.append(tok)
            body_positions.append((lineno, col))

    missing = [k for k in _REQUIRED_KEYS if k not in header]
    if missing:
        raise ParseError(f"missing header keyword(s): {', '.join(missing)}")

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    if ncols != header["ncols"] or nrows != header["nrows"]:
        raise ParseError("ncols/nrows must be integers")
    expected = nrows * ncols
    if len(body_tokens) != expected:
        raise ParseError(f"expected {expected} values, got {len(body_tokens)}")

    values = np.empty(expected, dtype=np.float64)
    for i, tok in enumerate(body_tokens):
        try:
            values[i] = float(tok)
        except ValueError:
            line, col = body_positions[i]
            raise ParseError(f"non-numeric token '{tok}'", line=line, column=col) from None

    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header.get("nodata_value", DEFAULT_NODATA),
        values=values,
    )


def _number_text(rng):
    v = float(rng.normal() * 10.0 ** int(rng.integers(-6, 7)))
    form = int(rng.integers(0, 6))
    if form == 0:
        return str(int(v))
    if form == 1:
        return f"{v:.3e}"
    if form == 2:
        return "+" + repr(abs(v))
    if form == 3:
        return "-9999"
    return repr(v)


def random_grid_text(rng):
    """A small grid text with random layout and, often, one defect."""
    nrows, ncols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    header = [
        ("ncols", str(ncols) if rng.random() < 0.9 else f"{ncols}.0"),
        ("nrows", str(nrows)),
        ("xllcorner", _number_text(rng)),
        ("yllcorner", _number_text(rng)),
        ("cellsize", repr(float(rng.uniform(0.01, 50)))),
    ]
    if rng.random() < 0.6:
        header.append(("NODATA_value", "-9999"))
    rng.shuffle(header)
    header = [(k.upper() if rng.random() < 0.2 else k, v) for k, v in header]
    defect = int(rng.integers(0, 13))  # 8 and up: no defect
    i = int(rng.integers(len(header)))
    k, v = header[i]
    if defect in (0, 6):  # a missing keyword (with or without a body)
        del header[i]
    elif defect == 1:  # a duplicate keyword
        header.insert(int(rng.integers(len(header) + 1)), (k, v))
    elif defect == 2:  # a keyword with no value or two
        header[i] = (k, "" if rng.random() < 0.5 else f"{v} {v}")
    elif defect == 3:  # a non-numeric header value
        header[i] = (k, "x1")
    tokens = [_number_text(rng) for _ in range(nrows * ncols)]
    if defect in (6, 7):  # no body at all
        tokens = []
    elif defect == 4:  # a wrong count
        if rng.random() < 0.5 and len(tokens) > 1:
            tokens.pop()
        else:
            tokens.append("7")
    elif defect == 5:  # one corrupted token
        bad = ("abc", "1.2.3", "--1", "1e", "0x10", "NA", "#", "1,5")[int(rng.integers(8))]
        tokens[int(rng.integers(len(tokens)))] = bad

    def sep():
        return ("\t", " ", "  ", " \t ")[int(rng.integers(4))]

    lines = [f"# comment {i}" for i in range(int(rng.integers(0, 3)))]
    lines += [f"{k}{sep()}{v}".rstrip() for k, v in header]
    per_line = ncols if rng.random() < 0.7 else int(rng.integers(1, 2 * ncols + 2))
    for j in range(0, len(tokens), per_line):
        lines.append(sep().join(tokens[j : j + per_line]))
    for _ in range(int(rng.integers(0, 3))):  # blank or comment lines anywhere
        extra = "" if rng.random() < 0.5 else ("   " if rng.random() < 0.5 else "# note")
        lines.insert(int(rng.integers(len(lines) + 1)), extra)
    end = ("\n", "\r\n")[int(rng.integers(2))]
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _outcome(read, text):
    try:
        return read(io.StringIO(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


ORACLE_ERRORS = (
    "non-numeric token",
    "non-numeric header value",
    "expected ",
    "duplicate header keyword",
    "header line",
    "missing header keyword",
    "body starts before",
)


def test_bulk_reader_matches_token_loop_oracle():
    check_against_token_loop_oracle()


def test_one_line_blocks_match_token_loop_oracle(monkeypatch):
    # with one character per read every line end, CR LF pair and token is
    # cut across reads, in the header and in the body
    monkeypatch.setattr(raster, "_BLOCK_CHARS", 1)
    check_against_token_loop_oracle()


@pytest.mark.parametrize("block_chars", [2, 3, 7])
def test_small_reads_match_token_loop_oracle(monkeypatch, block_chars):
    monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
    check_against_token_loop_oracle()


def check_against_token_loop_oracle():
    rng = np.random.default_rng(20240615)
    seen = set()
    for _ in range(2500):
        text = random_grid_text(rng)
        got, want = _outcome(read_ascii_grid, text), _outcome(token_loop_read, text)
        if isinstance(want, str):
            assert got == want, text
            seen.update(e for e in ORACLE_ERRORS if want.startswith("ParseError: " + e))
            continue
        assert isinstance(got, Grid), (got, text)
        for name in ("ncols", "nrows", "xll", "yll", "cellsize", "nodata"):
            assert getattr(got, name) == getattr(want, name), text
        assert got.values.tobytes() == want.values.tobytes(), text
        seen.add("ok")
    assert seen == {"ok", *ORACLE_ERRORS}


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e400", "-1e999"])
def test_non_finite_body_token_names_position(token):
    text = make_text("1 2\n3 4\n")[: -len("3 4\n")] + f"3 {token}\n"
    with pytest.raises(ParseError, match=rf"non-finite token '{token}' \(line 8, column 2\)$"):
        read_ascii_grid(io.StringIO(text))


def test_first_bad_token_in_file_order():
    # a non-finite token before a non-numeric one is the one reported
    with pytest.raises(ParseError, match=r"non-finite token 'inf' \(line 7, column 2\)$"):
        read_ascii_grid(io.StringIO(make_text("1 inf\noops 4\n")))
    with pytest.raises(ParseError, match=r"non-numeric token 'oops' \(line 7, column 1\)$"):
        read_ascii_grid(io.StringIO(make_text("oops inf\n3 4\n")))


@pytest.mark.parametrize(
    "line, value, message",
    [
        (1, "nan", "non-finite header value 'nan'"),
        (1, "inf", "non-finite header value 'inf'"),
        (1, "0", "ncols must be a positive integer"),
        (1, "-2", "ncols must be a positive integer"),
        (1, "2.5", "ncols must be a positive integer"),
        (2, "1e400", "non-finite header value '1e400'"),
        (2, "0", "nrows must be a positive integer"),
        (3, "nan", "non-finite header value 'nan'"),
        (4, "-inf", "non-finite header value '-inf'"),
        (5, "0", "cellsize must be positive"),
        (5, "-2", "cellsize must be positive"),
        (5, "nan", "non-finite header value 'nan'"),
        (5, "1e400", "non-finite header value '1e400'"),
        (6, "nan", "non-finite header value 'nan'"),
    ],
)
def test_bad_header_value_names_line(line, value, message):
    lines = make_text("1 2\n3 4\n").splitlines()
    key = lines[line - 1].split()[0]
    lines[line - 1] = f"{key} {value}"
    with pytest.raises(ParseError) as exc:
        read_ascii_grid(io.StringIO("\n".join(lines) + "\n"))
    assert str(exc.value) == f"{message} (line {line}, column 2)"


def test_written_text_appears_whole_or_not_at_all(tmp_path):
    target = tmp_path / "g.asc"
    for before in (None, b"earlier text\n"):
        if before is not None:
            target.write_bytes(before)
        with pytest.raises(RuntimeError):
            with _open_text(target, "w") as f:
                f.write("partial text")
                f.flush()
                raise RuntimeError("the writer broke")
        assert os.listdir(tmp_path) == ([] if before is None else ["g.asc"])
        assert before is None or target.read_bytes() == before
    old_umask = os.umask(0o027)
    try:
        with _open_text(target, "w") as f:
            f.write("new text\n")
    finally:
        os.umask(old_umask)
    assert target.read_bytes() == b"new text\n"
    assert os.stat(target).st_mode & 0o777 == 0o640  # the temporary file's mode, from the umask
    assert os.listdir(tmp_path) == ["g.asc"]


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "real.asc").write_text("old\n")
    (tmp_path / "link.asc").symlink_to("real.asc")
    with _open_text(tmp_path / "link.asc", "w") as f:
        f.write("new\n")
    assert (tmp_path / "link.asc").is_symlink()
    assert (tmp_path / "real.asc").read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.asc", "real.asc"]


def test_write_to_a_fifo_goes_in_place(tmp_path):
    fifo = tmp_path / "pipe.asc"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    g = Grid(ncols=2, nrows=1, xll=0, yll=0, cellsize=1, values=[1.5, 2])
    write_ascii_grid(g, fifo)
    reader.join(timeout=30)
    assert got == [dumps(g)]
    assert os.listdir(tmp_path) == ["pipe.asc"]


def test_grid_with_utf8_bom(tmp_path):
    g = Grid(ncols=2, nrows=2, xll=0, yll=0, cellsize=1, values=[1, 2, 3, 4])
    path = tmp_path / "g.asc"
    path.write_bytes(b"\xef\xbb\xbf" + dumps(g).encode())
    assert read_ascii_grid(path) == g
    path.write_bytes(b"\xef\xbb\xbf" + make_text("1 2\n3 x\n").encode())
    with pytest.raises(ParseError) as exc:
        read_ascii_grid(path)
    assert str(exc.value) == "non-numeric token 'x' (line 8, column 2)"
    write_ascii_grid(g, path)
    assert not path.read_bytes().startswith(b"\xef\xbb\xbf")


def test_stream_with_lone_surrogates():
    # a caller's text stream is not UTF-8 bytes: counting the header's bytes
    # must not fail on characters UTF-8 cannot encode
    assert read_ascii_grid(io.StringIO("# \ud800\n" + make_text("5\n", 1, 1))).values[0, 0] == 5
    with pytest.raises(ParseError) as exc:
        read_ascii_grid(io.StringIO(make_text("5\udc80\n", 1, 1)))
    assert str(exc.value) == "non-numeric token '5\udc80' (line 7, column 1)"


# ---------------------------------------------------------------------------
# The body is read _BLOCK_CHARS characters at a time and converted up to the
# last line end (or blank) of each read. A small block constant makes small
# texts span many reads.


class ReadLog(io.StringIO):
    """A text stream that records what each ``read`` and ``readline`` asked
    for and returned; reading it whole or line by line fails."""

    def __init__(self, text):
        super().__init__(text)
        self.asked = []
        self.returned = []  # (method name, text)

    def read(self, size=-1):
        return self._log(size, "read", super().read(size))

    def readline(self, size=-1):
        return self._log(size, "readline", super().readline(size))

    def _log(self, size, name, text):
        self.asked.append(size)
        self.returned.append((name, text))
        return text

    def readlines(self, hint=-1):
        raise AssertionError("readlines")

    def __next__(self):
        raise AssertionError("line iteration")

    def bounded_to_the_end(self, limit):
        """No read asked for more than ``limit`` characters, and the last
        found the end of the stream."""
        return all(0 <= n <= limit for n in self.asked) and self.returned[-1][1] == ""


def body_text(nrows):
    """Body lines "11 12 13", "21 22 23", ... of 9 characters each, from file line 7."""
    return make_text("".join(f"{r}1 {r}2 {r}3\n" for r in range(1, nrows + 1)),
                     ncols=3, nrows=nrows)


def replace_token(text, line, column, token):
    lines = text.split("\n")
    parts = lines[line - 1].split()
    parts[column - 1] = token
    lines[line - 1] = " ".join(parts)
    return "\n".join(lines)


def test_reads_ask_for_at_most_a_block(monkeypatch):
    monkeypatch.setattr(raster, "_BLOCK_CHARS", 9)
    stream = ReadLog(body_text(7))
    values = read_ascii_grid(stream).values.ravel().tolist()
    assert values == [10 * r + c for r in range(1, 8) for c in (1, 2, 3)]
    assert stream.bounded_to_the_end(9)
    assert len(stream.asked) > 7


@pytest.mark.parametrize("block_chars", [1, 9, 20])
def test_bad_token_at_block_edges_names_position(monkeypatch, block_chars):
    monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
    text = body_text(7)  # body on file lines 7..13
    for line in range(7, 14):
        for column in (1, 3):
            for token, kind in (("x", "non-numeric"), ("inf", "non-finite")):
                bad = replace_token(text, line, column, token)
                with pytest.raises(ParseError) as exc:
                    read_ascii_grid(io.StringIO(bad))
                assert str(exc.value) == f"{kind} token '{token}' (line {line}, column {column})"
        # a bad token on this line and on the next: the first is reported,
        # wherever the block edge falls
        if line < 13:
            bad = replace_token(replace_token(text, line, 3, "y"), line + 1, 1, "z")
            with pytest.raises(ParseError, match=rf"'y' \(line {line}, column 3\)$"):
                read_ascii_grid(io.StringIO(bad))


def test_last_and_first_line_of_adjacent_blocks(monkeypatch):
    monkeypatch.setattr(raster, "_BLOCK_CHARS", 9)  # one 9-character line per read
    text = body_text(7)
    for line in (9, 10, 11, 12):
        stream = ReadLog(replace_token(text, line, 2, "1x"))  # same width
        with pytest.raises(ParseError) as exc:
            read_ascii_grid(stream)
        assert str(exc.value) == f"non-numeric token '1x' (line {line}, column 2)"
        assert stream.bounded_to_the_end(9)  # counting went on to the end


@pytest.mark.parametrize("block_chars", [1, 9, 1 << 20])
@pytest.mark.parametrize("extra, got", [(" 7 8\n", 23), ("", 20)])
def test_count_error_wins_over_earlier_bad_token(monkeypatch, block_chars, extra, got):
    monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
    text = replace_token(body_text(7), 7, 2, "bad")  # a bad token in the first block
    if extra:  # too many tokens, in the last block
        text = text[:-1] + extra
    else:  # one token too few, in the last block
        text = text[: text.rindex(" ")] + "\n"
    with pytest.raises(ParseError) as exc:
        read_ascii_grid(io.StringIO(text))
    assert str(exc.value) == f"expected 21 values, got {got}"


def test_crlf_bom_and_open_stream_span_blocks(monkeypatch, tmp_path):
    g = Grid(ncols=3, nrows=9, xll=0, yll=0, cellsize=1, values=np.arange(27.0) / 7)
    crlf = dumps(g).replace("\n", "\r\n")
    path = tmp_path / "g.asc"
    path.write_bytes(b"\xef\xbb\xbf" + crlf.encode())
    bad = replace_token(crlf, 11, 3, "nan")  # "\r" stays on the line's last token
    monkeypatch.setattr(raster, "_BLOCK_CHARS", 20)
    stream = ReadLog(crlf)
    assert read_ascii_grid(stream) == g
    assert len(stream.asked) > 3
    assert read_ascii_grid(path) == g
    with open(path, encoding="utf-8-sig", newline="") as f:  # an open stream
        assert read_ascii_grid(f) == g
    path.write_bytes(b"\xef\xbb\xbf" + bad.encode())
    for source in (io.StringIO(bad), path):
        with pytest.raises(ParseError) as exc:
            read_ascii_grid(source)
        assert str(exc.value) == "non-finite token 'nan' (line 11, column 3)"


def read_errors(text, block_chars, monkeypatch):
    """The value list or the ParseError text of ``text`` read in reads of
    ``block_chars`` characters, each no longer than that."""
    monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
    stream = ReadLog(text)
    try:
        got = read_ascii_grid(stream).values.ravel().tolist()
    except ParseError as exc:
        got = str(exc)
    assert stream.bounded_to_the_end(block_chars)
    return got


@pytest.mark.parametrize("block_chars", [1, 9])
def test_cr_lf_pair_split_across_reads(monkeypatch, block_chars):
    # 1: every CR and LF arrives in a read of its own; 9: the first body
    # line's readline stops at its CR, and the first read starts with the LF
    text = body_text(7).replace("\n", "\r\n")
    want = [10 * r + c for r in range(1, 8) for c in (1, 2, 3)]
    assert read_errors(text, block_chars, monkeypatch) == want
    stream = ReadLog(text)
    read_ascii_grid(stream)
    cut = ("readline", "11 12 13\r") if block_chars == 9 else ("read", "\r")
    assert cut in stream.returned
    for line in range(7, 14):
        bad = replace_token(text.replace("\r\n", "\n"), line, 3, "x").replace("\n", "\r\n")
        assert read_errors(bad, block_chars, monkeypatch) == \
            f"non-numeric token 'x' (line {line}, column 3)"


@pytest.mark.parametrize("block_chars", [1, 4, 1 << 17])
def test_token_longer_than_a_block(monkeypatch, block_chars):
    long = "1234.5678901234"
    bad = "1.2.3.4.5.6.7"
    for body, want in ((f"1 {long}\n3 4\n", [1, 1234.5678901234, 3, 4]),
                       (f"{long} 2\n3 4\n", [1234.5678901234, 2, 3, 4]),
                       (f"1 2\n3 {bad}\n", f"non-numeric token '{bad}' (line 8, column 2)"),
                       (f"{bad} 2\n3 4\n", f"non-numeric token '{bad}' (line 7, column 1)")):
        assert read_errors(make_text(body), block_chars, monkeypatch) == want


@pytest.mark.parametrize("sep", [" ", "\t", " \t"])
def test_a_line_is_converted_in_pieces_cut_at_blanks(monkeypatch, sep):
    # a body on one line: no piece holds more than a read and a partial token
    monkeypatch.setattr(raster, "_BLOCK_CHARS", 16)
    sizes = []
    convert = raster._convert
    monkeypatch.setattr(raster, "_convert",
                        lambda tokens, *rest: sizes.append(len(tokens)) or convert(tokens, *rest))
    text = make_text(sep.join(f"{k}.5" for k in range(100)) + "\n", ncols=10, nrows=10)
    assert read_errors(text, 16, monkeypatch) == [k + 0.5 for k in range(100)]
    assert sum(sizes) == 100 and max(sizes) <= 8, sizes


@pytest.mark.parametrize("block_chars", [1, 3, 1 << 17])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_no_final_line_end(monkeypatch, block_chars, end):
    text = make_text("1 2\n3 4").replace("\n", end)
    assert read_errors(text, block_chars, monkeypatch) == [1, 2, 3, 4]
    assert read_errors(text[:-1] + "x", block_chars, monkeypatch) == \
        "non-numeric token 'x' (line 8, column 2)"
    assert read_errors(text + " 5", block_chars, monkeypatch) == "expected 4 values, got 5"


@pytest.mark.parametrize("block_chars", [1, 4, 7])
def test_first_body_line_starting_with_more_than_a_block_of_blanks(monkeypatch, block_chars):
    blanks = " \t" * (2 * block_chars)
    assert read_errors(make_text(blanks + "1 2\n3 4\n"), block_chars, monkeypatch) == [1, 2, 3, 4]
    assert read_errors(make_text(blanks + "1 x\n3 4\n"), block_chars, monkeypatch) == \
        "non-numeric token 'x' (line 7, column 2)"
    assert read_errors(make_text("\n" + blanks + "\n" + blanks + "x 2\n3 4\n"), block_chars,
                       monkeypatch) == "non-numeric token 'x' (line 9, column 1)"


@pytest.mark.parametrize("block_chars", [1, 4, 7])
def test_comment_line_longer_than_a_block(monkeypatch, block_chars):
    comment = "# " + "a long comment " * block_chars + "\n"
    word = "#" + "x" * 3 * block_chars + " ncols 9\n"  # a first word longer than a block
    lines = make_text("1 2\n3 x\n").splitlines(keepends=True)
    text = comment + "".join(lines[:3]) + word + comment + "".join(lines[3:])
    assert read_errors(text, block_chars, monkeypatch) == \
        "non-numeric token 'x' (line 11, column 2)"
    text = text.replace("3 x", "3 4")
    assert read_errors(text, block_chars, monkeypatch) == [1, 2, 3, 4]
    # a header line is read whole, however long
    long_header = text.replace("ncols 2", "ncols" + " " * 3 * block_chars + "2")
    assert read_errors(long_header, block_chars, monkeypatch) == [1, 2, 3, 4]


@pytest.mark.parametrize("block_chars", [1, 5, 1 << 17])
def test_lone_cr_ends_a_line_in_a_file(monkeypatch, tmp_path, block_chars):
    # a path is read with newline="", where a lone CR ends a line, as before
    monkeypatch.setattr(raster, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "mac.asc"
    path.write_bytes(make_text("1 2\n3 4\n").replace("\n", "\r").encode())
    assert read_ascii_grid(path).values.ravel().tolist() == [1, 2, 3, 4]
    path.write_bytes(make_text("1 2\n3 4 x\n", nrows=2).replace("\n", "\r").encode())
    with pytest.raises(ParseError, match=r"^expected 4 values, got 5$"):
        read_ascii_grid(path)
    path.write_bytes(make_text("1 2\n\n3 x\n").replace("\n", "\r").encode())
    with pytest.raises(ParseError, match=r"'x' \(line 9, column 2\)$"):
        read_ascii_grid(path)


def test_read_holds_one_array_and_one_block(tmp_path):
    # 600x600 values of 17 significant digits: the array is 2.9 MB and the
    # text 6.8 MB; the one-pass reader that held every token peaked at 38 MB
    rng = np.random.default_rng(3)
    g = Grid(ncols=600, nrows=600, xll=0, yll=0, cellsize=1,
             values=rng.uniform(100.0, 999.0, 360_000))
    got, peak = traced_round_trip(g, tmp_path / "big.asc")
    assert got == g
    assert peak < 16e6, peak


def test_full_read_of_a_grid_heavy_dem_holds_the_array_and_a_small_block(tmp_path):
    # the grid_heavy DEM's size: 1000x1000 values of ~17 digits, 18 MB of
    # text and an 8 MB array; with blocks of 1 MiB the peak was 15.4 MB
    rng = np.random.default_rng(11)
    g = Grid(ncols=1000, nrows=1000, xll=0, yll=0, cellsize=10,
             values=rng.uniform(200.0, 300.0, 1_000_000))
    got, peak = traced_round_trip(g, tmp_path / "dem.asc")
    assert got == g
    assert peak < 11e6, peak


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\xa0"], ids=["VT", "FF", "NBSP"])
def test_one_line_body_is_cut_at_any_blank(blank):
    # str.split separates tokens at these as at a space; a line cut only at
    # spaces and tabs was one piece, token list and all (20.8 MB against 9.8
    # MB for 200,000 values)
    def peak(sep):
        tracemalloc.start()
        try:
            text = ("ncols 500\nnrows 400\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                    + sep.join(["12.5"] * 200_000))
            assert (read_ascii_grid(io.StringIO(text)).values == 12.5).all()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(blank) < 1.1 * peak(" ")


def traced_round_trip(grid, path):
    """``grid`` written to ``path`` and read back, and the read's
    tracemalloc peak in bytes."""
    write_ascii_grid(grid, path)
    tracemalloc.start()
    try:
        got = read_ascii_grid(path)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# One csv.reader per line is the oracle for every line the CSV row reader
# parses; a line the oracle's csv.reader rejects must be a ParseError
# naming that line.


def per_line_csv_rows(source, name):
    with _open_text(source, "r") as stream:
        empty = True
        for lineno, line in enumerate(stream, start=1):
            if line.strip() and not line.lstrip().startswith("#"):
                empty = False
                try:
                    fields = next(csv.reader([line]))
                except csv.Error as exc:
                    raise csv.Error(f"{exc} (line {lineno})") from None
                yield lineno, fields
        if empty:
            raise ParseError(f"empty {name}")


CSV_PIECES = ("a", "7", "-1.5", ",", ",", ",", " ", "\t", '"', '""', "\r", "\0", "#",
              "\x0b", "\x1c", "\u2028", "é", "\\")


def random_csv_text(rng):
    lines = []
    for _ in range(int(rng.integers(0, 5))):
        k = int(rng.integers(0, 9))
        body = "".join(CSV_PIECES[int(i)] for i in rng.integers(len(CSV_PIECES), size=k))
        lines.append(body + ("\n", "\r\n", "\r", "", ",\n")[int(rng.integers(5))])
    return "".join(lines)


def csv_outcome(rows, source):
    try:
        return list(rows(source, "table"))
    except csv.Error as exc:  # only the oracle lets csv.Error through
        return f"ParseError: bad CSV line: {exc}"
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_csv_rows_match_per_line_reader(tmp_path):
    rng = np.random.default_rng(77)
    path = tmp_path / "t.csv"
    seen = set()
    for _ in range(3000):
        text = random_csv_text(rng)
        got = csv_outcome(_csv_rows, io.StringIO(text))
        assert got == csv_outcome(per_line_csv_rows, io.StringIO(text)), repr(text)
        # a path opens with newline="", where a lone "\r" ends a line
        path.write_text(text, encoding="utf-8", newline="")
        assert csv_outcome(_csv_rows, path) == csv_outcome(per_line_csv_rows, path), repr(text)
        seen.add("rows" if isinstance(got, list) else got.split(":")[1].strip())
        seen.update(c for c in '"\0\r' if c in text.rstrip("\r\n"))
    assert seen == {"rows", "bad CSV line", "empty table", '"', "\0", "\r"}
    # an unbalanced quote takes the line end into the field, not the next line
    assert list(_csv_rows(io.StringIO('a,"b\nc,d\n'), "t")) == [(1, ["a", "b\n"]), (2, ["c", "d"])]
    assert list(_csv_rows(io.StringIO("x,,\r\n,y,\n"), "t")) == [(1, ["x", "", ""]),
                                                                  (2, ["", "y", ""])]


def test_csv_rows_field_size_limit():
    text = "id," + "9" * (csv.field_size_limit() + 1) + "\n"
    with pytest.raises(csv.Error, match="field larger than field limit"):
        list(per_line_csv_rows(io.StringIO(text), "t"))
    with pytest.raises(ParseError, match=r"^bad CSV line: field larger than field limit "
                                         r"\(\d+\) \(line 1\)$"):
        list(_csv_rows(io.StringIO(text), "t"))


# ---------------------------------------------------------------------------
# The per-cell writer the row-at-a-time writer replaced, kept as the oracle:
# every finite grid must be written to the same bytes.


def per_cell_fmt(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def per_cell_write(grid, comment=None):
    out = []
    if comment:
        out.extend(f"# {ln}\n" for ln in comment.splitlines())
    out.append(f"ncols {grid.ncols}\nnrows {grid.nrows}\n")
    out.append(f"xllcorner {per_cell_fmt(grid.xll)}\nyllcorner {per_cell_fmt(grid.yll)}\n")
    out.append(f"cellsize {per_cell_fmt(grid.cellsize)}\n")
    out.append(f"NODATA_value {per_cell_fmt(grid.nodata)}\n")
    for r in range(grid.nrows):
        out.append(" ".join(per_cell_fmt(v) for v in grid.values[r]) + "\n")
    return "".join(out)


SPECIAL_VALUES = np.array([
    0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 2.0**53, -(2.0**53), 2.0**53 + 2, 9999999999999998.0,
    1e15, 1e16 + 2, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e-5, 1e300, -1e300,
    0.1, 0.5, 10.05, 100.0, 1.0e-7, 123456.78, -9999.0, 1.7976931348623157e308,
])


def random_written_grid(rng):
    nrows, ncols = (int(k) for k in rng.integers(1, 9, 2))
    n = nrows * ncols
    kind = rng.choice(["special", "integral", "two_decimal", "float", "mixed"])
    if kind == "special":
        vals = rng.choice(SPECIAL_VALUES, n)
    elif kind == "integral":
        vals = np.round(rng.normal(0, 10.0 ** rng.integers(0, 17), n))
    elif kind == "two_decimal":
        vals = np.round(rng.normal(100, 50, n), 2)
    elif kind == "float":
        vals = rng.normal(0, 1, n) * 10.0 ** rng.integers(-320, 300, n).astype(float)
    else:  # rows mixing every kind above
        vals = np.concatenate([
            rng.choice(SPECIAL_VALUES, n), np.round(rng.normal(0, 1e6, n)),
            np.round(rng.normal(0, 5, n), 2), rng.normal(0, 1, n),
        ])
        vals = rng.permutation(vals)[:n]
    header = rng.choice(SPECIAL_VALUES, 4)
    return Grid(ncols=ncols, nrows=nrows, xll=float(header[0]), yll=float(header[1]),
                cellsize=abs(float(header[2])) or 1.0, nodata=float(header[3]), values=vals)


def test_row_writer_matches_per_cell_oracle():
    rng = np.random.default_rng(1981)
    for k in range(1500):
        grid = random_written_grid(rng)
        comment = "made by a test\nsecond line" if k % 7 == 0 else None
        buf = io.StringIO()
        write_ascii_grid(grid, buf, comment=comment)
        assert buf.getvalue() == per_cell_write(grid, comment), grid.values
    every = Grid(ncols=SPECIAL_VALUES.size, nrows=1, xll=0, yll=0, cellsize=1,
                 values=SPECIAL_VALUES)
    assert dumps(every) == per_cell_write(every)
    assert dumps(every).splitlines()[-1].split()[:3] == ["0", "0", "1"]
