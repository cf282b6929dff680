"""Single-band grid model and ASCII grid I/O.

The on-disk format is the plain-text grid used by most GIS packages: six
keyword/value header lines (``ncols``, ``nrows``, ``xllcorner``,
``yllcorner``, ``cellsize``, optional ``NODATA_value``) followed by
``nrows * ncols`` whitespace-separated values, northernmost row first.
Keywords are case-insensitive; LF and CRLF both end a line, and so does
a lone CR in a file; lines starting with ``#`` before the header are
skipped (provenance comments). A file may start with a UTF-8 byte order
mark. Every value must be a finite number, ``ncols``/``nrows`` positive
integers and ``cellsize`` positive; the reader raises ParseError naming
the line (and column) of the first that is not.

Each value is written as Python's ``repr`` writes it, the shortest text
that reads back as the same double (see ``_gridtext``), so
``read(write(g))`` reproduces ``g`` exactly; integral values below 1e16
lose the ".0" and -0.0 is written as 0. Values, bytes, errors, lines and
columns do not depend on how many workers read or write a grid.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import itertools
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from ._workers import _map_parts, _worker_count
from .errors import NonFiniteGridError, ParseError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_REQUIRED_KEYS = _HEADER_KEYS[:5]
# Characters per read of grid text: a header ``readline``'s limit and a
# body ``read``'s size. A piece's token list and the scanner's index arrays
# (up to 8 bytes per character) are alive beside the value array, so a
# small block keeps the peak near the array's size.
_BLOCK_CHARS = 1 << 17
# Byte classes of the body scanner, for bytes.translate: a block holding
# only these (no other byte) may be plain decimals.
_WS, _DIGIT, _DOT, _SIGN, _OTHER = range(5)
_CLASSES = bytes(
    _WS if b in b" \t\n\r" else _DIGIT if b in b"0123456789" else _DOT if b == ord(".")
    else _SIGN if b in b"+-" else _OTHER
    for b in range(256)
)
# Longest token the scanner accepts: a plain decimal of 300 characters is
# below 1e300, so float() gives it a finite value.
_MAX_TOKEN = 300
# A read that names more than this share of the cells converts them all;
# each path wins on one input. Reading a 200 x 200 DEM, then bilinear
# extraction and Horn at its points (in process, best of 45, 2 vCPUs, numpy
# 2.4) took 15.7 ms full and 22.8 windowed with 59% of the cells named,
# 13.9 and 13.8 at 20%, 13.4 and 12.3 at 12.6%; a 1000 x 1000 DEM with 0.4%
# named took 176 and 122 ms. The columns were identical.
_DENSE_FRACTION = 1 / 8
# Cells of a grid-writing block, whose values are checked and formatted
# together (``landcover.classify`` computes its blocks of this size too).
# Each writing worker formats at least twice this, so forking starts at
# 131,072 cells (a 362 x 362 grid). On 2 vCPUs (numpy 2.4) a one-worker
# write took 0.32-0.45 us a cell and a fork with its pipe and reaping 3-4
# ms; of 15 alternating writes two workers won 4-12 at 65,536 cells (four
# runs), 8-14 at 131,044 (three), 13-14 at 196,249 and 15 from 262,144.
_WRITE_CELLS = 1 << 15
# Most cells whose text a grid-writing worker holds at once, over all the
# outputs of one write (about 19 MB), so a child's memory does not grow
# with the grid. One strip per worker covers the bench's grids.
_PART_CELLS = 1 << 20
# Least body bytes each grid-reading worker reads, so a body forks from
# twice this (2 MiB: not the bench's 0.73 MB DEM or 2.0 MB class map). On 2
# vCPUs a fork, its start and its reaping took about 5 ms, counting tokens
# 0.4 ms per MB, and a MB of body 6-8 ms to check (windowed) or 20-30 ms to
# convert (full). In fresh processes, while the second vCPU was free, two
# workers won 4 of 4 windowed and 7 of 9 full reads of a 2.3 MB body, and
# tied or lost at 0.57 MB.
_READ_BYTES = 1 << 20


@dataclass(eq=False)
class Grid:
    """A georeferenced single-band raster.

    ``values`` has shape (nrows, ncols) with row 0 the northernmost row, or
    in a windowed grid holds the cells at sorted flat indices ``cells`` only
    (``values_at`` reads either). Cells equal to ``nodata`` are missing and
    never enter statistics. Grids are immutable; the arrays are read-only.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    values: np.ndarray
    nodata: float = DEFAULT_NODATA
    cells: np.ndarray | None = None

    def __post_init__(self):
        _check_georef(self.ncols, self.nrows, self.xll, self.yll, self.cellsize)
        shape = (self.nrows, self.ncols) if self.cells is None else (len(self.cells),)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size != math.prod(shape):
            raise ValueError(f"expected {math.prod(shape)} values, got {vals.size}")
        self.values = vals.reshape(shape)
        self.values.flags.writeable = False
        if self.cells is not None:
            self.cells = np.asarray(self.cells, dtype=np.int64)
            self.cells.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.same_georef(other)
            and self.nodata == other.nodata
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.cells, other.cells)  # None equals None
        )

    def same_georef(self, other: "Grid") -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
        )

    def value_at(self, row: int, col: int) -> float | None:
        """Cell value, or None for a nodata cell."""
        v = values_at(self, row, col)
        return None if v == self.nodata else float(v)

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        x = self.xll + (col + 0.5) * self.cellsize
        y = self.yll + (self.nrows - row - 0.5) * self.cellsize
        return x, y


def _check_georef(ncols: int, nrows: int, xll: float, yll: float, cellsize: float) -> None:
    """Raise ValueError unless a grid of this shape and origin can exist."""
    if ncols < 1 or nrows < 1:
        raise ValueError("grid must have at least one row and one column")
    if not cellsize > 0:
        raise ValueError("cellsize must be positive")
    if not all(map(math.isfinite, (xll, yll, cellsize))):
        raise ValueError("xll, yll and cellsize must be finite")


def _cell_units(grid: Grid, x, y):
    """Position of (x, y) in cells from the south-west corner, as floats or arrays."""
    return (x - grid.xll) / grid.cellsize, (y - grid.yll) / grid.cellsize


def _on_grid(grid: Grid, u, v):
    """Whether positions (u, v) in cell units lie on the grid. Tested in float
    space, before any integer cast: NaN, infinite and overflowing positions
    fail these comparisons, and ``int(u)`` of a position that passes is its
    floor."""
    return (u >= 0) & (u < grid.ncols) & (v >= 0) & (v < grid.nrows)


def cells_of(grid: Grid, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of ``cell_of``: ``(inside, rows, cols)`` for points (x[k], y[k]).

    ``inside`` flags the points on the grid; ``rows`` and ``cols`` hold the
    cells of those points, in point order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _cell_units(grid, np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    inside = _on_grid(grid, u, v)
    return inside, grid.nrows - 1 - v[inside].astype(np.int64), u[inside].astype(np.int64)


def cell_of(grid: Grid, x: float, y: float) -> tuple[int, int] | None:
    """Return the (row, col) of the cell whose footprint contains (x, y).

    Footprints are half-open: a point exactly on the north or east outer
    boundary is outside. Returns None for points off the grid, and for a
    NaN, infinite or overflowing x or y.
    """
    u, v = _cell_units(grid, float(x), float(y))
    return (grid.nrows - 1 - int(v), int(u)) if _on_grid(grid, u, v) else None


def values_at(grid: Grid, rows, cols) -> np.ndarray:
    """The values of the cells (rows, cols), integer arrays of one shape or
    broadcast to one, all on the grid: a windowed grid's cell that is not
    named reads as NaN, a value no full read gives."""
    if grid.cells is None:
        return grid.values[rows, cols]
    flat = rows * grid.ncols + cols
    k = np.searchsorted(grid.cells, flat)  # a cell not named takes the NaN appended at -1
    return np.append(grid.values, np.nan)[np.where(np.append(grid.cells, -1)[k] == flat, k, -1)]


def _require_full(grid: Grid, caller: str) -> None:
    """Raise ValueError naming ``caller`` if ``grid`` was read windowed."""
    if grid.cells is not None:
        raise ValueError(f"{caller} needs a full grid; this one was read windowed (cells=)")


@contextlib.contextmanager
def _open_text(source: str | Path | TextIO, mode: str) -> Iterator[TextIO]:
    """A ``with`` context giving ``source`` as a text stream: a path is opened
    as UTF-8 (reading drops a byte order mark; other bytes that are not UTF-8
    raise ParseError) and closed on exit; a stream is used as it is. Text
    written to a path appears whole or not at all: a new file beside it (or
    its symlink's target) replaces it when the block ends without an
    exception. A FIFO or other non-regular file is written in place."""
    if not isinstance(source, (str, Path)):
        yield source
    elif mode == "w" and os.path.exists(source) and not os.path.isfile(source):
        with open(source, "w", encoding="utf-8", newline="") as f:
            yield f
    elif mode == "w":
        target = os.path.realpath(source)
        tmp = f"{target}.{os.urandom(4).hex()}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8", newline="") as f:  # its mode from the umask
                yield f
            os.replace(tmp, target)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    else:
        try:
            with open(source, mode, encoding="utf-8-sig", newline="") as f:
                yield f
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            message = f"{source} is not UTF-8 text: byte 0x{byte:02x}, {exc.reason}"
            raise ParseError(message) from None


def _csv_rows(source: str | Path | TextIO, name: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(file line number, fields)`` for each CSV line that is not
    blank or a ``#`` comment; with no such line, raise ParseError "empty
    <name>". ``_read_table`` checks the header and converts the fields.

    A line is parsed on its own by ``csv``, so an unbalanced quote never
    joins it to the next; a line ``csv`` rejects (a field over its size
    limit, say) raises ParseError naming the line."""
    pending: list[str] = []  # one reader's input, a line at a time
    reader = csv.reader(map(list.pop, itertools.repeat(pending)))
    with _open_text(source, "r") as stream:
        empty = True
        try:
            for lineno, line in enumerate(stream, start=1):
                text = line.lstrip()
                if text and text[0] != "#":
                    empty = False
                    pending.append(line)
                    try:
                        fields = next(reader)
                    except IndexError:  # a quote left open asked for the next line
                        fields = next(csv.reader([line]))
                    yield lineno, fields
        except csv.Error as exc:
            raise ParseError(f"bad CSV line: {exc}", line=lineno) from None
        if empty:
            raise ParseError(f"empty {name}")


def _finite(text: str, what: str = "value") -> float:
    """``float(text)``, a finite number: ``float()`` decides what is a
    number. Else ValueError "non-numeric <what>" or "non-finite <what>"."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"non-numeric {what}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what}")
    return value


def _number(text: str, what: str, line: int, column: int) -> float:
    """``_finite(text, what)``, its error a ParseError at (line, column)."""
    try:
        return _finite(text, what)
    except ValueError as exc:
        raise ParseError(f"{exc} '{text}'", line=line, column=column) from None


def _code(text: str, least: int = 0) -> int:
    """A table field as an integer class code of magnitude ``least`` to
    2**53 (float64 grids and columns hold every such integer exactly)."""
    try:
        code = int(text)
    except ValueError:
        raise ValueError("non-integer class code") from None
    if not least <= abs(code) <= 2**53:
        raise ValueError("out-of-range class code")
    return code


_text = str.strip  # an id or a label


def _read_table(
    source: str | Path | TextIO, name: str, columns: Sequence[tuple[str, Callable]],
    by_name: bool = False, keep: Callable[[dict[str, str]], object] | None = None,
) -> Iterator[tuple[int, list]]:
    """Yield ``(file line number, values)`` for each row of a CSV table:
    the parse of each of ``columns``, (name, parse) pairs, of its field.

    The header (case-insensitive) starts with the columns' names, and
    fields are read by position; or, ``by_name``, it holds them anywhere
    and a field is read under its name (the last of a repeated one). Other
    fields are ignored. With ``keep``, a row is skipped unless it is true of
    the row's {header name: field}. A row too short for the columns, or a
    field its parse rejects (ValueError), raises ParseError naming the
    table, the line and, for a field, the reason, the text and the column.
    """
    rows = _csv_rows(source, name)
    header_line, header = next(rows)
    names = [h.strip().lower() for h in header]
    wanted = [c for c, _ in columns]
    if not by_name and names[: len(wanted)] != wanted:
        raise ParseError(
            f"expected header '{','.join(wanted)}', got '{','.join(header).strip()}'",
            line=header_line,
        )
    where = {c: k for k, c in enumerate(names if by_name else wanted)}
    for c in wanted:
        if c not in where:
            raise ParseError(f"{name} lacks column '{c}'", line=header_line)
    at = [(where[c], parse) for c, parse in columns]
    width = max(k for k, _ in at) + 1
    for lineno, fields in rows:
        if keep is not None and not keep(dict(zip(names, fields))):
            continue
        try:
            values = [parse(fields[k]) for k, parse in at]
        except (IndexError, ValueError):
            if len(fields) < width:
                raise ParseError(f"expected {width} columns, got {len(fields)} in the {name}",
                                 line=lineno) from None
            for c, (k, parse) in zip(wanted, at):
                try:
                    parse(fields[k])
                except ValueError as exc:
                    raise ParseError(f"{exc} '{fields[k].strip()}' in column '{c}' of the {name}",
                                     line=lineno, column=k + 1) from None
        yield lineno, values


def read_ascii_grid(
    source: str | Path | TextIO, cells: Callable[[Grid], Sequence[int]] | None = None
) -> Grid:
    """Parse an ASCII grid from a path or open text stream.

    ``cells``, when given, is called after the header with a windowed grid
    of the file's georeferencing that names no cell, and returns the sorted
    flat indices of the cells the caller will read (``assess`` names the
    cells under its control points and their 3x3 windows). Only those are
    converted, and the grid returned is windowed: it holds those values
    alone, and ``values_at`` reads any other cell as NaN. Every token is
    still checked, with a full read's error, line and column, and a list
    longer than a fixed share of the grid reads every cell.
    """
    with _open_text(source, "r") as stream:
        return _read_stream(stream, cells, from_path=isinstance(source, (str, Path)))


def _read_stream(
    stream: TextIO, cells: Callable[[Grid], Sequence[int]] | None, from_path: bool
) -> Grid:
    """Read the header a line at a time, at most ``_BLOCK_CHARS`` characters
    a read, then the body: in byte ranges (``_read_parts``) if ``stream`` is
    a path's regular file, else in this process (``_read_body``). A path's
    header that claims more values than the file has bytes for (each needs
    a character and a separator) is an error before anything is allocated.
    """
    header: dict[str, float] = {}
    header_line: dict[str, int] = {}
    lineno = 1  # the line being read
    raw = part = ""  # what is read of that line, and the last read
    read = 0  # UTF-8 bytes of every read (a caller's stream may hold lone surrogates)
    while True:
        last, part = part, stream.readline(_BLOCK_CHARS)
        read += len(part.encode("utf-8", "surrogatepass"))
        if part == "\n" and last.endswith("\r"):  # the LF of a CR LF pair the limit cut
            continue
        raw += part
        ended = not part or raw.endswith(("\n", "\r"))
        word = re.search(r"\S+", raw)
        if word is None or word.group().startswith("#"):  # a blank or comment line
            lineno += ended
            raw = "" if ended or word is None else "#"  # drop it, but remember a comment
        elif ended or word.end() < len(raw):  # the line's first word is whole
            key = word.group().lower()
            if key not in _HEADER_KEYS:
                break  # the body starts: raw is its first piece
            if ended:  # a header line is read whole
                parts = raw.split()
                if key in header:
                    raise ParseError(f"duplicate header keyword '{parts[0]}'", line=lineno)
                if len(parts) != 2:
                    raise ParseError(f"header line '{parts[0]}' needs exactly one value",
                                     line=lineno)
                value = _number(parts[1], "header value", lineno, 2)
                if key in ("ncols", "nrows") and (value < 1 or value != int(value)):
                    raise ParseError(f"{key} must be a positive integer", line=lineno, column=2)
                if key == "cellsize" and value <= 0:
                    raise ParseError("cellsize must be positive", line=lineno, column=2)
                header[key] = value
                header_line[key] = lineno
                raw, lineno = "", lineno + 1
        if not part:
            break

    missing = ", ".join(k for k in _REQUIRED_KEYS if k not in header)
    if missing and raw:
        raise ParseError(f"body starts before header keyword(s): {missing}", line=lineno)
    if missing:
        raise ParseError(f"missing header keyword(s): {missing}")

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    georef = dict(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header.get("nodata_value", DEFAULT_NODATA),
    )
    expected = nrows * ncols
    size = _file_size(stream)
    if size is not None and 2 * expected - 1 > size:  # a value and a separator each
        raise ParseError(
            f"header claims {ncols} x {nrows} = {expected} values, more than a file of "
            f"{size} bytes can hold", line=max(header_line["ncols"], header_line["nrows"])
        )
    index = None
    if cells is not None:
        index = np.asarray(cells(Grid(**georef, values=(), cells=())), dtype=np.int64)
        if index.size > _DENSE_FRACTION * expected:
            index = None
    try:  # untouched until read: a body that is short fails before the pages are used
        values = np.empty(expected if index is None else index.size)
        if index is not None and size is None:  # no file size bounds the claim, so it
            np.empty(expected)  # must fit as a full read's would, before the body is read
    except (MemoryError, ValueError):  # ValueError: more than numpy can index
        raise ParseError(f"a grid of {expected} values needs {8 * expected} bytes, "
                         "more memory than can be allocated") from None
    lo = read - len(raw.encode("utf-8", "surrogatepass"))  # the body's offset, less any BOM
    if not (from_path and size is not None
            and _read_parts(stream.fileno(), lo, size, expected, values, index)):
        _read_body(iter(lambda: stream.read(_BLOCK_CHARS), ""), raw, lineno, expected,
                   values, index)
    return Grid(**georef, values=values, cells=index)


def _read_parts(fd: int, lo: int, hi: int, expected: int, values: np.ndarray,
                cells: np.ndarray | None) -> bool:
    """Read the body of ``expected`` tokens, bytes [lo, hi) of the file open
    as ``fd``, into ``values`` (as ``_read_body`` does) in byte ranges, one
    per CPU this process may run on with at least ``_READ_BYTES`` each, each
    cut just after a line end (else a blank). ``lo`` is the UTF-8 length of
    what the header loop read (a path's text keeps every line end as it
    is), not counting a byte order mark. Counting a range's tokens from its
    bytes (every byte up to 32 separates) gives the index of its first
    cell. ``_read_body`` reads each range into its slice of ``values``, the
    first here and each other in a forked child (``_map_parts``).

    A range that is not clean (a bad token, a count other than the one
    counted, bytes that are not UTF-8) raises: ``_map_parts`` runs a failed
    child's range again here and kills the other children. Return False
    then, or when the body is too small to pay for the forks, and the
    caller reads the body again in this process alone, so values, errors,
    lines and columns do not depend on the number of workers. The file's
    offset is left where it was."""
    lo += 3 * (os.pread(fd, 3, 0) == codecs.BOM_UTF8)  # utf-8-sig dropped it from the text
    workers = _worker_count((hi - lo) // _READ_BYTES, hi - lo, _READ_BYTES)
    if workers < 2:
        return False
    bounds = [lo]
    for k in range(1, workers):  # cut after the last blank before each k-th share
        end = lo + k * (hi - lo) // workers
        at = max(bounds[-1], end - _BLOCK_CHARS)
        cut = _cut(os.pread(fd, end - at, at).decode("ascii", "replace"))
        bounds += [at + cut] * (cut > 0)
    bounds.append(hi)
    counts = [_tokens(fd, a, b) for a, b in zip(bounds, bounds[1:])]
    if len(counts) < 2 or sum(counts) != expected or 0 in counts:
        return False
    first = dict(zip(bounds, np.cumsum([0] + counts).tolist()))

    def read(a: int, b: int, send: Callable[[bytes], object]) -> None:
        cut = (first[a], first[b])  # the range's cells, and where they go in values
        span = slice(*cut) if cells is None else slice(*np.searchsorted(cells, cut))
        _read_body(_range_text(fd, a, b), "", 0, cut[1] - cut[0], values[span],
                   None if cells is None else cells[span] - cut[0])
        send(memoryview(values[span]).cast("B"))  # an empty send is a clean range too

    # the values land in place, range 0's onto themselves
    view, got = memoryview(values).cast("B"), 0

    def out(chunk: bytes) -> None:
        nonlocal got
        view[got : got + len(chunk)] = chunk
        got += len(chunk)

    try:
        _map_parts(read, [out], bounds, workers, "bytes")
    except (ParseError, UnicodeDecodeError):  # a range that is not clean, rerun here
        return False
    return True


def _range_text(fd: int, lo: int, hi: int) -> Iterator[str]:
    """Bytes [lo, hi) of the file open as ``fd`` as UTF-8 text, a block at a
    time (``os.pread`` leaves the offset, shared with forked children, alone)."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    for at in range(lo, hi, _BLOCK_CHARS):
        if text := decode(os.pread(fd, min(_BLOCK_CHARS, hi - at), at), at + _BLOCK_CHARS >= hi):
            yield text


def _tokens(fd: int, lo: int, hi: int) -> int:
    """The tokens in bytes [lo, hi) of the file open as ``fd``, taking every
    byte up to 32 as a separator; ``lo`` starts a token or follows a
    separator."""
    n, word = 0, np.zeros(1, dtype=bool)  # whether the byte before is in a token
    for at in range(lo, hi, _BLOCK_CHARS):
        chunk = np.frombuffer(os.pread(fd, min(_BLOCK_CHARS, hi - at), at), dtype=np.uint8)
        word = np.concatenate((word[-1:], chunk > 32))
        n += int(np.count_nonzero(word[1:] > word[:-1]))
    return n


def _cut(text: str) -> int:
    """How much of ``text``, which more text follows, to convert: up to its
    last line end (never between CR and LF), else up to its last blank (a
    character ``str.isspace`` accepts, as ``str.split`` does), else none."""
    end = len(text) - text.endswith("\r")  # the LF of a last CR may follow
    cut = 1 + max(text.rfind("\n"), text.rfind("\r", 0, end))
    if cut or not end or text[end - 1].isspace():
        return cut or end
    return end - len(text.rsplit(None, 1)[-1])


def _read_body(reads: Iterator[str], text: str, lineno: int, expected: int, values: np.ndarray,
               cells: np.ndarray | None) -> None:
    """Convert the grid body of ``expected`` tokens, which starts with
    ``text`` on file line ``lineno`` and goes on with ``reads``, into
    ``values``: all, or token ``cells[j]`` into ``values[j]`` given sorted
    flat indices ``cells``. Each read, whatever the layout (a row per line,
    wrapped, all on one line), is converted up to its last line end or
    blank (``_cut``) and the rest carried into the next, so the reader
    holds ``values`` plus about one read.

    With ``cells``, a piece whose tokens ``_scan`` finds all plain decimals
    is checked with array operations on its bytes and only the named
    tokens are converted; any other piece is converted whole, so a bad
    token gives the same error, line and column whichever cells were
    named. Every piece is counted, also after a bad one, so a wrong count
    wins over a bad token, whose line and column come from re-scanning
    only its piece.
    """
    got = column = 0  # values so far, and values so far on line lineno
    bad = None  # (line, column, piece) of the first piece with a bad token
    for more in itertools.chain(reads, [""]):  # "": the end
        text += more
        cut = _cut(text) if more else len(text)  # at the end of the stream, all of it
        piece, text = text[:cut], text[cut:]
        spans = None if cells is None else _scan(piece)
        tokens = piece.split() if spans is None else None
        n = len(tokens) if spans is None else spans[0].size
        # values[lo:hi] takes the piece's tokens k: all, or the named ones
        lo, hi = (got, got + n) if cells is None else np.searchsorted(cells, (got, got + n))
        k = slice(None) if cells is None else cells[lo:hi] - got
        if spans is not None:  # plain decimals: convert only the named tokens
            at = zip(spans[0][k].tolist(), spans[1][k].tolist())
            values[lo:hi] = [float(piece[a:b]) for a, b in at]
        elif bad is None and got + n <= expected:
            if (parsed := _convert(tokens)) is None:
                bad = (lineno, column, piece)
            else:
                values[lo:hi] = parsed[k]
        del tokens  # before the next read: one token list at a time
        got += n
        lines = _line_ends(piece)
        lineno, column = lineno + lines, 0 if lines else column + n
    if got != expected:
        raise ParseError(f"expected {expected} values, got {got}")
    if bad is not None:
        lineno, column, piece = bad
        for line in re.split(r"\r\n?|\n", piece):
            for k, token in enumerate(re.finditer(r"\S+", line), start=column + 1):
                _number(token.group(), "token", lineno, k)
            lineno, column = lineno + 1, 0


def _line_ends(text: str) -> int:
    """The number of LF, CR LF and lone CR line ends in ``text``."""
    # numpy counts bytes faster than str.count; UTF-8 uses 10 and 13 for nothing else
    b = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if "\r" not in text:  # the common case: one array less to allocate and scan
        return int(np.count_nonzero(b == 10))
    lone_cr = np.count_nonzero((b[:-1] == 13) & (b[1:] != 10)) + (text[-1:] == "\r")
    return int(np.count_nonzero(b == 10) + lone_cr)


def _file_size(stream: TextIO) -> int | None:
    """The size in bytes of the regular file under ``stream``; None for
    anything else (a pipe, a terminal, an in-memory stream)."""
    try:
        info = os.fstat(stream.fileno())
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None
    return info.st_size if stat.S_ISREG(info.st_mode) else None


def _scan(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Start and end offsets of the tokens of ``text`` when every token is
    a plain decimal ``[+-]?(D+(.D*)?|.D+)`` of at most ``_MAX_TOKEN``
    characters, which ``float()`` turns into a finite value; None when
    some token may not be (the caller then converts the text in full)."""
    if not text.isascii():
        return None
    # one whitespace byte on each side, so each byte has two neighbours
    c = np.frombuffer(f" {text} ".encode("ascii").translate(_CLASSES), dtype=np.uint8)
    if c.max() == _OTHER:
        return None
    ws = c == _WS
    sign = c == _SIGN
    dot = c == _DOT
    digit = c == _DIGIT
    if (
        (sign[1:] & ~ws[:-1]).any()  # a sign not at a token's start
        or (sign[:-1] & ws[1:]).any()  # a sign alone
        or (dot[1:-1] & ~digit[:-2] & ~digit[2:]).any()  # a dot with no digit next to it
    ):
        return None
    # edge k lies between padded bytes k and k+1, that is before text[k]
    edges = np.flatnonzero(ws[:-1] != ws[1:])
    starts, ends = edges[0::2], edges[1::2]
    if starts.size and (ends - starts).max() > _MAX_TOKEN:
        return None
    token_of_dot = np.searchsorted(starts, np.flatnonzero(dot), side="right")
    if (token_of_dot[1:] == token_of_dot[:-1]).any():  # two dots in one token
        return None
    return starts, ends


def _convert(tokens: list[str]) -> np.ndarray | None:
    """``tokens`` as float64 values; None if one is not a finite number."""
    # map(float) keeps Python's number syntax whatever the numpy version.
    try:
        parsed = np.fromiter(map(float, tokens), np.float64, count=len(tokens))
    except ValueError:
        return None
    return parsed if np.isfinite(parsed).all() else None


def _grid_text(values: np.ndarray) -> bytes:
    """The rows of 2-D ``values`` as grid text, a line each (see
    ``_gridtext``). Commands that write no grid never import the kernel."""
    from ._gridtext import grid_text

    return grid_text(values)


def _check_finite(blocks: Sequence[np.ndarray], row: int) -> None:
    """Raise NonFiniteGridError naming the first NaN or infinite value of
    the first of ``blocks`` (the same rows, from ``row`` on, of one or more
    grids) that holds one."""
    for values in blocks:
        if not np.isfinite(values).all():
            r, c = (int(k[0]) for k in np.nonzero(~np.isfinite(values)))
            raise NonFiniteGridError(
                f"cannot write non-finite value {values[r, c]} at row {row + r}, column {c}"
            )


def write_ascii_grid(
    grid: Grid,
    dest: str | Path | TextIO | Sequence[str | Path | TextIO],
    comment: str | None = None,
    rows: Callable[[int, int], np.ndarray | Sequence[np.ndarray]] | None = None,
) -> None:
    """Write a grid as ASCII text, or several grids of its georeferencing.

    ``dest`` is one destination, or a list or tuple of them, each written
    with the grid's header; the paths among them replace their targets
    together, or none does. ``comment`` (optional) is emitted as leading
    ``#`` lines; the reader skips them, so round-tripping is unaffected.
    ``rows(lo, hi)``, if given, gives the values of rows lo..hi-1 in place
    of ``grid.values``, a block of rows at a time: one array, or one per
    destination of a list or tuple (slope and aspect from one Horn pass,
    say). A NaN or infinite value raises NonFiniteGridError naming its row
    and column (0-based from the top-left cell) before its block is written
    (a stream keeps the rows before it), and before anything is if it is in
    ``grid.values``. The value named is in the first block of
    ``_WRITE_CELLS // ncols`` rows, counted from row 0, that holds one: the
    first output's first there, else the next output's, whatever the
    number of workers. With enough cells the rows are formatted in strips
    by forked workers; a worker that fails otherwise raises
    ChildProcessError naming its rows.

    The body is formatted in row strips of whole blocks, of at most
    ``_PART_CELLS`` cells over all outputs (or one block), at least one per
    CPU this process may run on, by one function that takes a strip's
    values a block at a time, checks them and sends each output its text.
    This process writes each block of the first strip as it comes; a forked
    worker per other strip (``_map_parts``, at most one per CPU alive)
    keeps its text, which is copied on in strip order, a bounded chunk at a
    time. Grids written to paths appear whole or not at all, all of one
    write together (see ``_open_text``).
    """
    _require_full(grid, "write_ascii_grid")
    _check_finite([grid.values], 0)
    if not math.isfinite(grid.nodata):
        raise NonFiniteGridError(f"cannot write non-finite nodata {grid.nodata}")
    several = isinstance(dest, (list, tuple))
    dests = list(dest) if several else [dest]
    if rows is None:
        blocks = lambda lo, hi: [grid.values[lo:hi]] * len(dests)
    else:
        blocks = rows if several else lambda lo, hi: [rows(lo, hi)]
    step = max(1, _WRITE_CELLS // grid.ncols)  # rows per block

    def strip(lo: int, hi: int, *sends: Callable[[bytes], object]) -> None:
        for at in range(lo, hi, step):  # lo is a block's first row
            block = blocks(at, min(at + step, hi))
            _check_finite(block, at)
            for values, send in zip(block, sends):
                send(_grid_text(values))

    head = "".join(f"# {ln}\n" for ln in (comment or "").splitlines())
    head += f"ncols {grid.ncols}\nnrows {grid.nrows}\n" + "".join(
        f"{key} {_grid_text(np.array([[value]])).decode()}" for key, value in (
            ("xllcorner", grid.xll), ("yllcorner", grid.yll),
            ("cellsize", grid.cellsize), ("NODATA_value", grid.nodata)))
    nblocks = -(-grid.nrows // step)
    workers = _worker_count(nblocks, grid.values.size * len(dests), 2 * _WRITE_CELLS)
    parts = max(workers, -(-nblocks // max(1, _PART_CELLS // (step * grid.ncols * len(dests)))))
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(_open_text(d, "w")) for d in dests]
        for stream in streams:
            stream.write(head)
        outs = [lambda chunk, s=s: s.write(chunk.decode("ascii")) for s in streams]
        cuts = [min(k * nblocks // parts * step, grid.nrows) for k in range(parts + 1)]
        _map_parts(strip, outs, cuts, workers, "rows")
        for stream in streams:  # a full disk fails here, before any path replaces its target
            stream.flush()
