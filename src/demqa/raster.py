"""Single-band grid model and ASCII grid I/O.

The on-disk format is the plain-text grid used by most GIS packages: six
keyword/value header lines (``ncols``, ``nrows``, ``xllcorner``,
``yllcorner``, ``cellsize``, optional ``NODATA_value``) followed by
``nrows * ncols`` whitespace-separated values, northernmost row first.
Keywords are case-insensitive; LF and CRLF both accepted; lines starting
with ``#`` before the header are skipped (provenance comments). A file may
start with a UTF-8 byte order mark. Every value must be a finite number,
``ncols``/``nrows`` positive integers and ``cellsize`` positive; the reader
raises ParseError naming the line (and column) of the first that is not.

Values are written with shortest round-trip precision, so
``read(write(g))`` reproduces ``g`` exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import NonFiniteGridError, ParseError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_REQUIRED_KEYS = _HEADER_KEYS[:5]


@dataclass(eq=False)
class Grid:
    """A georeferenced single-band raster.

    ``values`` has shape (nrows, ncols) with row 0 the northernmost row.
    Cells equal to ``nodata`` are missing and never enter statistics.
    Grids are treated as immutable after construction; the value array is
    marked read-only so they can be shared across threads.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    values: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("grid must have at least one row and one column")
        if self.cellsize <= 0:
            raise ValueError("cellsize must be positive")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size != self.nrows * self.ncols:
            raise ValueError(
                f"expected {self.nrows * self.ncols} values, got {vals.size}"
            )
        vals = vals.reshape(self.nrows, self.ncols)
        vals.flags.writeable = False
        self.values = vals

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
            and self.nodata == other.nodata
            and np.array_equal(self.values, other.values)
        )

    def same_georef(self, other: "Grid") -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
        )

    def is_nodata(self, row: int, col: int) -> bool:
        return self.values[row, col] == self.nodata

    def value_at(self, row: int, col: int) -> float | None:
        """Cell value, or None for a nodata cell."""
        v = self.values[row, col]
        return None if v == self.nodata else float(v)

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        x = self.xll + (col + 0.5) * self.cellsize
        y = self.yll + (self.nrows - row - 0.5) * self.cellsize
        return x, y

    @property
    def mask(self) -> np.ndarray:
        """Boolean array, True where data is valid."""
        return self.values != self.nodata


@dataclass
class MultibandGrid:
    """An ordered stack of grids sharing identical georeferencing."""

    bands: list[Grid] = field(default_factory=list)

    def __post_init__(self):
        if not self.bands:
            raise ValueError("at least one band required")
        first = self.bands[0]
        for i, b in enumerate(self.bands[1:], start=2):
            if not first.same_georef(b):
                raise ValueError(f"band {i} georeferencing differs from band 1")

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def ncols(self) -> int:
        return self.bands[0].ncols

    @property
    def nrows(self) -> int:
        return self.bands[0].nrows


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


def _open_text(source: str | Path | TextIO, mode: str):
    """A ``with`` context giving ``source`` as a text stream: a path is opened
    as UTF-8 (reading also drops a leading byte order mark) and closed on
    exit; an open stream is used as it is and left open."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8-sig" if mode == "r" else "utf-8", newline="")
    return contextlib.nullcontext(source)


def _csv_rows(source: str | Path | TextIO, name: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(file line number, fields)`` for each CSV line that is not
    blank or a ``#`` comment; with no such line, raise ParseError "empty
    <name>". Each reader checks its own header and rows."""
    with _open_text(source, "r") as stream:
        empty = True
        for lineno, line in enumerate(stream, start=1):
            if line.strip() and not line.lstrip().startswith("#"):
                empty = False
                yield lineno, next(csv.reader([line]))
        if empty:
            raise ParseError(f"empty {name}")


def read_ascii_grid(source: str | Path | TextIO) -> Grid:
    """Parse an ASCII grid from a path or open text stream."""
    with _open_text(source, "r") as stream:
        return _read_stream(stream)


def _read_stream(stream: TextIO) -> Grid:
    header: dict[str, float] = {}
    body: list[str] = []
    lines = iter(stream)
    lineno = 0
    for raw in lines:
        lineno += 1
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0].lower()
        if key not in _HEADER_KEYS:
            body = [raw, *lines]  # the first value's line (``lineno``) and the rest
            break
        if key in header:
            raise ParseError(f"duplicate header keyword '{parts[0]}'", line=lineno)
        if len(parts) != 2:
            raise ParseError(f"header line '{parts[0]}' needs exactly one value", line=lineno)
        value = _number(parts[1], "header value", lineno, 2)
        if key in ("ncols", "nrows") and (value < 1 or value != int(value)):
            raise ParseError(f"{key} must be a positive integer", line=lineno, column=2)
        if key == "cellsize" and value <= 0:
            raise ParseError("cellsize must be positive", line=lineno, column=2)
        header[key] = value

    missing = ", ".join(k for k in _REQUIRED_KEYS if k not in header)
    if missing and body:
        raise ParseError(f"body starts before header keyword(s): {missing}", line=lineno)
    if missing:
        raise ParseError(f"missing header keyword(s): {missing}")

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    expected = nrows * ncols
    tokens = "".join(body).split()
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} values, got {len(tokens)}")
    # map(float) keeps Python's number syntax whatever the numpy version.
    try:
        values = np.fromiter(map(float, tokens), np.float64, count=expected)
        finite = bool(np.isfinite(values).all())
    except ValueError:
        finite = False
    if not finite:  # re-scan the body for the first bad token's position
        for n, line in enumerate(body, start=lineno):
            for col, tok in enumerate(line.split(), start=1):
                _number(tok, "token", n, col)

    return Grid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header.get("nodata_value", DEFAULT_NODATA),
        values=values,
    )


def _number(text: str, what: str, line: int, column: int) -> float:
    """``float(text)``; a ParseError at (line, column) if it is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {what} '{text}'", line=line, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} '{text}'", line=line, column=column)
    return value


def _fmt(v: float) -> str:
    # repr() of a Python float is the shortest decimal that round-trips.
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def write_ascii_grid(grid: Grid, dest: str | Path | TextIO, comment: str | None = None) -> None:
    """Write a grid as ASCII text.

    ``comment`` (optional) is emitted as leading ``#`` lines; the reader
    skips them, so round-tripping is unaffected. A NaN or infinite value
    raises NonFiniteGridError naming its row and column (0-based from the
    top-left cell) before anything is written.
    """
    if not np.isfinite(grid.values).all():
        r, c = (int(k[0]) for k in np.nonzero(~np.isfinite(grid.values)))
        raise NonFiniteGridError(
            f"cannot write non-finite value {grid.values[r, c]} at row {r}, column {c}"
        )
    for name in ("xll", "yll", "cellsize", "nodata"):
        if not math.isfinite(getattr(grid, name)):
            raise NonFiniteGridError(f"cannot write non-finite {name} {getattr(grid, name)}")
    with _open_text(dest, "w") as stream:
        if comment:
            for ln in comment.splitlines():
                stream.write(f"# {ln}\n")
        stream.write(f"ncols {grid.ncols}\n")
        stream.write(f"nrows {grid.nrows}\n")
        stream.write(f"xllcorner {_fmt(grid.xll)}\n")
        stream.write(f"yllcorner {_fmt(grid.yll)}\n")
        stream.write(f"cellsize {_fmt(grid.cellsize)}\n")
        stream.write(f"NODATA_value {_fmt(grid.nodata)}\n")
        for row in grid.values:
            # Adding 0.0 turns -0.0 into 0.0; dropping the ".0" that repr()
            # leaves on integral values below 1e16 gives _fmt's text per cell.
            line = " ".join(map(repr, (row + 0.0).tolist())) + "\n"
            stream.write(line.replace(".0 ", " ").replace(".0\n", "\n"))


def dumps_ascii_grid(grid: Grid) -> str:
    """Serialize a grid to an ASCII text string."""
    buf = io.StringIO()
    write_ascii_grid(grid, buf)
    return buf.getvalue()
