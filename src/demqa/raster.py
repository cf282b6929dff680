"""Single-band grid model and ASCII grid I/O.

The on-disk format is the plain-text grid used by most GIS packages: six
keyword/value header lines (``ncols``, ``nrows``, ``xllcorner``,
``yllcorner``, ``cellsize``, optional ``NODATA_value``) followed by
``nrows * ncols`` whitespace-separated values, northernmost row first.
Keywords are case-insensitive; LF and CRLF both accepted; lines starting
with ``#`` before the header are skipped (provenance comments).

Values are written with shortest round-trip precision, so
``read(write(g))`` reproduces ``g`` exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

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


def cell_of(grid: Grid, x: float, y: float) -> tuple[int, int] | None:
    """Return the (row, col) of the cell whose footprint contains (x, y).

    Footprints are half-open: a point exactly on the north or east outer
    boundary is outside. Returns None for points off the grid.
    """
    col = int(np.floor((x - grid.xll) / grid.cellsize))
    row_from_south = int(np.floor((y - grid.yll) / grid.cellsize))
    row = grid.nrows - 1 - row_from_south
    if col < 0 or col >= grid.ncols or row < 0 or row >= grid.nrows:
        return None
    return row, col


def _open_text(source, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8", newline=""), True
    return source, False


def read_ascii_grid(source: str | Path | TextIO) -> Grid:
    """Parse an ASCII grid from a path or open text stream."""
    stream, owned = _open_text(source, "r")
    try:
        return _read_stream(stream)
    finally:
        if owned:
            stream.close()


def _read_stream(stream: TextIO) -> Grid:
    header: dict[str, float] = {}
    body_tokens: list[str] = []
    body_positions: list[tuple[int, int]] = []
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
    stream, owned = _open_text(dest, "w")
    try:
        if comment:
            for ln in comment.splitlines():
                stream.write(f"# {ln}\n")
        stream.write(f"ncols {grid.ncols}\n")
        stream.write(f"nrows {grid.nrows}\n")
        stream.write(f"xllcorner {_fmt(grid.xll)}\n")
        stream.write(f"yllcorner {_fmt(grid.yll)}\n")
        stream.write(f"cellsize {_fmt(grid.cellsize)}\n")
        stream.write(f"NODATA_value {_fmt(grid.nodata)}\n")
        for r in range(grid.nrows):
            stream.write(" ".join(_fmt(v) for v in grid.values[r]))
            stream.write("\n")
    finally:
        if owned:
            stream.close()


def dumps_ascii_grid(grid: Grid) -> str:
    """Serialize a grid to an ASCII text string."""
    buf = io.StringIO()
    write_ascii_grid(grid, buf)
    return buf.getvalue()
