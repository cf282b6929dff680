"""Joining ground control points with DEM heights, classes and derivatives.

The join is columnar. A ``SampleTable`` holds one row per control point:
a list of ids and one numpy array per value column. Every stage -- the
GCP reader, extraction, class and derivative attachment, and the screens
in :mod:`demqa.screen` -- takes a table and returns a new one, with the
same arithmetic per point that a loop over the points would do.

A value that could not be extracted (point off the grid, nodata cell) is
NaN in its column. Rows read back as ``SampleRecord`` with None there, so
a missing value never leaks into statistics as a sentinel number.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import ConfigError, ParseError
from .raster import Grid, _csv_rows, cells_of
from .terrain import slope_aspect_at

EXTRACTION_METHODS = ("nearest", "bilinear")

# The value columns of a table, in SampleRecord field order.
COLUMNS = ("x", "y", "h_ref", "h_dem", "delta_h", "class_code", "slope_deg", "aspect_deg")


@dataclass(frozen=True)
class ControlPoint:
    """A surveyed reference point with a trusted orthometric height."""

    id: str
    x: float
    y: float
    h_ref: float


@dataclass(frozen=True)
class SampleRecord:
    """A control point joined with everything extracted at its location.

    ``delta_h`` is DEM height minus reference height. ``aspect_deg`` is
    in [0, 360) clockwise from north, or -1 for flat cells. Any field
    that could not be extracted is None.
    """

    id: str
    x: float
    y: float
    h_ref: float
    h_dem: float | None = None
    delta_h: float | None = None
    class_code: int | None = None
    slope_deg: float | None = None
    aspect_deg: float | None = None


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Control points and what was extracted at them, one column per field.

    ``ids`` is a list; the ``COLUMNS`` are float64 arrays of the same
    length, NaN where a value is missing (a column left out is all
    missing). ``class_code`` holds integer codes as floats, exact up to
    2**53. ``status`` is each row's screening fate as ``samples.csv``
    reports it: ``kept`` (the default), ``removed_validity`` or
    ``removed_outlier``. Indexing and iteration give rows as ``SampleRecord``.
    """

    ids: list[str]
    x: np.ndarray
    y: np.ndarray
    h_ref: np.ndarray
    h_dem: np.ndarray | None = None
    delta_h: np.ndarray | None = None
    class_code: np.ndarray | None = None
    slope_deg: np.ndarray | None = None
    aspect_deg: np.ndarray | None = None
    status: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.ids)
        object.__setattr__(self, "ids", list(self.ids))
        for name in COLUMNS:
            col = getattr(self, name)
            col = np.full(n, np.nan) if col is None else np.asarray(col, dtype=np.float64)
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
            object.__setattr__(self, name, col)
        status = np.full(n, "kept") if self.status is None else self.status
        object.__setattr__(self, "status", np.asarray(status, dtype=str))

    @classmethod
    def of(cls, rows: SampleTable | Iterable[ControlPoint | SampleRecord]) -> SampleTable:
        """``rows`` as a table: a table as it is, control points or sample
        records (a field a row lacks, or holds as None, is missing)."""
        if isinstance(rows, SampleTable):
            return rows
        rows = list(rows)
        return cls(
            ids=[r.id for r in rows],
            **{c: [getattr(r, c, None) for r in rows] for c in COLUMNS},
        )

    @classmethod
    def concat(cls, tables: Sequence[SampleTable]) -> SampleTable:
        """The rows of ``tables``, one table after the other."""
        return cls(
            ids=[i for t in tables for i in t.ids],
            status=np.concatenate([t.status for t in tables]),
            **{c: np.concatenate([getattr(t, c) for t in tables]) for c in COLUMNS},
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> SampleRecord:
        return _record(self.ids[k], [getattr(self, c)[k].item() for c in COLUMNS])

    def __iter__(self) -> Iterator[SampleRecord]:
        return map(_record, self.ids, zip(*(getattr(self, c).tolist() for c in COLUMNS)))

    def take(self, index) -> SampleTable:
        """The rows at ``index`` -- a boolean mask or row positions -- in that order."""
        index = np.asarray(index)
        index = np.flatnonzero(index) if index.dtype == bool else index.astype(np.intp)
        return SampleTable(
            ids=[self.ids[k] for k in index.tolist()],
            status=self.status[index],
            **{c: getattr(self, c)[index] for c in COLUMNS},
        )

    def split(self, drop: np.ndarray, status: str) -> tuple[SampleTable, SampleTable]:
        """(the rows not flagged in ``drop``, the flagged rows with ``status``)."""
        removed = self.take(drop)
        return self.take(~drop), dataclasses.replace(removed, status=np.full(len(removed), status))


def _record(pid: str, values: Sequence[float]) -> SampleRecord:
    """A row of COLUMNS values as a SampleRecord, None where NaN."""
    row = [None if v != v else v for v in values]
    if row[5] is not None:
        row[5] = int(row[5])  # class_code
    return SampleRecord(pid, *row)


def read_gcp_csv(source: str | Path | TextIO) -> SampleTable:
    """Read control points from CSV with header ``id,x,y,h`` into a table.

    Lines starting with ``#`` are skipped. Point ids must be unique and
    x, y and h finite numbers.
    """
    rows = _csv_rows(source, "control point file")
    header_line, header_fields = next(rows)
    header = [h.strip().lower() for h in header_fields]
    if header[:4] != ["id", "x", "y", "h"]:
        raise ParseError(
            f"expected header 'id,x,y,h', got '{','.join(header_fields).strip()}'",
            line=header_line,
        )
    ids: list[str] = []
    xyh: list[tuple[float, float, float]] = []
    seen: set[str] = set()
    for lineno, fields in rows:
        if len(fields) < 4:
            raise ParseError(f"expected 4 columns, got {len(fields)}", line=lineno)
        pid = fields[0].strip()
        if pid in seen:
            raise ParseError(f"duplicate point id '{pid}'", line=lineno)
        seen.add(pid)
        try:
            values = (float(fields[1]), float(fields[2]), float(fields[3]))
        except ValueError as exc:
            raise ParseError(f"non-numeric coordinate or height: {exc}", line=lineno) from None
        if not all(map(math.isfinite, values)):
            col = next(c for c, v in enumerate(values, start=2) if not math.isfinite(v))
            raise ParseError(
                f"non-finite value '{fields[col - 1].strip()}'", line=lineno, column=col
            )
        ids.append(pid)
        xyh.append(values)
    x, y, h = np.array(xyh, dtype=np.float64).reshape(-1, 3).T.copy()
    return SampleTable(ids=ids, x=x, y=y, h_ref=h)


def extract_coincident(
    dem: Grid, points: SampleTable | Sequence[ControlPoint], method: str = "nearest"
) -> SampleTable:
    """Extract the DEM height at each control point.

    ``nearest`` takes the containing cell's value; ``bilinear``
    interpolates between the four nearest cell centres. Points off the
    grid (a NaN, infinite or overflowing coordinate included), on nodata
    (nearest), or whose interpolation touches a nodata or off-grid corner
    with nonzero weight (bilinear) get h_dem missing.
    """
    if method not in EXTRACTION_METHODS:
        raise ConfigError(f"unknown extraction method '{method}'")
    table = SampleTable.of(points)
    sampler = _sample_nearest if method == "nearest" else _sample_bilinear
    h = sampler(dem, table.x, table.y)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = h - table.h_ref
    return dataclasses.replace(table, h_dem=h, delta_h=delta)


def _sample_nearest(grid: Grid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    inside, rows, cols = cells_of(grid, x, y)
    h = np.full(x.shape, np.nan)
    v = grid.values[rows, cols]
    h[inside] = np.where(v == grid.nodata, np.nan, v)
    return h


def _sample_bilinear(grid: Grid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        # Position in cell-centre index space: u along columns, v along rows
        # counted from the south so the y axis keeps its sign.
        u = (x - grid.xll) / grid.cellsize - 0.5
        v = (y - grid.yll) / grid.cellsize - 0.5
        c0 = np.floor(u)
        r0s = np.floor(v)
        fu = u - c0
        fv = v - r0s
        total = np.zeros(x.shape)
        ok = np.ones(x.shape, dtype=bool)
        # Corners in (dc, dr) order, each added to the running total of its
        # point; a zero weight skips its corner, even off the grid.
        for dc, wu in ((0, 1.0 - fu), (1, fu)):
            for dr, wv in ((0, 1.0 - fv), (1, fv)):
                w = wu * wv
                col = c0 + dc
                row = grid.nrows - 1 - (r0s + dr)
                used = w != 0.0  # a NaN weight (non-finite point) is used
                on = (col >= 0) & (col < grid.ncols) & (row >= 0) & (row < grid.nrows)
                ok &= on | ~used
                take = used & on
                val = grid.values[row[take].astype(np.int64), col[take].astype(np.int64)]
                ok[np.flatnonzero(take)[val == grid.nodata]] = False
                total[take] += w[take] * val
    return np.where(ok, total, np.nan)


def attach_class(
    classmap: Grid,
    samples: SampleTable | Sequence[SampleRecord],
    remap: Mapping[int, int] | None = None,
) -> SampleTable:
    """Set each row's land-cover code from the containing cell.

    ``remap`` then replaces each code that is one of its keys by its
    value. Points off the map or on nodata keep class_code missing. A cell
    value that is not an integer raises ParseError naming the first such
    point in table order.
    """
    table = SampleTable.of(samples)
    codes = _sample_nearest(classmap, table.x, table.y)
    bad = ~np.isnan(codes) & ~(np.isfinite(codes) & (codes == np.floor(codes)))
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(
            f"class map value {float(codes[k])!r} at point '{table.ids[k]}' "
            "is not an integer code"
        )
    if remap:
        found = codes.copy()
        for src, dst in remap.items():
            codes[found == src] = dst
    return dataclasses.replace(table, class_code=codes)


def attach_derivatives(
    dem: Grid, samples: SampleTable | Sequence[SampleRecord], z_factor: float = 1.0
) -> SampleTable:
    """Set slope and aspect from the DEM cell containing each row.

    Horn's kernel runs only at those cells, in one ``slope_aspect_at``
    call, with the values ``slope_aspect`` gives them. Points off the grid
    or on a nodata cell keep them missing.
    """
    table = SampleTable.of(samples)
    inside, rows, cols = cells_of(dem, table.x, table.y)
    derivs = slope_aspect_at(dem, rows, cols, z_factor)
    columns = np.full((2, len(table)), np.nan)
    columns[:, inside] = np.array(derivs, dtype=np.float64)  # None (nodata) becomes NaN
    return dataclasses.replace(table, slope_deg=columns[0], aspect_deg=columns[1])
