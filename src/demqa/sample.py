"""Joining ground control points with DEM heights, classes and derivatives.

The join is columnar. A ``SampleTable`` holds one row per control point:
a list of ids and one numpy array per value column. Every stage -- the
GCP reader, extraction, class and derivative attachment, and the screens
in :mod:`demqa.screen` -- takes a table and returns a new one, with the
same arithmetic per point that a loop over the points would do.

A value that could not be extracted (point off the grid, nodata cell) is
NaN in its column, never a sentinel number that could leak into
statistics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, TextIO

import numpy as np

from .choices import EXTRACTION_METHODS
from .errors import ConfigError, ParseError
from .raster import Grid, _finite, _read_table, _text, cells_of, values_at
from .terrain import slope_aspect_at

# The value columns of a table, in field order.
COLUMNS = ("x", "y", "h_ref", "h_dem", "delta_h", "class_code", "slope_deg", "aspect_deg")
GCP_COLUMNS = (("id", _text), ("x", _finite), ("y", _finite), ("h", _finite))


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Control points and what was extracted at them, one column per field.

    ``ids`` is a list; the ``COLUMNS`` are float64 arrays of the same
    length, NaN where a value is missing (a column left out is all
    missing). ``class_code`` holds integer codes as floats, exact up to
    2**53. ``status`` is each row's screening fate as ``samples.csv``
    reports it: ``kept`` (the default), ``removed_validity`` or
    ``removed_outlier``.
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
    def concat(cls, tables: Sequence[SampleTable]) -> SampleTable:
        """The rows of ``tables``, one table after the other."""
        return cls(
            ids=[i for t in tables for i in t.ids],
            status=np.concatenate([t.status for t in tables]),
            **{c: np.concatenate([getattr(t, c) for t in tables]) for c in COLUMNS},
        )

    def __len__(self) -> int:
        return len(self.ids)

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


def read_gcp_csv(source: str | Path | TextIO) -> SampleTable:
    """Read control points from CSV with header ``id,x,y,h`` into a table.

    Lines starting with ``#`` are skipped. Point ids must be unique and
    x, y and h finite numbers.
    """
    points: dict[str, list[float]] = {}
    for lineno, xyh in _read_table(source, "control point file", GCP_COLUMNS):
        pid = xyh.pop(0)
        if pid in points:
            raise ParseError(f"duplicate point id '{pid}'", line=lineno)
        points[pid] = xyh
    x, y, h = np.array(list(points.values()), dtype=np.float64).reshape(-1, 3).T.copy()
    return SampleTable(ids=list(points), x=x, y=y, h_ref=h)


def extract_coincident(dem: Grid, points: SampleTable, method: str = "nearest") -> SampleTable:
    """Extract the DEM height at each control point.

    ``nearest`` takes the containing cell's value; ``bilinear``
    interpolates between the four nearest cell centres. Points off the
    grid (a NaN, infinite or overflowing coordinate included), on nodata
    (nearest), or whose interpolation touches a nodata or off-grid corner
    with nonzero weight (bilinear) get h_dem missing.
    """
    if method not in EXTRACTION_METHODS:
        raise ConfigError(f"unknown extraction method '{method}'")
    sampler = _sample_nearest if method == "nearest" else _sample_bilinear
    h = sampler(dem, points.x, points.y)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = h - points.h_ref
    return dataclasses.replace(points, h_dem=h, delta_h=delta)


def _sample_nearest(grid: Grid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    inside, rows, cols = cells_of(grid, x, y)
    h = np.full(x.shape, np.nan)
    v = values_at(grid, rows, cols)
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
                val = values_at(grid, row[take].astype(np.int64), col[take].astype(np.int64))
                ok[np.flatnonzero(take)[val == grid.nodata]] = False
                total[take] += w[take] * val
    return np.where(ok, total, np.nan)


def attach_class(
    classmap: Grid, samples: SampleTable, remap: Mapping[int, int] | None = None
) -> SampleTable:
    """Set each row's land-cover code from the containing cell.

    ``remap`` then replaces each code that is one of its keys by its
    value. Points off the map or on nodata keep class_code missing. A cell
    value that is not an integer raises ParseError naming the first such
    point in table order.
    """
    codes = _sample_nearest(classmap, samples.x, samples.y)
    bad = ~np.isnan(codes) & ~(np.isfinite(codes) & (codes == np.floor(codes)))
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(
            f"class map value {float(codes[k])!r} at point '{samples.ids[k]}' "
            "is not an integer code"
        )
    if remap:
        found = codes.copy()
        for src, dst in remap.items():
            codes[found == src] = dst
    return dataclasses.replace(samples, class_code=codes)


def cells_near(grid: Grid, x: np.ndarray, y: np.ndarray, reach: int) -> np.ndarray:
    """Sorted flat indices of the cells within ``reach`` rows and columns,
    clipped to the grid, of the cell of each point (x, y) on the grid.

    Reach 1 gives the DEM cells ``extract_coincident`` and
    ``attach_derivatives`` read, reach 0 the class-map cells ``attach_class``
    reads (a point off the grid gets no height, whatever its corners hold):
    a grid read windowed on them gives those stages a full read's values.
    """
    _, rows, cols = cells_of(grid, x, y)
    steps = np.arange(-reach, reach + 1)
    r = np.clip(rows[:, None] + steps, 0, grid.nrows - 1)
    c = np.clip(cols[:, None] + steps, 0, grid.ncols - 1)
    # sorted, then repeats dropped (np.unique took 7x as long): no grid-sized mask
    flat = np.sort((r[:, :, None] * grid.ncols + c[:, None, :]).ravel())
    return np.concatenate((flat[:1], flat[1:][flat[1:] != flat[:-1]]))


def attach_derivatives(dem: Grid, samples: SampleTable, z_factor: float = 1.0) -> SampleTable:
    """Set slope and aspect from the DEM cell containing each row.

    Horn's kernel runs only at those cells, in one ``slope_aspect_at``
    call, with the values ``slope_aspect`` gives them. Points off the grid
    or on a nodata cell keep them missing.
    """
    inside, rows, cols = cells_of(dem, samples.x, samples.y)
    derivs = slope_aspect_at(dem, rows, cols, z_factor)
    columns = np.full((2, len(samples)), np.nan)
    columns[:, inside] = derivs
    return dataclasses.replace(samples, slope_deg=columns[0], aspect_deg=columns[1])
