"""Joining ground control points with DEM heights, classes and derivatives.

Missing values (point off the grid, nodata cell) propagate as None, never
as sentinel numbers, so they cannot leak into downstream statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

from .errors import ConfigError, ParseError
from .raster import Grid, _csv_rows, cell_of
from .terrain import slope_aspect_at

EXTRACTION_METHODS = ("nearest", "bilinear")


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


def read_gcp_csv(source: str | Path | TextIO) -> list[ControlPoint]:
    """Read control points from CSV with header ``id,x,y,h``.

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
    points: list[ControlPoint] = []
    seen: set[str] = set()
    for lineno, fields in rows:
        if len(fields) < 4:
            raise ParseError(f"expected 4 columns, got {len(fields)}", line=lineno)
        pid = fields[0].strip()
        if pid in seen:
            raise ParseError(f"duplicate point id '{pid}'", line=lineno)
        seen.add(pid)
        try:
            x, y, h = (float(fields[i]) for i in (1, 2, 3))
        except ValueError as exc:
            raise ParseError(f"non-numeric coordinate or height: {exc}", line=lineno) from None
        for col, value in enumerate((x, y, h), start=2):
            if not math.isfinite(value):
                raise ParseError(
                    f"non-finite value '{fields[col - 1].strip()}'", line=lineno, column=col
                )
        points.append(ControlPoint(id=pid, x=x, y=y, h_ref=h))
    return points


def extract_coincident(
    dem: Grid, points: Sequence[ControlPoint], method: str = "nearest"
) -> list[SampleRecord]:
    """Extract the DEM height at each control point.

    ``nearest`` takes the containing cell's value; ``bilinear``
    interpolates between the four nearest cell centres. Points off the
    grid, on nodata (nearest), or whose interpolation touches a nodata
    or off-grid corner with nonzero weight (bilinear) get h_dem None.
    """
    if method not in EXTRACTION_METHODS:
        raise ConfigError(f"unknown extraction method '{method}'")
    sampler = _sample_nearest if method == "nearest" else _sample_bilinear
    records = []
    for p in points:
        h = sampler(dem, p.x, p.y)
        records.append(
            SampleRecord(
                id=p.id,
                x=p.x,
                y=p.y,
                h_ref=p.h_ref,
                h_dem=h,
                delta_h=None if h is None else h - p.h_ref,
            )
        )
    return records


def _sample_nearest(grid: Grid, x: float, y: float) -> float | None:
    rc = cell_of(grid, x, y)
    if rc is None:
        return None
    return grid.value_at(*rc)


def _sample_bilinear(grid: Grid, x: float, y: float) -> float | None:
    # Position in cell-centre index space: u along columns, v along rows
    # counted from the south so the y axis keeps its sign.
    u = (x - grid.xll) / grid.cellsize - 0.5
    v = (y - grid.yll) / grid.cellsize - 0.5
    c0 = math.floor(u)
    r0s = math.floor(v)
    fu = u - c0
    fv = v - r0s
    total = 0.0
    for dc, wu in ((0, 1.0 - fu), (1, fu)):
        for dr, wv in ((0, 1.0 - fv), (1, fv)):
            w = wu * wv
            if w == 0.0:
                continue
            col = c0 + dc
            row = grid.nrows - 1 - (r0s + dr)
            if col < 0 or col >= grid.ncols or row < 0 or row >= grid.nrows:
                return None
            val = grid.value_at(row, col)
            if val is None:
                return None
            total += w * val
    return total


def attach_class(classmap: Grid, records: Sequence[SampleRecord]) -> list[SampleRecord]:
    """Set each record's land-cover code from the containing cell.

    Points off the map or on nodata keep class_code None. A cell value
    that is not an integer raises ParseError naming the point.
    """
    out = []
    for r in records:
        v = _sample_nearest(classmap, r.x, r.y)
        if v is not None and not v.is_integer():
            raise ParseError(f"class map value {v!r} at point '{r.id}' is not an integer code")
        out.append(replace(r, class_code=None if v is None else int(v)))
    return out


def attach_derivatives(
    dem: Grid, records: Sequence[SampleRecord], z_factor: float = 1.0
) -> list[SampleRecord]:
    """Set slope and aspect from the DEM cell containing each record.

    Horn's kernel runs only at those cells (``slope_aspect_at``), with the
    values ``slope_aspect`` gives them. Points off the grid or on a nodata
    cell keep None.
    """
    cells = [cell_of(dem, r.x, r.y) for r in records]
    on_grid = [rc for rc in cells if rc is not None]
    derivs = slope_aspect_at(dem, [r for r, _ in on_grid], [c for _, c in on_grid], z_factor)
    values = zip(derivs.slope.tolist(), derivs.aspect.tolist())
    out = []
    for r, rc in zip(records, cells):
        s, a = (None, None) if rc is None else next(values)
        out.append(replace(r, slope_deg=s, aspect_deg=a))
    return out
