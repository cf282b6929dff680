"""First-order terrain derivatives: slope and aspect via Horn's 3x3 kernel.

With the window labelled a..i from NW to SE (row 0 = north),

    dz/dx = ((c + 2f + i) - (a + 2d + g)) / (8 * cellsize)
    dz/dy = ((g + 2h + i) - (a + 2b + c)) / (8 * cellsize)

so dz/dy is positive toward the south, matching the GIS convention the
aspect formula below expects. Slope is atan(zf * hypot(dz/dx, dz/dy)) in
degrees; aspect is atan2(dz/dy, -dz/dx) remapped to compass degrees
(clockwise from north), with -1 marking flat cells. Off-grid or nodata
neighbours take the window's centre value, so edge cells still get
values; cells whose centre is nodata stay nodata.

``slope_aspect`` computes every cell of a DEM (``demqa terrain``);
``slope_aspect_at`` reads only the windows of the cells it is given
(``assess`` needs the cells under its control points). Both run the one
kernel, ``_horn``, so a cell gets the same bits from either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .raster import Grid

FLAT_ASPECT = -1.0

# Window offsets (row, column) of the neighbours a, b, c, d, f, g, h, i.
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class DerivativePair:
    """Slope (degrees, [0, 90]) and aspect (degrees, [0, 360) or -1 flat)."""

    slope: Grid
    aspect: Grid


class CellDerivatives(NamedTuple):
    """Slope and aspect at requested cells: 1-D object arrays holding one
    float per cell, or None where the cell is nodata."""

    slope: np.ndarray
    aspect: np.ndarray


def _horn(
    centre: np.ndarray,
    neighbours: Sequence[np.ndarray],
    invalid: np.ndarray,
    cellsize: float,
    z_factor: float,
    fill: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Slope and aspect from the centre values and the eight neighbour
    arrays in ``_OFFSETS`` order, NaN where a neighbour is off the grid or
    nodata; such a neighbour takes the centre value. Cells flagged
    ``invalid`` (nodata centres) get ``fill``."""
    if z_factor <= 0:
        raise ValueError("z_factor must be positive")
    a, b, c, d, f, g, h, i = (np.where(np.isnan(nb), centre, nb) for nb in neighbours)

    dzdx = ((c + 2.0 * f + i) - (a + 2.0 * d + g)) / (8.0 * cellsize)
    dzdy = ((g + 2.0 * h + i) - (a + 2.0 * b + c)) / (8.0 * cellsize)

    slope_deg = np.degrees(np.arctan(z_factor * np.hypot(dzdx, dzdy)))
    aspect_deg = np.mod(90.0 - np.degrees(np.arctan2(dzdy, -dzdx)), 360.0)
    flat = (dzdx == 0.0) & (dzdy == 0.0)
    aspect_deg = np.where(flat, FLAT_ASPECT, aspect_deg)

    return np.where(invalid, fill, slope_deg), np.where(invalid, fill, aspect_deg)


def slope_aspect(dem: Grid, z_factor: float = 1.0) -> DerivativePair:
    """Slope and aspect grids of a DEM.

    ``z_factor`` converts vertical units to the horizontal units before
    the slope angle is taken (1 when both are metres).
    """
    invalid = dem.values == dem.nodata
    work = np.where(invalid, np.nan, dem.values)
    padded = np.pad(work, 1, mode="constant", constant_values=np.nan)
    neighbours = [
        padded[1 + dr : 1 + dr + dem.nrows, 1 + dc : 1 + dc + dem.ncols] for dr, dc in _OFFSETS
    ]
    slope_deg, aspect_deg = _horn(work, neighbours, invalid, dem.cellsize, z_factor, dem.nodata)

    def like_dem(v: np.ndarray) -> Grid:
        return Grid(
            ncols=dem.ncols,
            nrows=dem.nrows,
            xll=dem.xll,
            yll=dem.yll,
            cellsize=dem.cellsize,
            nodata=dem.nodata,
            values=v,
        )

    return DerivativePair(slope=like_dem(slope_deg), aspect=like_dem(aspect_deg))


def slope_aspect_at(
    dem: Grid, rows: Sequence[int], cols: Sequence[int], z_factor: float = 1.0
) -> CellDerivatives:
    """Slope and aspect at the cells ``(rows[k], cols[k])`` of a DEM.

    Reads only the 3x3 windows of those cells; the values equal those of
    ``slope_aspect`` at the same cells bit for bit. A nodata cell gives
    None. Raises ValueError for a cell off the grid.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have the same length")
    if ((rows < 0) | (rows >= dem.nrows) | (cols < 0) | (cols >= dem.ncols)).any():
        raise ValueError("cell off the grid")
    vals = dem.values
    centre = vals[rows, cols]
    invalid = centre == dem.nodata
    centre = np.where(invalid, np.nan, centre)
    neighbours = []
    for dr, dc in _OFFSETS:
        r, c = rows + dr, cols + dc
        inside = (r >= 0) & (r < dem.nrows) & (c >= 0) & (c < dem.ncols)
        v = vals[np.clip(r, 0, dem.nrows - 1), np.clip(c, 0, dem.ncols - 1)]
        neighbours.append(np.where(inside & (v != dem.nodata), v, np.nan))
    slope, aspect = _horn(centre, neighbours, invalid, dem.cellsize, z_factor, None)
    return CellDerivatives(slope=slope, aspect=aspect)
