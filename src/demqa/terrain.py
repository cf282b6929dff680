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

The one kernel, ``_horn``, takes the heights with a one-cell border, NaN
off the grid and on nodata, and slices each cell's eight neighbours from
it. ``slope_aspect`` gives it a block of rows with the rows beside them
(``demqa terrain`` writes its grids a block at a time);
``slope_aspect_at`` gives it one 3x3 window per cell (``assess`` needs
the cells under its control points). So a cell gets the same bits from
either, and from any split of the rows.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .raster import Grid, values_at

FLAT_ASPECT = -1.0

# Window offsets (row, column) of the neighbours a, b, c, d, f, g, h, i.
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


class CellDerivatives(NamedTuple):
    """Slope (degrees, [0, 90]) and aspect (degrees, [0, 360) or -1 flat):
    float64 arrays over the given cells or rows; nodata cells hold NaN
    (``slope_aspect_at``) or the DEM's nodata value (``slope_aspect``)."""

    slope: np.ndarray
    aspect: np.ndarray


def _horn(
    padded: np.ndarray, invalid: np.ndarray, cellsize: float, z_factor: float, fill: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slope and aspect of the cells inside the one-cell border of the last
    two axes of ``padded``, whose NaN cells are off the grid or nodata; such
    a neighbour takes the centre value. Cells flagged ``invalid`` (nodata
    centres) get ``fill``."""
    if not (np.isfinite(z_factor) and z_factor > 0):
        raise ValueError("z_factor must be finite and positive")
    rows, cols = padded.shape[-2] - 2, padded.shape[-1] - 2
    centre, *around = (padded[..., 1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
                       for dr, dc in ((0, 0), *_OFFSETS))
    a, b, c, d, f, g, h, i = (np.where(np.isnan(nb), centre, nb) for nb in around)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow's NaN: the writer names it
        dzdx = ((c + 2.0 * f + i) - (a + 2.0 * d + g)) / (8.0 * cellsize)
        dzdy = ((g + 2.0 * h + i) - (a + 2.0 * b + c)) / (8.0 * cellsize)
        slope_deg = np.degrees(np.arctan(z_factor * np.hypot(dzdx, dzdy)))
        aspect_deg = np.mod(90.0 - np.degrees(np.arctan2(dzdy, -dzdx)), 360.0)
    flat = (dzdx == 0.0) & (dzdy == 0.0)
    aspect_deg = np.where(flat, FLAT_ASPECT, aspect_deg)

    return np.where(invalid, fill, slope_deg), np.where(invalid, fill, aspect_deg)


def slope_aspect(dem: Grid, lo: int, hi: int, z_factor: float = 1.0) -> CellDerivatives:
    """Slope and aspect of rows ``lo..hi-1`` of a DEM, read with the rows
    beside them; ValueError for rows off the grid.

    ``z_factor`` converts vertical units to the horizontal units before
    the slope angle is taken (1 when both are metres).
    """
    if not 0 <= lo <= hi <= dem.nrows:
        raise ValueError("rows off the grid")
    top, bottom = max(lo - 1, 0), min(hi + 1, dem.nrows)
    invalid = dem.values[top:bottom] == dem.nodata
    padded = np.pad(np.where(invalid, np.nan, dem.values[top:bottom]), 1, constant_values=np.nan)
    at = lo - top  # row lo - 1 of padded, whose edges are NaN
    slope, aspect = _horn(padded[at : at + hi - lo + 2], invalid[at : at + hi - lo],
                          dem.cellsize, z_factor, dem.nodata)
    return CellDerivatives(slope=slope, aspect=aspect)


def slope_aspect_at(
    dem: Grid, rows: Sequence[int], cols: Sequence[int], z_factor: float = 1.0
) -> CellDerivatives:
    """Slope and aspect at the cells ``(rows[k], cols[k])`` of a DEM.

    Reads only the 3x3 windows of those cells; the values equal those of
    ``slope_aspect`` at the same cells bit for bit. A nodata cell gives
    NaN. Raises ValueError for a cell off the grid.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have the same length")
    if ((rows < 0) | (rows >= dem.nrows) | (cols < 0) | (cols >= dem.ncols)).any():
        raise ValueError("cell off the grid")
    step = np.arange(-1, 2)
    r, c = rows.reshape(-1, 1, 1) + step[:, None], cols.reshape(-1, 1, 1) + step
    v = values_at(dem, np.clip(r, 0, dem.nrows - 1), np.clip(c, 0, dem.ncols - 1))
    inside = (r >= 0) & (r < dem.nrows) & (c >= 0) & (c < dem.ncols)
    windows = np.where(inside & (v != dem.nodata), v, np.nan)
    slope, aspect = _horn(windows, np.isnan(windows[:, 1:2, 1:2]), dem.cellsize, z_factor, np.nan)
    return CellDerivatives(slope=slope.reshape(rows.shape), aspect=aspect.reshape(rows.shape))
