"""Synthetic scenes with known ground truth, for oracle-grade testing.

Planes make terrain derivatives exactly predictable, checkerboards pin
Moran's I at its most dispersed value, and box-smoothed noise plants
positive spatial autocorrelation of controllable strength. Everything is
deterministic given (parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .raster import Grid, cell_of
from .sample import ControlPoint

SCENE_KINDS = ("plane", "checkerboard", "smoothed_noise")


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of a synthetic scene."""

    kind: str
    nrows: int
    ncols: int
    cellsize: float = 1.0
    xll: float = 0.0
    yll: float = 0.0
    # plane
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    # checkerboard
    amplitude: float = 1.0
    # smoothed noise
    sd: float = 1.0
    radius: int = 0
    seed: int = 0

    def build(self) -> Grid:
        if self.kind == "plane":
            return make_plane(
                self.a, self.b, self.c, self.nrows, self.ncols,
                cellsize=self.cellsize, xll=self.xll, yll=self.yll,
            )
        if self.kind == "checkerboard":
            return make_checkerboard(
                self.amplitude, self.nrows, self.ncols,
                cellsize=self.cellsize, xll=self.xll, yll=self.yll,
            )
        if self.kind == "smoothed_noise":
            return make_smoothed_noise(
                self.sd, self.radius, self.nrows, self.ncols, self.seed,
                cellsize=self.cellsize, xll=self.xll, yll=self.yll,
            )
        raise ValueError(f"unknown scene kind '{self.kind}'")


def _cell_centres(nrows, ncols, cellsize, xll, yll):
    x = xll + (np.arange(ncols) + 0.5) * cellsize
    y = yll + (nrows - np.arange(nrows) - 0.5) * cellsize
    return np.meshgrid(x, y)


def make_plane(
    a: float, b: float, c: float, nrows: int, ncols: int,
    cellsize: float = 1.0, xll: float = 0.0, yll: float = 0.0,
) -> Grid:
    """Grid sampling the plane z = a*x + b*y + c at cell centres."""
    xx, yy = _cell_centres(nrows, ncols, cellsize, xll, yll)
    return Grid(
        ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=cellsize,
        values=a * xx + b * yy + c,
    )


def make_checkerboard(
    amplitude: float, nrows: int, ncols: int,
    cellsize: float = 1.0, xll: float = 0.0, yll: float = 0.0,
) -> Grid:
    """Grid alternating +/- amplitude on adjacent cells."""
    r, c = np.indices((nrows, ncols))
    values = np.where((r + c) % 2 == 0, amplitude, -amplitude).astype(np.float64)
    return Grid(
        ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=cellsize, values=values
    )


def make_smoothed_noise(
    sd: float, radius: int, nrows: int, ncols: int, seed: int = 0,
    cellsize: float = 1.0, xll: float = 0.0, yll: float = 0.0,
) -> Grid:
    """White Gaussian noise passed ``radius`` times through a 3x3 box mean.

    radius 0 leaves the field spatially independent; each smoothing pass
    strengthens positive autocorrelation. Edges use replicate padding.
    """
    if sd <= 0:
        raise ValueError("sd must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = np.random.default_rng(seed)
    field = rng.normal(0.0, sd, size=(nrows, ncols))
    for _ in range(radius):
        padded = np.pad(field, 1, mode="edge")
        acc = np.zeros_like(field)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                acc += padded[1 + dr : 1 + dr + nrows, 1 + dc : 1 + dc + ncols]
        field = acc / 9.0
    return Grid(
        ncols=ncols, nrows=nrows, xll=xll, yll=yll, cellsize=cellsize, values=field
    )


def scatter_points(
    grid: Grid,
    n: int,
    seed: int = 0,
    min_separation: float = 0.0,
    snap_to_centres: bool = False,
    error_sd: float = 0.0,
    id_prefix: str = "p",
) -> list[ControlPoint]:
    """Scatter ``n`` control points over the grid's valid cells.

    Heights come from the containing cell, plus Gaussian error of
    ``error_sd`` when nonzero (zero keeps h_ref exactly the cell value).
    Rejection sampling enforces ``min_separation``; an infeasible packing
    fails after bounded retries instead of looping forever.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    width = grid.ncols * grid.cellsize
    height = grid.nrows * grid.cellsize
    placed: set[tuple[float, float]] = set()
    # Placed points by cell of side ``min_separation``. ``x // side`` is the
    # exact floor of x / side while that stays below about 2**51 in
    # magnitude, so a point closer than ``min_separation`` lies in one of
    # the 3x3 cells around the candidate's. Past that, an infinite side puts
    # every point in cells 0 and -1, which are neighbours.
    side = min_separation
    reach = max(abs(grid.xll), abs(grid.yll), abs(grid.xll + width), abs(grid.yll + height))
    if min_separation > 0 and not reach / min_separation < 2.0**50:
        side = math.inf
    buckets: dict[tuple[float, float], list[tuple[float, float]]] = {}
    points: list[ControlPoint] = []
    max_attempts = 1000 * n
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > max_attempts:
            raise DegenerateDataError(
                f"could not place {n} points with separation {min_separation} "
                f"after {max_attempts} attempts"
            )
        x = grid.xll + rng.uniform(0.0, width)
        y = grid.yll + rng.uniform(0.0, height)
        rc = cell_of(grid, x, y)
        if rc is None:
            continue
        if snap_to_centres:
            x, y = grid.cell_center(*rc)
        # Exact duplicates would give degenerate spatial weights downstream.
        if (x, y) in placed:
            continue
        if min_separation > 0:
            kx, ky = x // side, y // side
            if any(
                (x - px) ** 2 + (y - py) ** 2 < min_separation**2
                for i in (kx - 1, kx, kx + 1)
                for j in (ky - 1, ky, ky + 1)
                for px, py in buckets.get((i, j), ())
            ):
                continue
        h = grid.value_at(*rc)
        if h is None:
            continue
        if error_sd > 0:
            h += rng.normal(0.0, error_sd)
        placed.add((x, y))
        if min_separation > 0:
            buckets.setdefault((kx, ky), []).append((x, y))
        points.append(ControlPoint(id=f"{id_prefix}{len(points):04d}", x=x, y=y, h_ref=h))
    return points
