"""Seeded inputs and command lines of the benchmark workloads.

Each workload is a job: one or more ``demqa`` commands run one after the
other in a work directory. Inputs are built from the benchmark seed with
``demqa.synth`` and ``write_ascii_grid`` into ``in/``; outputs land in
``out/``. All paths are relative to the work directory and never change,
because ``assess`` echoes them into ``report.json`` provenance and the
report must be byte-identical across runs at one seed.

Why each workload exists (sizes measured on a 2-core x86 box):

``grid_heavy``     reading the two 1000x1000 grids dominates ``assess``;
                   Moran's I over 500 GCPs with a fixed band and no
                   permutations is under 5%. Also runs the bilinear,
                   fixed-band, row-standardised and normality branches.
``points_heavy``   4,000 GCPs on a 200x200 grid: the dense O(n^2) weights
                   build and 999 permutations dominate, raster work ~3%.
``raster_products`` ``classify`` of a 3-band image, then ``terrain``:
                   full-grid writes beside reads, Horn over every cell
                   that is used, and the only real ``landcover`` work.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import classify_errors, horn_errors, stats_total_errors
from demqa.raster import Grid, write_ascii_grid
from demqa.synth import make_plane, make_smoothed_noise, scatter_points

LEGEND = {1: "forest", 2: "grassland", 3: "urban", 4: "cropland", 5: "water"}
# Cumulative area shares of classes 1..5; class 5 (water) covers 10%.
CLASS_SHARES = (0.30, 0.55, 0.75, 0.90)
WATER = 5


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[tuple[str, ...], ...]  # demqa argv of each command, in order
    layers: frozenset[str]  # layers the traced pass must see called
    make_inputs: Callable[[int, Path], None]  # (seed, in_dir)
    oracle: Callable[[Path], list[str]]  # (work_dir) -> errors; checks the reference job


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _terrain(n: int, cellsize: float, seed: int) -> Grid:
    """Smoothed noise on an inclined plane."""
    plane = make_plane(0.02, 0.01, 250.0, n, n, cellsize=cellsize)
    noise = make_smoothed_noise(4.0, 3, n, n, seed, cellsize=cellsize)
    return Grid(
        ncols=n, nrows=n, xll=0.0, yll=0.0, cellsize=cellsize,
        values=plane.values + noise.values,
    )


def _class_codes(n: int, seed: int) -> np.ndarray:
    """Patchy five-class map: quantiles of strongly smoothed noise."""
    field = make_smoothed_noise(1.0, 8, n, n, seed).values
    cuts = np.quantile(field, CLASS_SHARES)
    return (np.searchsorted(cuts, field, side="right") + 1).astype(np.float64)


def _like(grid: Grid, values: np.ndarray) -> Grid:
    return Grid(
        ncols=grid.ncols, nrows=grid.nrows, xll=grid.xll, yll=grid.yll,
        cellsize=grid.cellsize, values=values,
    )


def _write_gcps(grid: Grid, n: int, seed: int, path: Path) -> None:
    pts = scatter_points(grid, n, seed=seed, error_sd=0.5)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("id,x,y,h\n")
        for p in pts:
            f.write(f"{p.id},{p.x!r},{p.y!r},{p.h_ref!r}\n")


def _write_legend(path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("class_code,label\n")
        for code, label in LEGEND.items():
            f.write(f"{code},{label}\n")


def _assess_inputs(n: int, n_gcps: int, legend: bool):
    def make(seed: int, in_dir: Path) -> None:
        s_dem, s_cls, s_pts = _seeds(seed, 3)
        dem = _terrain(n, 10.0, s_dem)
        write_ascii_grid(dem, in_dir / "dem.asc")
        write_ascii_grid(_like(dem, _class_codes(n, s_cls)), in_dir / "classes.asc")
        _write_gcps(dem, n_gcps, s_pts, in_dir / "gcps.csv")
        if legend:
            _write_legend(in_dir / "legend.csv")

    return make


# Band means per class (rows: bands, columns: classes 1..5); the noise SD
# below keeps most pixels inside their own class box and some in none.
BAND_MEANS = np.array(
    [
        [40.0, 60.0, 90.0, 70.0, 20.0],
        [80.0, 110.0, 70.0, 100.0, 30.0],
        [50.0, 70.0, 110.0, 40.0, 90.0],
    ]
)
BAND_SD = 6.0
TRAINING_PER_CLASS = 80
BOX_SDS = 2.5


def _raster_inputs(n: int):
    def make(seed: int, in_dir: Path) -> None:
        s_dem, s_cls, s_band, s_train = _seeds(seed, 4)
        dem = _terrain(n, 30.0, s_dem)
        write_ascii_grid(dem, in_dir / "dem.asc")
        codes = _class_codes(n, s_cls).astype(np.intp)
        rng = np.random.default_rng(s_band)
        for b, means in enumerate(BAND_MEANS, start=1):
            values = means[codes - 1] + rng.normal(0.0, BAND_SD, size=codes.shape)
            write_ascii_grid(_like(dem, np.round(values, 2)), in_dir / f"band{b}.asc")
        rng = np.random.default_rng(s_train)
        with open(in_dir / "training.csv", "w", encoding="utf-8", newline="") as f:
            f.write("x,y,class_code\n")
            for code in LEGEND:
                rows, cols = np.nonzero(codes == code)
                for k in rng.choice(rows.size, TRAINING_PER_CLASS, replace=False):
                    x, y = dem.cell_center(int(rows[k]), int(cols[k]))
                    f.write(f"{x!r},{y!r},{code}\n")
        _write_legend(in_dir / "legend.csv")

    return make


def _assess_oracle(work: Path) -> list[str]:
    return stats_total_errors(work / "out")


def _raster_oracle(work: Path) -> list[str]:
    bands = [work / "in" / f"band{b}.asc" for b in range(1, len(BAND_MEANS) + 1)]
    return horn_errors(
        work / "in" / "dem.asc", work / "out" / "dem_slope.asc", work / "out" / "dem_aspect.asc"
    ) + classify_errors(bands, work / "in" / "training.csv", BOX_SDS, work / "out" / "classes.asc")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_heavy",
            jobs=((
                "assess", "--dem", "in/dem.asc", "--gcps", "in/gcps.csv",
                "--classmap", "in/classes.asc", "--legend", "in/legend.csv",
                "--out", "out", "--method", "bilinear", "--exclude-classes", str(WATER),
                "--scheme", "fixed_band", "--threshold", "3000", "--row-standardize",
                "--assumption", "normality", "--n-perm", "0",
            ),),
            layers=frozenset(
                ("raster", "sample", "terrain", "screen", "stats", "spatial", "landcover", "cli")
            ),
            make_inputs=_assess_inputs(1000, 500, legend=True),
            oracle=_assess_oracle,
        ),
        Workload(
            name="points_heavy",
            jobs=((
                "assess", "--dem", "in/dem.asc", "--gcps", "in/gcps.csv",
                "--classmap", "in/classes.asc", "--out", "out", "--method", "nearest",
                "--exclude-classes", str(WATER), "--scheme", "inverse_distance",
                "--threshold", "auto", "--assumption", "randomization",
                "--n-perm", "999", "--seed", "7",
            ),),
            layers=frozenset(("raster", "sample", "terrain", "screen", "stats", "spatial", "cli")),
            make_inputs=_assess_inputs(200, 4000, legend=False),
            oracle=_assess_oracle,
        ),
        Workload(
            name="raster_products",
            jobs=(
                (
                    "classify", "--image", "in/band1.asc", "in/band2.asc", "in/band3.asc",
                    "--training", "in/training.csv", "--legend", "in/legend.csv",
                    "--k", str(BOX_SDS), "--out", "out/classes.asc",
                ),
                ("terrain", "in/dem.asc", "--out-prefix", "out/dem"),
            ),
            layers=frozenset(("raster", "terrain", "landcover", "cli")),
            make_inputs=_raster_inputs(600),
            oracle=_raster_oracle,
        ),
    )
}
