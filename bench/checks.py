"""Output checks of the benchmark, independent of the ``demqa`` code.

Every run's output files must hash the same as the first run's at the
same seed; ``stats.total`` of each ``assess`` report is recomputed with
numpy from the kept rows of ``samples.csv``. The first run of
``raster_products`` is also checked against numpy oracles: Horn's
slope and aspect on interior cells, and a parallelepiped classification.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def stats_total_errors(out_dir: Path) -> list[str]:
    """Compare report.json stats.total with numpy over the kept samples."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    with open(out_dir / "samples.csv", encoding="utf-8", newline="") as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        d = np.array([float(r["delta_h"]) for r in rows if r["status"] == "kept"])
    total = report["stats"]["total"]
    expected = {
        "n": d.size,
        "mean": float(d.mean()),
        "sd": float(d.std(ddof=1)),
        "rmse": math.sqrt(float(np.mean(d * d))),
    }
    return [
        f"stats.total.{key} = {total[key]!r}, numpy gives {value!r}"
        for key, value in expected.items()
        if not _close(float(total[key]), value)
    ]


def read_grid(path: Path) -> tuple[dict[str, float], np.ndarray]:
    """Header and values of an ASCII grid with a six-line header."""
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    header = {k.lower(): float(v) for k, v in (ln.split() for ln in lines[:6])}
    values = np.array(" ".join(lines[6:]).split(), dtype=np.float64)
    return header, values.reshape(int(header["nrows"]), int(header["ncols"]))


def horn_errors(dem_path: Path, slope_path: Path, aspect_path: Path) -> list[str]:
    """Horn (1981) slope and aspect on interior cells of a DEM without nodata."""
    header, z = read_grid(dem_path)
    cs = header["cellsize"]
    a, b, c = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
    d, f = z[1:-1, :-2], z[1:-1, 2:]
    g, h, i = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8 * cs)
    dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / (8 * cs)
    slope = np.degrees(np.arctan(np.hypot(dzdx, dzdy)))
    aspect = np.mod(90.0 - np.degrees(np.arctan2(dzdy, -dzdx)), 360.0)
    aspect[(dzdx == 0) & (dzdy == 0)] = -1.0
    got_slope = read_grid(slope_path)[1][1:-1, 1:-1]
    got_aspect = read_grid(aspect_path)[1][1:-1, 1:-1]
    errors = []
    if not np.allclose(got_slope, slope, rtol=0, atol=TOLERANCE):
        errors.append(f"slope differs from Horn by {np.abs(got_slope - slope).max()}")
    gap = np.abs(got_aspect - aspect)
    gap = np.minimum(gap, 360.0 - gap)
    if gap.max() > TOLERANCE:
        errors.append(f"aspect differs from Horn by {gap.max()}")
    return errors


def classify_errors(
    band_paths: list[Path], training_path: Path, k: float, classes_path: Path
) -> list[str]:
    """Parallelepiped boxes mean +/- k*SD per class; ties to the nearest mean,
    then the lowest code; pixels inside no box are 0."""
    header, _ = read_grid(band_paths[0])
    stack = np.stack([read_grid(p)[1] for p in band_paths])
    with open(training_path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    xs = np.array([float(r["x"]) for r in rows])
    ys = np.array([float(r["y"]) for r in rows])
    codes = np.array([int(r["class_code"]) for r in rows])
    cs = header["cellsize"]
    cols = np.floor((xs - header["xllcorner"]) / cs).astype(np.intp)
    rws = stack.shape[1] - 1 - np.floor((ys - header["yllcorner"]) / cs).astype(np.intp)
    pixels = stack[:, rws, cols].T
    classes = np.unique(codes)
    dist2 = np.full((classes.size,) + stack.shape[1:], np.inf)
    for ci, code in enumerate(classes):
        sample = pixels[codes == code]
        mean, sd = sample.mean(axis=0), sample.std(axis=0, ddof=1)
        inside = np.all(
            (stack >= (mean - k * sd)[:, None, None]) & (stack <= (mean + k * sd)[:, None, None]),
            axis=0,
        )
        d2 = np.zeros(stack.shape[1:])
        for bi in range(stack.shape[0]):
            d2 += (stack[bi] - mean[bi]) ** 2
        dist2[ci] = np.where(inside, d2, np.inf)
    expected = np.where(np.isfinite(dist2).any(axis=0), classes[np.argmin(dist2, axis=0)], 0)
    got = read_grid(classes_path)[1]
    wrong = int(np.count_nonzero(got != expected))
    return [f"{wrong} cells differ from the parallelepiped oracle"] if wrong else []
