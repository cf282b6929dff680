"""Parallelepiped supervised classification of multiband imagery.

Each class gets a per-band box [mean - k*sd, mean + k*sd] from its
training pixels. A pixel belongs to a class when every band value falls
inside that class's box; overlaps resolve to the nearest class mean
(ties to the lowest class code) so the result never depends on the
order classes were declared in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import InsufficientDataError, ParseError, TrainingPointError
from .raster import Grid, MultibandGrid, _csv_rows, cell_of

UNCLASSIFIED = 0


@dataclass(frozen=True)
class ClassBox:
    """Per-band bounds and mean signature of one land-cover class."""

    class_code: int
    label: str
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    means: tuple[float, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs) or len(self.lows) != len(self.means):
            raise ValueError("lows/highs/means must have one entry per band")
        for lo, hi in zip(self.lows, self.highs):
            if lo > hi:
                raise ValueError(f"class {self.class_code}: lo > hi")

    @property
    def n_bands(self) -> int:
        return len(self.lows)


def train_parallelepiped(
    image: MultibandGrid,
    labeled: Sequence[tuple[float, float, int]],
    k: float = 2.0,
    labels: dict[int, str] | None = None,
) -> list[ClassBox]:
    """Fit per-class boxes from labelled training locations.

    ``labeled`` is (x, y, class_code) triples; every class needs at
    least two usable pixels. A training point off the grid or on nodata
    is a TrainingPointError, not silently dropped.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    by_class: dict[int, list[list[float]]] = {}
    for x, y, code in labeled:
        rc = cell_of(image.bands[0], x, y)
        if rc is None:
            raise TrainingPointError(f"training point ({x}, {y}) is off the grid")
        pixel = []
        for band in image.bands:
            v = band.value_at(*rc)
            if v is None:
                raise TrainingPointError(f"training point ({x}, {y}) lies on nodata")
            pixel.append(v)
        by_class.setdefault(int(code), []).append(pixel)

    boxes = []
    for code in sorted(by_class):
        samples = np.asarray(by_class[code], dtype=np.float64)
        if samples.shape[0] < 2:
            raise InsufficientDataError(
                f"class {code} has {samples.shape[0]} training pixel(s); need >= 2"
            )
        means = samples.mean(axis=0)
        sds = samples.std(axis=0, ddof=1)
        boxes.append(
            ClassBox(
                class_code=code,
                label=(labels or {}).get(code, str(code)),
                lows=tuple(means - k * sds),
                highs=tuple(means + k * sds),
                means=tuple(means),
            )
        )
    return boxes


def classify(image: MultibandGrid, boxes: Sequence[ClassBox]) -> Grid:
    """Assign each pixel the class whose box contains it on every band.

    Pixels inside no box get code 0 (unclassified); pixels inside
    several take the class with the smallest Euclidean distance to the
    class mean, ties to the lowest code. Nodata in any band propagates.
    """
    if not boxes:
        raise ValueError("no class boxes given")
    for box in boxes:
        if box.n_bands != image.n_bands:
            raise ValueError(
                f"class {box.class_code} has {box.n_bands} band bounds, image has {image.n_bands}"
            )
    ref = image.bands[0]
    stack = np.stack([b.values for b in image.bands])  # (bands, rows, cols)
    nodata_mask = np.zeros((ref.nrows, ref.ncols), dtype=bool)
    for b in image.bands:
        nodata_mask |= b.values == b.nodata

    ordered = sorted(boxes, key=lambda b: b.class_code)
    dist2 = np.full((len(ordered), ref.nrows, ref.ncols), np.inf)
    for ci, box in enumerate(ordered):
        inside = np.ones((ref.nrows, ref.ncols), dtype=bool)
        d2 = np.zeros((ref.nrows, ref.ncols))
        for bi in range(image.n_bands):
            band_vals = stack[bi]
            inside &= (band_vals >= box.lows[bi]) & (band_vals <= box.highs[bi])
            d2 += (band_vals - box.means[bi]) ** 2
        dist2[ci] = np.where(inside, d2, np.inf)

    any_inside = np.isfinite(dist2).any(axis=0)
    # argmin returns the first minimum, i.e. the lowest code after sorting.
    best = np.argmin(dist2, axis=0)
    codes = np.array([b.class_code for b in ordered])
    out = np.where(any_inside, codes[best], UNCLASSIFIED).astype(np.float64)
    out[nodata_mask] = ref.nodata
    return Grid(
        ncols=ref.ncols,
        nrows=ref.nrows,
        xll=ref.xll,
        yll=ref.yll,
        cellsize=ref.cellsize,
        nodata=ref.nodata,
        values=out,
    )


def read_training_csv(source: str | Path | TextIO) -> list[tuple[float, float, int]]:
    """Read labelled training points from CSV with header ``x,y,class_code``."""
    rows = _csv_rows(source, "CSV file")
    header_line, header = next(rows)
    if [h.strip().lower() for h in header][:3] != ["x", "y", "class_code"]:
        raise ParseError("expected header 'x,y,class_code'", line=header_line)
    out = []
    for lineno, fields in rows:
        try:
            x, y = float(fields[0]), float(fields[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError
            out.append((x, y, int(fields[2])))
        except (ValueError, IndexError):
            raise ParseError("bad training row", line=lineno) from None
    return out


def read_legend_csv(source: str | Path | TextIO) -> dict[int, str]:
    """Read class labels from CSV with header ``class_code,label``."""
    rows = _csv_rows(source, "CSV file")
    header_line, header = next(rows)
    if [h.strip().lower() for h in header][:2] != ["class_code", "label"]:
        raise ParseError("expected header 'class_code,label'", line=header_line)
    legend = {}
    for lineno, fields in rows:
        try:
            legend[int(fields[0])] = fields[1].strip()
        except (ValueError, IndexError):
            raise ParseError("bad legend row", line=lineno) from None
    return legend
