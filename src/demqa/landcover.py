"""Parallelepiped supervised classification of multiband imagery.

Each class gets a per-band box [mean - k*sd, mean + k*sd] from its
training pixels. A pixel belongs to a class when every band value falls
inside that class's box; overlaps resolve to the nearest class mean
(ties to the lowest class code) so the result never depends on the
order classes were declared in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, ParseError, TrainingPointError
from .raster import _WRITE_CELLS, Grid, _code, _finite, _read_table, _require_full, _text, cell_of

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
            if not lo <= hi:  # also a NaN bound
                raise ValueError(f"class {self.class_code}: lo > hi")

    @property
    def n_bands(self) -> int:
        return len(self.lows)


def train_parallelepiped(
    bands: Sequence[Grid],
    labeled: Sequence[tuple[float, float, int]],
    k: float = 2.0,
    labels: dict[int, str] | None = None,
) -> list[ClassBox]:
    """Fit per-class boxes from labelled training locations.

    ``labeled`` is (x, y, class_code) triples; there must be some, and
    every class needs at least two usable pixels. A training point off the
    grid or on nodata is a TrainingPointError, not silently dropped. A
    class whose pixel SD overflows is a DegenerateDataError; a box bound
    that overflows is infinite.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    if not labeled:
        raise InsufficientDataError("no training points")
    by_class: dict[int, list[list[float]]] = {}
    for x, y, code in labeled:
        rc = cell_of(bands[0], x, y)
        if rc is None:
            raise TrainingPointError(f"training point ({x}, {y}) is off the grid")
        pixel = []
        for band in bands:
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
        with np.errstate(over="ignore", invalid="ignore"):  # an SD overflow is named below
            # each band scaled by a power of two into (-1, 1), where no square
            # overflows, and back: the same bits wherever nothing underflows
            e = np.frexp(np.abs(samples).max(axis=0))[1]
            scaled = np.ldexp(samples, -e)
            means = np.ldexp(scaled.mean(axis=0), e)
            sds = np.ldexp(scaled.std(axis=0, ddof=1), e)
            lows, highs = means - k * sds, means + k * sds
        if not np.isfinite(sds).all():
            raise DegenerateDataError(f"class {code}: the SD of a band overflows float64")
        boxes.append(
            ClassBox(
                class_code=code,
                label=(labels or {}).get(code, str(code)),
                lows=tuple(lows),
                highs=tuple(highs),
                means=tuple(means),
            )
        )
    return boxes


def classify(bands: Sequence[Grid], boxes: Sequence[ClassBox]) -> Grid:
    """Assign each pixel the class whose box contains it on every band.

    Pixels inside no box get code 0 (unclassified); pixels inside
    several take the class with the smallest Euclidean distance to the
    class mean, ties to the lowest code. Nodata in any band propagates,
    so no class may have the first band's nodata value as its code.
    The bands are full grids of one georeferencing, read a block of rows at a time.
    """
    for band in bands:
        _require_full(band, "classify")
    if not boxes:
        raise ValueError("no class boxes given")
    ref = bands[0]
    for box in boxes:
        if box.n_bands != len(bands):
            raise ValueError(
                f"class {box.class_code} has {box.n_bands} band bounds, image has {len(bands)}"
            )
        if box.class_code == ref.nodata:
            raise TrainingPointError(f"class code {box.class_code} is the image's nodata value")
    out = np.full(ref.values.shape, float(UNCLASSIFIED))
    step = max(1, _WRITE_CELLS // ref.ncols)  # rows per block
    for lo in range(0, ref.nrows, step):
        block = [band.values[lo : lo + step] for band in bands]
        codes = out[lo : lo + step]
        # Running best over classes in code order: a strict < keeps the lowest
        # code on ties, and a distance that overflows to inf never wins.
        best = np.full(codes.shape, np.inf)
        for box in sorted(boxes, key=lambda b: b.class_code):
            inside = np.ones(codes.shape, dtype=bool)
            d2 = np.zeros(codes.shape)
            for values, low, high, mean in zip(block, box.lows, box.highs, box.means):
                inside &= (values >= low) & (values <= high)
                with np.errstate(over="ignore"):
                    d2 += (values - mean) ** 2
            closer = inside & (d2 < best)
            best[closer] = d2[closer]
            codes[closer] = box.class_code
        for band, values in zip(bands, block):
            codes[values == band.nodata] = ref.nodata
    return replace(ref, values=out)


def read_training_csv(source: str | Path | TextIO) -> list[tuple[float, float, int]]:
    """Read labelled training points from CSV with header ``x,y,class_code``;
    a code may not be 0, which marks unclassified cells."""
    columns = (("x", _finite), ("y", _finite), ("class_code", lambda text: _code(text, least=1)))
    return [tuple(values) for _, values in _read_table(source, "training file", columns)]


def read_legend_csv(source: str | Path | TextIO) -> dict[int, str]:
    """Read class labels from CSV with header ``class_code,label``; each
    code may appear once."""
    legend = {}
    columns = (("class_code", _code), ("label", _text))
    for lineno, (code, label) in _read_table(source, "legend file", columns):
        if code in legend:
            raise ParseError(f"duplicate class code {code}", line=lineno)
        legend[code] = label
    return legend
