"""The record-based ``assess`` pipeline, kept as the byte-identity oracle.

This is the per-record implementation that the columnar pipeline
(``demqa.pipeline`` over a ``SampleTable``) replaced, function for
function: one ``SampleRecord`` per point, rebuilt by each stage, and CSV
cells formatted one at a time. ``tests/test_pipeline.py`` checks that the
columnar pipeline writes the same bytes. Only the library functions whose
arithmetic did not move (Horn's kernel, the statistics, the weights and
Moran's I) are imported from ``demqa``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from demqa import __version__
from demqa.cli import OPTIONS, REPORT_NAME, AssessConfig, _jsonable
from demqa.errors import ConfigError, DegenerateDataError, InsufficientDataError, ParseError
from demqa.landcover import read_legend_csv
from demqa.pipeline import CORRELATION_PAIRS, QUANTILE_CONVENTION
from demqa.raster import Grid, _csv_rows, read_ascii_grid
from demqa.sample import EXTRACTION_METHODS
from demqa.screen import FENCE_MULTIPLIER, FILTER_FIELDS, TukeyFences
from demqa.spatial import build_weights, morans_significance, permutation_test
from demqa.stats import MAX_HISTOGRAM_BINS, anova_decompose, f_test, pearson_r, summarize
from demqa.synth import ControlPoint
from demqa.terrain import FLAT_ASPECT, slope_aspect_at

HIST_WIDTH = next(row for row in OPTIONS if row.field == "hist_width")


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


def cell_of(grid: Grid, x: float, y: float) -> tuple[int, int] | None:
    """Return the (row, col) of the cell whose footprint contains (x, y).

    Footprints are half-open: a point exactly on the north or east outer
    boundary is outside. Returns None for points off the grid, and for a
    NaN or infinite x or y.
    """
    u = (x - grid.xll) / grid.cellsize
    v = (y - grid.yll) / grid.cellsize
    if not (math.isfinite(u) and math.isfinite(v)):
        return None
    col = math.floor(u)
    row = grid.nrows - 1 - math.floor(v)
    if col < 0 or col >= grid.ncols or row < 0 or row >= grid.nrows:
        return None
    return row, col


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
    values = zip(*[[None if math.isnan(v) else v for v in d.tolist()] for d in derivs])
    out = []
    for r, rc in zip(records, cells):
        s, a = (None, None) if rc is None else next(values)
        out.append(replace(r, slope_deg=s, aspect_deg=a))
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Lower and upper quartiles by linear interpolation.

    Raises InsufficientDataError for fewer than two values.
    """
    n = len(values)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values for quartiles, got {n}")
    v = sorted(float(x) for x in values)
    return _quantile_sorted(v, 0.25), _quantile_sorted(v, 0.75)


def _quantile_sorted(v: list[float], p: float) -> float:
    h = (len(v) - 1) * p
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return v[lo]
    return v[lo] + frac * (v[lo + 1] - v[lo])


def fences_of(values: Sequence[float]) -> TukeyFences:
    """Tukey fences of a value set."""
    q1, q3 = quartiles(values)
    iqr = q3 - q1
    return TukeyFences(
        q1=q1,
        q3=q3,
        iqr=iqr,
        lower=q1 - FENCE_MULTIPLIER * iqr,
        upper=q3 + FENCE_MULTIPLIER * iqr,
    )


def tukey_filter(
    records: Sequence[SampleRecord], field: str = "delta_h"
) -> tuple[list[SampleRecord], list[SampleRecord], TukeyFences]:
    """Split records into (kept, removed) by Tukey fences on ``field``.

    Only values strictly outside [lower, upper] are outliers; a value
    exactly on a fence is kept. Fences come from the records where the
    field is present; records missing the field are kept (they are not
    outside the fences). Single pass: fences are computed once, so
    re-filtering the kept set with the same fences removes nothing.
    """
    if field not in FILTER_FIELDS:
        raise ValueError(f"filter field must be one of {FILTER_FIELDS}, got '{field}'")
    present = [getattr(r, field) for r in records if getattr(r, field) is not None]
    if len(present) < 2:
        raise InsufficientDataError(
            f"need at least 2 records with '{field}' present, got {len(present)}"
        )
    fences = fences_of(present)
    kept: list[SampleRecord] = []
    removed: list[SampleRecord] = []
    for r in records:
        v = getattr(r, field)
        if v is not None and (v < fences.lower or v > fences.upper):
            removed.append(r)
        else:
            kept.append(r)
    return kept, removed, fences


def validity_filter(
    records: Sequence[SampleRecord],
    exclude_classes: Iterable[int] = (),
    min_h: float | None = None,
    require_class: bool = True,
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Drop records that cannot enter the accuracy assessment.

    Removed: records with no extracted height, records on excluded
    land-cover classes (water bodies, etc.), unclassified records
    (unless ``require_class`` is False for runs without a class map),
    and records with h_dem below ``min_h`` when given.
    """
    excluded = set(exclude_classes)
    kept: list[SampleRecord] = []
    removed: list[SampleRecord] = []
    for r in records:
        bad = (
            r.h_dem is None
            or (require_class and r.class_code is None)
            or (r.class_code is not None and r.class_code in excluded)
            or (min_h is not None and r.h_dem is not None and r.h_dem < min_h)
        )
        (removed if bad else kept).append(r)
    return kept, removed


def histogram(
    values: Sequence[float], bin_width: float = 1.0, origin: float = 0.0
) -> list[tuple[float, int]]:
    """Counts in half-open bins [lower, lower + width).

    Bins are anchored at ``origin`` and returned contiguously from the
    lowest to the highest occupied bin (zero-count bins in between kept,
    so the output plots directly). Empty input yields an empty list. More
    than MAX_HISTOGRAM_BINS bins raise ConfigError with the count needed.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return []
    lows = np.floor((v - origin) / bin_width)
    n_bins = lows.max() - lows.min() + 1.0
    if not n_bins <= MAX_HISTOGRAM_BINS:
        raise ConfigError(
            f"bin width {bin_width!r} would need {n_bins:.12g} bins; "
            f"the limit is {MAX_HISTOGRAM_BINS}"
        )
    idx = lows.astype(np.int64)
    counts: dict[int, int] = {}
    for k in idx:
        counts[int(k)] = counts.get(int(k), 0) + 1
    k_lo, k_hi = min(counts), max(counts)
    return [(origin + k * bin_width, counts.get(k, 0)) for k in range(k_lo, k_hi + 1)]


def _values(records: list[SampleRecord], field_name: str) -> list[float]:
    return [getattr(r, field_name) for r in records if getattr(r, field_name) is not None]


def _pairs(records, fx, fy):
    xs, ys = [], []
    for r in records:
        vx = getattr(r, fx)
        vy = getattr(r, fy)
        if vx is None or vy is None:
            continue
        if (fx == "aspect_deg" and vx == FLAT_ASPECT) or (
            fy == "aspect_deg" and vy == FLAT_ASPECT
        ):
            continue
        xs.append(vx)
        ys.append(vy)
    return xs, ys


def run_assess(
    cfg: AssessConfig,
) -> tuple[dict, list[tuple[SampleRecord, str]], dict[int, str]]:
    """Run the full assessment pipeline.

    Returns the report, every record tagged with its screening fate
    (kept / removed_validity / removed_outlier) for the samples table, and
    the class legend (empty without one).
    Degenerate inference on a particular statistic (constant errors, too
    few strata) is recorded in the report as a skip, not raised: a
    perfectly flat error field is a legitimate assessment outcome.
    """
    cfg.validate()

    dem = read_ascii_grid(cfg.dem)
    points = read_gcp_csv(cfg.gcps)
    classmap = read_ascii_grid(cfg.classmap) if cfg.classmap else None
    legend = read_legend_csv(cfg.legend) if cfg.legend else {}

    records = extract_coincident(dem, points, method=cfg.method)
    if classmap is not None:
        records = attach_class(classmap, records)
        if cfg.remap:
            records = [
                dataclasses.replace(
                    r, class_code=cfg.remap.get(r.class_code, r.class_code)
                )
                if r.class_code is not None
                else r
                for r in records
            ]
    records = attach_derivatives(dem, records, z_factor=cfg.z_factor)

    stages = [
        {"stage": "extracted", "before": len(records), "kept": len(records), "removed": 0}
    ]
    kept, removed_validity = validity_filter(
        records,
        exclude_classes=cfg.exclude_classes,
        min_h=cfg.min_h,
        require_class=classmap is not None,
    )
    stages.append(
        {
            "stage": "validity",
            "before": len(records),
            "kept": len(kept),
            "removed": len(removed_validity),
        }
    )
    n_before_tukey = len(kept)
    kept, removed_outlier, fences = tukey_filter(kept, field=cfg.tukey_field)
    stages.append(
        {
            "stage": "tukey",
            "before": n_before_tukey,
            "kept": len(kept),
            "removed": len(removed_outlier),
        }
    )

    deltas = _values(kept, "delta_h")
    if len(deltas) < 2:
        raise InsufficientDataError(
            f"only {len(deltas)} usable records after screening; need >= 2"
        )

    def class_label(code: int) -> str:
        return legend.get(code, str(code))

    by_class: dict[int, list[SampleRecord]] = {}
    for r in kept:
        if r.class_code is not None:
            by_class.setdefault(r.class_code, []).append(r)

    stats_section: dict = {"total": dataclasses.asdict(summarize(deltas))}
    for code in sorted(by_class):
        values = _values(by_class[code], "delta_h")
        entry: dict = {"label": class_label(code)}
        if len(values) >= 2:
            entry.update(dataclasses.asdict(summarize(values)))
        else:
            entry.update({"n": len(values), "skipped": "fewer than 2 values"})
        stats_section[str(code)] = entry

    hist_section: dict = {
        "total": _hist_table(deltas, cfg),
    }
    for code in sorted(by_class):
        hist_section[str(code)] = _hist_table(_values(by_class[code], "delta_h"), cfg)

    anova_section = _try_inference(
        lambda: dataclasses.asdict(
            f_test(*anova_decompose([_values(g, "delta_h") for g in _anova_groups(by_class)]))
        )
    )

    correlations = {}
    for key, height_field, deriv_field in CORRELATION_PAIRS:
        xs, ys = _pairs(kept, height_field, deriv_field)
        correlations[key] = _try_inference(
            lambda xs=xs, ys=ys: dataclasses.asdict(pearson_r(xs, ys))
        )

    coords = [(r.x, r.y) for r in kept if r.delta_h is not None]
    moran_section = _try_inference(lambda: _moran_section(cfg, coords, deltas))

    provenance = {
        "tool": "demqa",
        "version": __version__,
        "command": "assess",
        "inputs": {
            "dem": cfg.dem,
            "gcps": cfg.gcps,
            "classmap": cfg.classmap,
            "legend": cfg.legend,
        },
        "config": cfg.echo(),
        "seed": cfg.seed,
        "extraction_method": cfg.method,
        "quantile_convention": QUANTILE_CONVENTION,
    }
    report = {
        "provenance": provenance,
        "screening": {
            "stages": stages,
            "tukey_field": cfg.tukey_field,
            "tukey_fences": dataclasses.asdict(fences),
        },
        "stats": stats_section,
        "anova": anova_section,
        "moran": moran_section,
        "correlations": correlations,
        "histograms": hist_section,
    }

    tagged = (
        [(r, "kept") for r in kept]
        + [(r, "removed_validity") for r in removed_validity]
        + [(r, "removed_outlier") for r in removed_outlier]
    )
    tagged.sort(key=lambda t: t[0].id)
    return report, tagged, legend


def _anova_groups(by_class: dict[int, list[SampleRecord]]) -> list[list[SampleRecord]]:
    groups = [g for _, g in sorted(by_class.items()) if _values(g, "delta_h")]
    if len(groups) < 2:
        raise InsufficientDataError(
            f"ANOVA needs >= 2 land-cover strata, got {len(groups)}"
        )
    return groups


def _try_inference(thunk) -> dict:
    try:
        return thunk()
    except DegenerateDataError as exc:
        return {"skipped": str(exc)}


def _moran_section(
    cfg: AssessConfig, coords: list[tuple[float, float]], values: list[float]
) -> dict:
    """Moran's I of ``values`` under cfg's weights, with the weights echoed.

    Raises DegenerateDataError when the statistic is undefined.
    """
    w = build_weights(
        coords,
        scheme=cfg.moran_scheme,
        threshold=cfg.moran_threshold,
        row_standardize=cfg.moran_row_standardize,
    )
    result = morans_significance(values, w, assumption=cfg.moran_assumption)
    section = dataclasses.asdict(result)
    section["weights"] = {
        "scheme": cfg.moran_scheme,
        "threshold": cfg.echo()["moran_threshold"],
        "threshold_used": w.threshold,
        "row_standardized": cfg.moran_row_standardize,
        "n": w.n,
        "s0": w.s0,
        "s1": w.s1,
        "s2": w.s2,
    }
    if cfg.n_perm > 0:
        perm = permutation_test(values, w, n_perm=cfg.n_perm, seed=cfg.seed)
        section["permutation"] = dataclasses.asdict(perm)
    return section


def _hist_table(values: list[float], cfg: AssessConfig) -> list[dict]:
    try:
        bins = histogram(values, bin_width=cfg.hist_width, origin=cfg.hist_origin)
    except ConfigError as exc:  # too many bins
        raise ConfigError(f"{HIST_WIDTH.name}: {exc}") from None
    return [{"lower": lower, "count": count} for lower, count in bins]


# ---------------------------------------------------------------------------
# output files


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def _provenance_comment(command: str) -> str:
    return f"# generated by demqa {__version__} ({command})"


def _write_csv(path: Path, command: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(_provenance_comment(command) + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _write_files(report, tagged, tmpdir: Path, legend: dict[int, str]) -> None:
    with open(tmpdir / REPORT_NAME, "w", encoding="utf-8", newline="") as f:
        json.dump(_jsonable(report), f, indent=2, sort_keys=True)
        f.write("\n")

    sample_rows = [
        [
            r.id,
            r.x,
            r.y,
            r.h_ref,
            r.h_dem,
            r.delta_h,
            r.class_code,
            None if r.class_code is None else legend.get(r.class_code, str(r.class_code)),
            r.slope_deg,
            r.aspect_deg,
            status,
        ]
        for r, status in tagged
    ]
    _write_csv(
        tmpdir / "samples.csv",
        "assess",
        ["id", "x", "y", "h_ref", "h_dem", "delta_h", "class_code", "class_label",
         "slope_deg", "aspect_deg", "status"],
        sample_rows,
    )

    stats_rows = []
    for key, entry in report["stats"].items():
        if key == "total":
            label, code = "total", "total"
        else:
            label, code = entry.get("label", key), key
        stats_rows.append(
            [
                code,
                label,
                entry.get("n"),
                entry.get("mean"),
                entry.get("sd"),
                entry.get("rmse"),
                entry.get("min"),
                entry.get("max"),
                entry.get("range"),
            ]
        )
    _write_csv(
        tmpdir / "stats_by_class.csv",
        "assess",
        ["class_code", "label", "n", "mean", "sd", "rmse", "min", "max", "range"],
        stats_rows,
    )

    hist_rows = []
    for key, bins in report["histograms"].items():
        for b in bins:
            hist_rows.append([key, b["lower"], b["count"]])
    _write_csv(
        tmpdir / "histogram.csv", "assess", ["class", "bin_lower", "count"], hist_rows
    )

    kept = [r for r, status in tagged if status == "kept"]
    _write_csv(
        tmpdir / "scatter_dh_vs_h.csv",
        "assess",
        ["id", "h_dem", "delta_h"],
        [[r.id, r.h_dem, r.delta_h] for r in kept if r.h_dem is not None],
    )
    _write_csv(
        tmpdir / "scatter_dh_vs_slope.csv",
        "assess",
        ["id", "slope_deg", "delta_h"],
        [
            [r.id, r.slope_deg, r.delta_h]
            for r in kept
            if r.slope_deg is not None and r.delta_h is not None
        ],
    )
    _write_csv(
        tmpdir / "scatter_dh_vs_aspect.csv",
        "assess",
        ["id", "aspect_deg", "delta_h"],
        [
            [r.id, r.aspect_deg, r.delta_h]
            for r in kept
            if r.aspect_deg is not None
            and r.aspect_deg != FLAT_ASPECT
            and r.delta_h is not None
        ],
    )
