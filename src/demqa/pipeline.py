"""The ``assess`` pipeline: named stages over one SampleTable.

    read_inputs -> extract -> attach -> screen -> statistics -> moran_section

Each stage takes the resolved configuration (a ``demqa.cli.AssessConfig``)
and works on whole table columns, never one point at a time.
``run_assess`` chains the stages into the report.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateDataError
from .landcover import read_legend_csv
from .raster import Grid, read_ascii_grid
from .sample import (
    SampleTable,
    attach_class,
    attach_derivatives,
    cells_near,
    extract_coincident,
    read_gcp_csv,
)
from .screen import tukey_filter, validity_filter
from .spatial import build_weights, morans_significance, permutation_test
from .stats import anova_decompose, f_test, histogram, pearson_r, summarize
from .terrain import FLAT_ASPECT

if TYPE_CHECKING:
    from .cli import AssessConfig

QUANTILE_CONVENTION = "linear interpolation between order statistics (inclusive)"

CORRELATION_PAIRS = (
    ("dh_vs_slope", "delta_h", "slope_deg"),
    ("dh_vs_aspect", "delta_h", "aspect_deg"),
    ("h_dem_vs_slope", "h_dem", "slope_deg"),
    ("h_ref_vs_slope", "h_ref", "slope_deg"),
    ("h_dem_vs_aspect", "h_dem", "aspect_deg"),
    ("h_ref_vs_aspect", "h_ref", "aspect_deg"),
)


def read_inputs(cfg: AssessConfig) -> tuple[Grid, SampleTable, Grid | None, dict[int, str]]:
    """The DEM, the control points, the class map (or None) and the legend (or {}).

    Only the grid cells the later stages read are converted
    (``cells_near``), and the grids hold those alone: ``raster.values_at``
    reads any other cell as NaN. The control points, which
    name those cells, are read first, but an error is reported in the
    order DEM, control points, class map, legend: when the control points
    fail, the DEM is checked before their error is raised.
    """
    try:
        points = read_gcp_csv(cfg.gcps)
    except Exception:  # whatever it is, a DEM error is reported first
        read_ascii_grid(cfg.dem, cells=lambda dem: ())
        raise
    return (
        read_ascii_grid(cfg.dem, cells=lambda dem: cells_near(dem, points.x, points.y, 1)),
        points,
        read_ascii_grid(cfg.classmap, cells=lambda cm: cells_near(cm, points.x, points.y, 0))
        if cfg.classmap else None,
        read_legend_csv(cfg.legend) if cfg.legend else {},
    )


def extract(cfg: AssessConfig, dem: Grid, points: SampleTable) -> SampleTable:
    """The control points with their DEM heights and height errors."""
    return extract_coincident(dem, points, method=cfg.method)


def attach(
    cfg: AssessConfig, dem: Grid, classmap: Grid | None, table: SampleTable
) -> SampleTable:
    """``table`` with land-cover codes (given a class map) and slope/aspect."""
    if classmap is not None:
        table = attach_class(classmap, table, remap=cfg.remap)
    return attach_derivatives(dem, table, z_factor=cfg.z_factor)


def screen(
    cfg: AssessConfig, table: SampleTable, require_class: bool
) -> tuple[SampleTable, SampleTable, dict]:
    """Run the validity and Tukey screens.

    Returns the kept rows, every row sorted by id with its screening
    status (the samples table), and the report's screening section.
    """
    kept, removed_validity = validity_filter(
        table,
        exclude_classes=cfg.exclude_classes,
        min_h=cfg.min_h,
        require_class=require_class,
    )
    n_valid = len(kept)
    kept, removed_outlier, fences = tukey_filter(kept, field=cfg.tukey_field)
    stages = [
        ("extracted", len(table), len(table), 0),
        ("validity", len(table), n_valid, len(removed_validity)),
        ("tukey", n_valid, len(kept), len(removed_outlier)),
    ]
    rows = SampleTable.concat([kept, removed_validity, removed_outlier])
    samples = rows.take(sorted(range(len(rows)), key=rows.ids.__getitem__))
    section = {
        "stages": [dict(zip(("stage", "before", "kept", "removed"), s)) for s in stages],
        "tukey_field": cfg.tukey_field,
        "tukey_fences": dataclasses.asdict(fences),
    }
    return kept, samples, section


def statistics(cfg: AssessConfig, kept: SampleTable, legend: dict[int, str]) -> dict:
    """The stats, histograms, anova and correlations sections of the report.

    Degenerate inference on one statistic (constant errors, too few
    strata) is recorded as a skip, not raised: a perfectly flat error
    field is a legitimate assessment outcome.
    """
    dh = kept.delta_h
    deltas = dh[~np.isnan(dh)]
    codes = kept.class_code
    found = sorted(set(codes[~np.isnan(codes)].tolist()))
    by_class = {int(c): dh[(codes == c) & ~np.isnan(dh)] for c in found}

    stats: dict = {"total": dataclasses.asdict(summarize(deltas))}
    histograms = {"total": _hist_table(cfg, deltas)}
    for code, values in by_class.items():
        entry: dict = {"label": legend.get(code, str(code))}
        if values.size >= 2:
            entry.update(dataclasses.asdict(summarize(values)))
        else:
            entry.update({"n": values.size, "skipped": "fewer than 2 values"})
        stats[str(code)] = entry
        histograms[str(code)] = _hist_table(cfg, values)

    groups = [values for values in by_class.values() if values.size]
    if len(groups) < 2:
        anova = {"skipped": f"ANOVA needs >= 2 land-cover strata, got {len(groups)}"}
    else:
        anova = _try_inference(lambda: dataclasses.asdict(f_test(*anova_decompose(groups))))

    correlations = {}
    for key, height_field, deriv_field in CORRELATION_PAIRS:
        xs, ys = getattr(kept, height_field), getattr(kept, deriv_field)
        use = ~np.isnan(xs) & ~np.isnan(ys)
        if deriv_field == "aspect_deg":
            use &= ys != FLAT_ASPECT
        correlations[key] = _try_inference(
            lambda: dataclasses.asdict(pearson_r(xs[use], ys[use]))
        )
    return {
        "stats": stats,
        "histograms": histograms,
        "anova": anova,
        "correlations": correlations,
    }


def _try_inference(thunk: Callable[[], dict]) -> dict:
    try:
        return thunk()
    except DegenerateDataError as exc:
        return {"skipped": str(exc)}


def _hist_table(cfg: AssessConfig, values: np.ndarray) -> list[dict]:
    try:
        bins = histogram(values, bin_width=cfg.hist_width, origin=cfg.hist_origin)
    except ConfigError as exc:  # too many bins
        raise ConfigError(f"{cfg.option_name('hist_width')}: {exc}") from None
    return [{"lower": lower, "count": count} for lower, count in bins]


def moran_section(cfg: AssessConfig, coords, values) -> dict:
    """Moran's I of ``values`` at ``coords`` under cfg's weights, with the
    weights echoed, and the permutation test when cfg asks for one.

    Raises DegenerateDataError when the statistic is undefined, and
    ConfigError naming the threshold option when the weights would be
    too many.
    """
    try:
        w = build_weights(
            coords,
            scheme=cfg.moran_scheme,
            threshold=cfg.moran_threshold,
            row_standardize=cfg.moran_row_standardize,
        )
    except ConfigError as exc:  # too many weights
        raise ConfigError(f"{cfg.option_name('moran_threshold')}: {exc}") from None
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


def run_assess(cfg: AssessConfig) -> tuple[dict, SampleTable, dict[int, str]]:
    """Run the full assessment pipeline.

    Returns the report, the samples table (every row sorted by id, with
    its screening status: kept / removed_validity / removed_outlier) and
    the class legend (empty without one).
    """
    cfg.validate()
    dem, points, classmap, legend = read_inputs(cfg)
    table = attach(cfg, dem, classmap, extract(cfg, dem, points))
    kept, samples, screening = screen(cfg, table, require_class=classmap is not None)
    sections = statistics(cfg, kept, legend)
    has_dh = ~np.isnan(kept.delta_h)
    coords = np.column_stack((kept.x[has_dh], kept.y[has_dh]))
    moran = _try_inference(lambda: moran_section(cfg, coords, kept.delta_h[has_dh]))

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
    report = {"provenance": provenance, "screening": screening, "moran": moran, **sections}
    return report, samples, legend
