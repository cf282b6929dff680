"""Command line: configuration, subcommands and the ``assess`` output files.

One command = one process. ``assess`` runs the pipeline of
:mod:`demqa.pipeline` (extract -> validity screen -> Tukey screen ->
per-class summaries -> ANOVA -> correlations -> Moran's I) and writes
``report.json`` plus plot-ready CSV tables. The other subcommands are
thin wrappers over single modules.

Configuration is a flat INI file; command-line flags override it. Each
option is one row of ``OPTIONS``: its INI key, flag, text parser and legal
values. Every report echoes the full resolved configuration, because most
of the knobs (weights scheme, quantile convention, extraction method)
change numbers.

Exit codes: 0 success, 2 configuration error, 3 input parse error,
4 degenerate statistics.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateDataError, ParseError
from .landcover import read_legend_csv, read_training_csv, train_parallelepiped, classify
from .pipeline import moran_section, run_assess
from .raster import MultibandGrid, _csv_rows, _open_text, read_ascii_grid, write_ascii_grid
from .sample import EXTRACTION_METHODS, SampleTable
from .screen import FILTER_FIELDS
from .spatial import ASSUMPTIONS, WEIGHT_SCHEMES
from .synth import SCENE_KINDS, SceneSpec, scatter_points
from .terrain import FLAT_ASPECT, slope_aspect

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_DEGENERATE = 4

REPORT_NAME = "report.json"
CSV_NAMES = (
    "samples.csv",
    "stats_by_class.csv",
    "histogram.csv",
    "scatter_dh_vs_h.csv",
    "scatter_dh_vs_slope.csv",
    "scatter_dh_vs_aspect.csv",
)


@dataclass
class AssessConfig:
    """Resolved configuration of an assessment run."""

    dem: str = ""
    gcps: str = ""
    classmap: str | None = None
    legend: str | None = None
    out_dir: str = "out"
    method: str = "nearest"
    exclude_classes: tuple[int, ...] = ()
    min_h: float | None = None
    tukey_field: str = "delta_h"
    remap: dict[int, int] = field(default_factory=dict)
    z_factor: float = 1.0
    moran_scheme: str = "inverse_distance"
    moran_threshold: float | None = None  # None = auto
    moran_row_standardize: bool = False
    moran_assumption: str = "randomization"
    n_perm: int = 0
    seed: int = 0
    hist_width: float = 1.0
    hist_origin: float = 0.0

    def validate(self, rows: Sequence[Option] | None = None) -> None:
        """Raise ConfigError naming the first of ``rows`` (default: all) with an illegal value."""
        for row in OPTIONS if rows is None else rows:
            if row.check is not None:
                _check(row.name, getattr(self, row.field), row.check)

    @staticmethod
    def option_name(field_name: str) -> str:
        """The name of the option that sets ``field_name``, as messages give it."""
        return next(row.name for row in OPTIONS if row.field == field_name)

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        d["remap"] = {str(k): v for k, v in sorted(self.remap.items())}
        d["exclude_classes"] = sorted(self.exclude_classes)
        d["moran_threshold"] = (
            "auto" if self.moran_threshold is None else self.moran_threshold
        )
        return d


# ---------------------------------------------------------------------------
# the options table: INI keys, flags, text parsers and value checks


class Check(NamedTuple):
    ok: Callable[[object], bool]
    legal: str  # completes "<option> must be ..."


def _check(name: str, value, check: Check) -> None:
    """Raise ConfigError naming option ``name`` unless ``value`` passes ``check``."""
    if not check.ok(value):
        raise ConfigError(f"{name} must be {check.legal}, got {value!r}")


REQUIRED = Check(bool, "non-empty")
# None stands for "none"/"auto" and is always legal
FINITE = Check(lambda v: v is None or math.isfinite(v), "finite")
POSITIVE = Check(lambda v: v is None or (math.isfinite(v) and v > 0), "finite and > 0")


def _one_of(names: Sequence[str]) -> Check:
    return Check(lambda v: v in names, "one of " + ", ".join(names))


def _parts(text: str) -> list[str]:
    return [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _parts(text))


def _remap(text: str) -> dict[int, int]:
    pairs = [p.split(":") for p in _parts(text)]
    return {int(src): int(dst) for src, dst in pairs}


def _bool(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]


def _path(text: str) -> str | None:
    return text or None


def _float_or(word: str) -> Callable[[str], float | None]:
    """Parser of a number, where ``word`` (any case) or blank text means None."""
    return lambda text: None if text.strip().lower() in ("", word) else float(text)


class Option(NamedTuple):
    """One assess option: its AssessConfig field, INI key, flag, parser and check."""

    field: str
    section: str
    key: str
    flag: str
    parse: Callable[[str], object]  # INI or flag text -> value; ValueError/KeyError if bad
    help: str
    check: Check | None = None

    @property
    def name(self) -> str:
        return f"[{self.section}] {self.key} ({self.flag})"


OPTIONS = (
    Option("dem", "input", "dem", "--dem", str, "DEM ASCII grid", REQUIRED),
    Option("gcps", "input", "gcps", "--gcps", str, "control point CSV (id,x,y,h)", REQUIRED),
    Option("classmap", "input", "classmap", "--classmap", _path, "land-cover class grid"),
    Option("legend", "input", "legend", "--legend", _path, "class legend CSV (class_code,label)"),
    Option("out_dir", "output", "dir", "--out", str, "output directory"),
    Option("method", "extract", "method", "--method", str, "height extraction method",
           _one_of(EXTRACTION_METHODS)),
    Option("exclude_classes", "screen", "exclude_classes", "--exclude-classes", _int_list,
           "comma-separated class codes to drop"),
    Option("min_h", "screen", "min_h", "--min-h", _float_or("none"),
           "drop records with h_dem below this, or none", FINITE),
    Option("tukey_field", "screen", "tukey_field", "--tukey-field", str,
           "field the Tukey fences screen", _one_of(FILTER_FIELDS)),
    Option("remap", "classes", "remap", "--remap", _remap,
           "class remap entries src:dst[,src:dst...]"),
    Option("z_factor", "terrain", "z_factor", "--z-factor", float,
           "vertical-to-horizontal unit conversion", POSITIVE),
    Option("moran_scheme", "moran", "scheme", "--scheme", str, "Moran weights scheme",
           _one_of(WEIGHT_SCHEMES)),
    Option("moran_threshold", "moran", "threshold", "--threshold", _float_or("auto"),
           "Moran distance cutoff, or auto = max nearest-neighbour distance", POSITIVE),
    Option("moran_row_standardize", "moran", "row_standardize", "--row-standardize", _bool,
           "row-standardise the Moran weights"),
    Option("moran_assumption", "moran", "assumption", "--assumption", str,
           "Moran significance assumption", _one_of(ASSUMPTIONS)),
    Option("n_perm", "moran", "n_perm", "--n-perm", int, "permutations (0 = analytic only)",
           Check(lambda v: v == 0 or v >= 99, "0 or >= 99")),
    Option("seed", "moran", "seed", "--seed", int, "permutation seed",
           Check(lambda v: v >= 0, ">= 0")),
    Option("hist_width", "histogram", "width", "--hist-width", float, "histogram bin width",
           POSITIVE),
    Option("hist_origin", "histogram", "origin", "--hist-origin", float,
           "a histogram bin edge", FINITE),
)
MORAN_OPTIONS = tuple(row for row in OPTIONS if row.section == "moran")


def _set_from_text(
    cfg: AssessConfig, rows: Sequence[Option], text_of: Callable[[Option], str | None]
) -> AssessConfig:
    """Parse ``text_of(row)`` into ``cfg`` for each row that has text."""
    for row in rows:
        text = text_of(row)
        if text is None:
            continue
        try:
            setattr(cfg, row.field, row.parse(text))
        except (ValueError, KeyError):
            raise ConfigError(f"bad value for {row.name}: '{text}'") from None
    return cfg


def load_config(path: str | Path) -> AssessConfig:
    """Read an INI config file into an AssessConfig (not yet validated).

    Every (section, key), including keys a section inherits from
    ``[DEFAULT]``, must be a row of ``OPTIONS``; a misspelt one is an error,
    not a silent fallback to the default.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with _open_text(path, "r") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from None
    known = {(row.section, row.key) for row in OPTIONS}
    for section in parser.sections() or [parser.default_section]:
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown option [{section}] {key}")
    return _set_from_text(
        AssessConfig(), OPTIONS, lambda row: parser.get(row.section, row.key, fallback=None)
    )


def _config(args: argparse.Namespace, rows: Sequence[Option]) -> AssessConfig:
    """The --config file, if any, overridden by the flags of ``rows`` (not yet validated)."""
    cfg = load_config(args.config) if getattr(args, "config", None) else AssessConfig()
    return _set_from_text(cfg, rows, lambda row: getattr(args, row.field))


def _add_flags(parser: argparse.ArgumentParser, rows: Sequence[Option]) -> None:
    for row in rows:
        legal = f" [{row.check.legal}]" if row.check is not None else ""
        if row.parse is _bool:  # a bare flag, same as "<key> = true"
            kind = {"action": "store_const", "const": "true"}
        else:
            kind = {"metavar": row.key.upper()}
        parser.add_argument(row.flag, dest=row.field, help=row.help + legal, **kind)


# ---------------------------------------------------------------------------
# output files


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _jsonable(obj.item())
    return obj


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def _floats(column: np.ndarray) -> list[str]:
    """CSV text of a table column: repr per float, "" where missing (NaN)."""
    return [repr(v) if v == v else "" for v in column.tolist()]


def _provenance_comment(command: str) -> str:
    return f"# generated by demqa {__version__} ({command})"


def _write_csv(path: Path, header: list[str], columns: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(_provenance_comment("assess") + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_assess_outputs(
    report: dict,
    samples: SampleTable,
    out_dir: str | Path,
    legend: dict[int, str],
) -> list[Path]:
    """Write report.json and the CSV tables atomically.

    ``samples`` is every row with its screening status, in the order of
    ``samples.csv``. All files land in a temp directory first and are
    renamed into place only after every one of them has been produced.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=".demqa-tmp-", dir=out))
    try:
        _write_files(report, samples, tmpdir, legend)
        written = []
        for name in (REPORT_NAME, *CSV_NAMES):
            os.replace(tmpdir / name, out / name)
            written.append(out / name)
        return written
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _write_files(report: dict, samples: SampleTable, tmpdir: Path, legend: dict[int, str]) -> None:
    with open(tmpdir / REPORT_NAME, "w", encoding="utf-8", newline="") as f:
        f.write(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")

    floats = ("x", "y", "h_ref", "h_dem", "delta_h", "slope_deg", "aspect_deg")
    text = {c: _floats(getattr(samples, c)) for c in floats}
    codes = [None if c != c else int(c) for c in samples.class_code.tolist()]
    _write_csv(
        tmpdir / "samples.csv",
        ["id", "x", "y", "h_ref", "h_dem", "delta_h", "class_code", "class_label",
         "slope_deg", "aspect_deg", "status"],
        [
            samples.ids,
            *(text[c] for c in ("x", "y", "h_ref", "h_dem", "delta_h")),
            ["" if c is None else str(c) for c in codes],
            ["" if c is None else legend.get(c, str(c)) for c in codes],
            text["slope_deg"],
            text["aspect_deg"],
            samples.status.tolist(),
        ],
    )

    stats_rows = []
    for key, entry in report["stats"].items():
        label, code = ("total", "total") if key == "total" else (entry.get("label", key), key)
        stats_rows.append([code, label] + [
            entry.get(k) for k in ("n", "mean", "sd", "rmse", "min", "max", "range")
        ])
    _write_csv(
        tmpdir / "stats_by_class.csv",
        ["class_code", "label", "n", "mean", "sd", "rmse", "min", "max", "range"],
        [list(map(_fmt_cell, column)) for column in zip(*stats_rows)],
    )

    hist_rows = [
        (key, b["lower"], b["count"]) for key, bins in report["histograms"].items() for b in bins
    ]
    _write_csv(
        tmpdir / "histogram.csv",
        ["class", "bin_lower", "count"],
        [list(map(_fmt_cell, column)) for column in zip(*hist_rows)],
    )

    # the scatter tables are kept rows of samples.csv: reuse its cell text
    usable = (samples.status == "kept") & ~np.isnan(samples.delta_h)
    aspect = samples.aspect_deg
    for name, field_name, use in (
        ("scatter_dh_vs_h.csv", "h_dem", samples.status == "kept"),
        ("scatter_dh_vs_slope.csv", "slope_deg", usable),
        ("scatter_dh_vs_aspect.csv", "aspect_deg", usable & (aspect != FLAT_ASPECT)),
    ):
        rows = np.flatnonzero(use & ~np.isnan(getattr(samples, field_name))).tolist()
        _write_csv(
            tmpdir / name,
            ["id", field_name, "delta_h"],
            [[column[k] for k in rows] for column in
             (samples.ids, text[field_name], text["delta_h"])],
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_assess(args: argparse.Namespace) -> int:
    cfg = _config(args, OPTIONS)
    report, samples, legend = run_assess(cfg)
    written = write_assess_outputs(report, samples, cfg.out_dir, legend)
    total = report["stats"]["total"]
    print(
        f"assessed {total['n']} points: mean {total['mean']:.4f} m, "
        f"sd {total['sd']:.4f} m, rmse {total['rmse']:.4f} m"
    )
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_terrain(args: argparse.Namespace) -> int:
    _check("--z-factor", args.z_factor, POSITIVE)
    dem = read_ascii_grid(args.dem)
    pair = slope_aspect(dem, z_factor=args.z_factor)
    comment = _provenance_comment("terrain").lstrip("# ") + f" from {args.dem}"
    slope_path = f"{args.out_prefix}_slope.asc"
    aspect_path = f"{args.out_prefix}_aspect.asc"
    write_ascii_grid(pair.slope, slope_path, comment=comment)
    write_ascii_grid(pair.aspect, aspect_path, comment=comment)
    print(f"wrote {slope_path}")
    print(f"wrote {aspect_path}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    _check("--k", args.k, POSITIVE)
    bands = [read_ascii_grid(p) for p in args.image]
    for k, (path, band) in enumerate(zip(args.image, bands), start=1):
        if not band.same_georef(bands[0]):
            raise ParseError(
                f"band {k} ({path}) georeferencing differs from band 1 ({args.image[0]})"
            )
    image = MultibandGrid(bands=bands)
    training = read_training_csv(args.training)
    legend = read_legend_csv(args.legend) if args.legend else None
    boxes = train_parallelepiped(image, training, k=args.k, labels=legend)
    result = classify(image, boxes)
    comment = (
        _provenance_comment("classify").lstrip("# ")
        + f" k={args.k} training={args.training}"
    )
    write_ascii_grid(result, args.out, comment=comment)
    print(f"wrote {args.out} ({len(boxes)} classes)")
    cell_area = result.cellsize * result.cellsize
    for box in boxes:
        count = int((result.values == box.class_code).sum())
        print(f"  class {box.class_code} ({box.label}): {count} cells, "
              f"area {count * cell_area!r}")
    unclassified = int((result.values == 0).sum())
    print(f"  unclassified: {unclassified} cells")
    return EXIT_OK


def _read_samples_csv(path: str, field_name: str) -> tuple[list[tuple[float, float]], list[float]]:
    rows = _csv_rows(path, "samples file")
    cols = [c.strip().lower() for c in next(rows)[1]]
    for needed in ("x", "y", field_name):
        if needed not in cols:
            raise ParseError(f"samples file lacks column '{needed}'")
    coords, values = [], []
    for lineno, fields in rows:
        row = dict(zip(cols, fields))
        if (row.get("status") or "kept").strip() != "kept":
            continue
        raw = (row.get(field_name) or "").strip()
        if not raw:
            continue
        try:
            point = float(row["x"]), float(row["y"]), float(raw)
        except (KeyError, ValueError):
            raise ParseError("bad numeric value in samples file", line=lineno) from None
        if not all(map(math.isfinite, point)):
            raise ParseError("non-finite value in samples file", line=lineno)
        coords.append(point[:2])
        values.append(point[2])
    return coords, values


def cmd_moran(args: argparse.Namespace) -> int:
    cfg = _config(args, MORAN_OPTIONS)
    cfg.validate(MORAN_OPTIONS)
    coords, values = _read_samples_csv(args.samples, args.field)
    out = moran_section(cfg, coords, values)
    out["provenance"] = _provenance_comment("moran").lstrip("# ") + f" samples={args.samples}"
    text = json.dumps(_jsonable(out), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SceneSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SceneSpec)})
    try:  # a scene or point parameter out of range raises ValueError
        grid = spec.build()
        pts = scatter_points(
            grid,
            args.n_points,
            seed=args.seed,
            min_separation=args.min_separation,
            snap_to_centres=args.snap_centres,
            error_sd=args.error_sd,
        ) if args.gcps_out else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    comment = _provenance_comment("synth").lstrip("# ") + f" kind={args.kind} seed={args.seed}"
    write_ascii_grid(grid, args.out, comment=comment)
    print(f"wrote {args.out}")
    if pts is not None:
        with open(args.gcps_out, "w", encoding="utf-8", newline="") as f:
            f.write(_provenance_comment("synth") + "\n")
            f.write("id,x,y,h\n")
            for p in pts:
                f.write(f"{p.id},{repr(p.x)},{repr(p.y)},{repr(p.h_ref)}\n")
        print(f"wrote {args.gcps_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demqa",
        description="Vertical accuracy assessment of a DEM against ground control points.",
    )
    parser.add_argument("--version", action="version", version=f"demqa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="run the full assessment pipeline")
    p.add_argument("--config", help="INI config file; flags below override it")
    _add_flags(p, OPTIONS)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("terrain", help="slope/aspect grids from a DEM")
    p.add_argument("dem")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--z-factor", dest="z_factor", type=float, default=1.0)
    p.set_defaults(func=cmd_terrain)

    p = sub.add_parser("classify", help="parallelepiped land-cover classification")
    p.add_argument("--image", nargs="+", required=True, help="band grids, in order")
    p.add_argument("--training", required=True, help="CSV x,y,class_code")
    p.add_argument("--legend", help="CSV class_code,label")
    p.add_argument("--k", type=float, default=2.0, help="box half-width in SDs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("moran", help="Global Moran's I of a sample table")
    p.add_argument("--samples", required=True, help="CSV with x, y and the value field")
    p.add_argument("--field", default="delta_h")
    _add_flags(p, MORAN_OPTIONS)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_moran)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--kind", choices=SCENE_KINDS, required=True)
    p.add_argument("--nrows", type=int, required=True)
    p.add_argument("--ncols", type=int, required=True)
    p.add_argument("--cellsize", type=float, default=1.0)
    p.add_argument("--xll", type=float, default=0.0)
    p.add_argument("--yll", type=float, default=0.0)
    p.add_argument("--a", type=float, default=0.0, help="plane x gradient")
    p.add_argument("--b", type=float, default=0.0, help="plane y gradient")
    p.add_argument("--c", type=float, default=0.0, help="plane offset")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--sd", type=float, default=1.0)
    p.add_argument("--radius", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--gcps-out", dest="gcps_out")
    p.add_argument("--n-points", dest="n_points", type=int, default=100)
    p.add_argument("--min-separation", dest="min_separation", type=float, default=0.0)
    p.add_argument("--snap-centres", dest="snap_centres", action="store_true")
    p.add_argument("--error-sd", dest="error_sd", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"parse error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateDataError as exc:
        print(f"degenerate statistics [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"i/o error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
