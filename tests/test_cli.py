import configparser
import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import demqa._workers
import demqa.cli
import demqa.pipeline
import demqa.spatial
from demqa.cli import OPTIONS, AssessConfig, _config, build_parser, load_config, main
from demqa.errors import ConfigError
from demqa.landcover import read_training_csv
from demqa.raster import Grid, read_ascii_grid, write_ascii_grid
from demqa.synth import make_checkerboard, make_plane, make_smoothed_noise, scatter_points

REPORT_KEYS = {
    "provenance", "screening", "stats", "anova", "moran", "correlations", "histograms",
}

REPORT_SCHEMA = {
    "type": "object",
    "required": sorted(REPORT_KEYS),
    "properties": {
        "provenance": {
            "type": "object",
            "required": ["tool", "version", "command", "inputs", "config", "seed",
                         "extraction_method", "quantile_convention"],
        },
        "screening": {
            "type": "object",
            "required": ["stages", "tukey_field", "tukey_fences"],
            "properties": {
                "stages": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["stage", "before", "kept", "removed"],
                    },
                },
            },
        },
        "stats": {
            "type": "object",
            "required": ["total"],
        },
        "anova": {"type": "object"},
        "moran": {"type": "object"},
        "correlations": {"type": "object"},
        "histograms": {"type": "object", "required": ["total"]},
    },
}


def write_closure_scene(tmp_path, n_points=40):
    dem = make_plane(0.5, -0.25, 20.0, 12, 12, cellsize=3.0)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    pts = scatter_points(dem, n_points, seed=11, snap_to_centres=True)
    with open(tmp_path / "gcps.csv", "w") as f:
        f.write("id,x,y,h\n")
        for p in pts:
            f.write(f"{p.id},{p.x!r},{p.y!r},{p.h_ref!r}\n")
    return tmp_path / "dem.asc", tmp_path / "gcps.csv"


def write_config(tmp_path, dem, gcps, out, extra=""):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[input]\ndem = {dem}\ngcps = {gcps}\n\n"
        f"[output]\ndir = {out}\n" + extra
    )
    return cfg


def write_classed_scene(tmp_path):
    """Terrain with relief, a 3-class map plus water, noisy GCPs."""
    rng = np.random.default_rng(0)
    base = make_smoothed_noise(5.0, 4, 30, 30, seed=2, cellsize=20.0)
    dem = Grid(ncols=30, nrows=30, xll=0, yll=0, cellsize=20.0,
               values=base.values * 6 + 200)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    codes = rng.choice([1, 2, 3], size=(30, 30)).astype(float)
    codes[:, 0] = 5.0
    write_ascii_grid(
        Grid(ncols=30, nrows=30, xll=0, yll=0, cellsize=20.0, values=codes),
        tmp_path / "classes.asc",
    )
    (tmp_path / "legend.csv").write_text(
        "class_code,label\n1,bare land\n2,built-up\n3,vegetation\n5,water\n"
    )
    pts = scatter_points(dem, 150, seed=9, error_sd=2.0)
    with open(tmp_path / "gcps.csv", "w") as f:
        f.write("id,x,y,h\n")
        for i, p in enumerate(pts):
            h = p.h_ref + (80.0 if i == 3 else 0.0)  # one gross outlier
            f.write(f"{p.id},{p.x!r},{p.y!r},{h!r}\n")
    return dem


def test_closure_scene_all_zero(tmp_path, capsys):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dem, gcps, out)
    assert main(["assess", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    total = report["stats"]["total"]
    assert abs(total["rmse"]) <= 1e-12
    assert abs(total["mean"]) <= 1e-12
    assert total["n"] == 40
    for name in ("samples.csv", "stats_by_class.csv", "histogram.csv",
                 "scatter_dh_vs_h.csv", "scatter_dh_vs_slope.csv",
                 "scatter_dh_vs_aspect.csv"):
        assert (out / name).exists()


def test_anova_skipped_when_no_height_error_varies(tmp_path):
    # every delta h is 0, so F is 0/0; it used to be reported as inf with p = 0
    dem, gcps = write_closure_scene(tmp_path)
    codes = np.repeat([[1.0] * 6 + [2.0] * 6], 12, axis=0)
    write_ascii_grid(Grid(ncols=12, nrows=12, xll=0, yll=0, cellsize=3.0, values=codes),
                     tmp_path / "classes.asc")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dem, gcps, out)
    classmap = str(tmp_path / "classes.asc")
    assert main(["assess", "--config", str(cfg), "--classmap", classmap]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stats"]["1"]["n"] > 0 and report["stats"]["2"]["n"] > 0
    assert report["anova"] == {
        "skipped": "F undefined: no value varies, within or between groups"
    }


def test_constant_errors_within_classes_report_an_infinite_f(tmp_path):
    # a flat DEM and a checkerboard class map: class 1 points are 0.5 m
    # high, class -1 points 1.5 m, so the within-class sum of squares is 0
    dem = make_plane(0.0, 0.0, 100.0, 6, 6, cellsize=10.0)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    write_ascii_grid(make_checkerboard(1.0, 6, 6, cellsize=10.0), tmp_path / "classes.asc")
    with open(tmp_path / "gcps.csv", "w") as f:
        f.write("id,x,y,h\n")
        for r in range(6):
            for c in range(6):
                h = 99.5 if (r + c) % 2 == 0 else 98.5
                f.write(f"p{r}{c},{10 * c + 5},{55 - 10 * r},{h}\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tmp_path / "dem.asc", tmp_path / "gcps.csv", out)
    classmap = str(tmp_path / "classes.asc")
    assert main(["assess", "--config", str(cfg), "--classmap", classmap]) == 0
    text = (out / "report.json").read_text()
    anova = json.loads(text)["anova"]
    assert (anova["f"], anova["infinite_f"], anova["p"]) == ("inf", True, 0.0)
    for pair in ('"f": "inf"', '"infinite_f": true', '"p": 0.0'):
        assert pair in text


def test_repeated_runs_byte_identical(tmp_path):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dem, gcps, out)
    assert main(["assess", "--config", str(cfg)]) == 0
    first = (out / "report.json").read_bytes()
    first_samples = (out / "samples.csv").read_bytes()
    assert main(["assess", "--config", str(cfg)]) == 0
    assert (out / "report.json").read_bytes() == first
    assert (out / "samples.csv").read_bytes() == first_samples


def test_report_bytes_do_not_depend_on_permutation_workers(tmp_path, monkeypatch):
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(tmp_path, out, extra="[moran]\nn_perm = 999\nseed = 3\n")
    reports = set()
    for workers in (1, 2):
        monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
        assert main(["assess", "--config", str(cfg)]) == 0
        reports.add((out / "report.json").read_bytes())
    assert len(reports) == 1
    assert b'"permutation"' in reports.pop()


def classed_config(tmp_path, out, extra=""):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[input]\n"
        f"dem = {tmp_path / 'dem.asc'}\n"
        f"gcps = {tmp_path / 'gcps.csv'}\n"
        f"classmap = {tmp_path / 'classes.asc'}\n"
        f"legend = {tmp_path / 'legend.csv'}\n\n"
        f"[output]\ndir = {out}\n" + extra
    )
    return cfg


def test_report_matches_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(
        tmp_path, out,
        extra="[screen]\nexclude_classes = 5\nmin_h = 0\n\n[moran]\nn_perm = 999\nseed = 3\n",
    )
    assert main(["assess", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    jsonschema.validate(report, REPORT_SCHEMA)
    # the auto threshold is resolved to the number actually used
    weights = report["moran"]["weights"]
    assert weights["threshold"] == "auto"
    assert isinstance(weights["threshold_used"], float)
    assert weights["threshold_used"] > 0


def test_classed_run_consistency(tmp_path):
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(
        tmp_path, out, extra="[screen]\nexclude_classes = 5\nmin_h = 0\n"
    )
    assert main(["assess", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())

    # class counts sum to total
    class_n = sum(v["n"] for k, v in report["stats"].items() if k != "total")
    assert class_n == report["stats"]["total"]["n"]

    # ledger: kept + removed = before, monotone nonincreasing, chains
    stages = report["screening"]["stages"]
    for st in stages:
        assert st["kept"] + st["removed"] == st["before"]
    for prev, nxt in zip(stages, stages[1:]):
        assert nxt["before"] == prev["kept"]
        assert nxt["kept"] <= prev["kept"]

    # the planted outlier was caught
    assert stages[-1]["stage"] == "tukey"
    assert stages[-1]["removed"] >= 1

    # histogram counts match stats n
    hist_total = sum(b["count"] for b in report["histograms"]["total"])
    assert hist_total == report["stats"]["total"]["n"]

    # labels came from the legend
    labels = {v["label"] for k, v in report["stats"].items() if k != "total"}
    assert labels <= {"bare land", "built-up", "vegetation"}


def test_class_remap_merges_strata(tmp_path):
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(
        tmp_path, out,
        extra="[screen]\nexclude_classes = 5\n\n[classes]\nremap = 2:3\n",
    )
    assert main(["assess", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "2" not in report["stats"]
    assert {"total", "1", "3"} == set(report["stats"])


def test_config_error_before_any_io(tmp_path, capsys):
    # The DEM path does not even exist: validation must fire first.
    cfg = write_config(tmp_path, tmp_path / "missing.asc", tmp_path / "missing.csv",
                       tmp_path / "out", extra="[extract]\nmethod = cubic\n")
    assert main(["assess", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["missing.ini", "a_directory"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    assert main(["assess", "--config", str(tmp_path / name)]) == 2
    assert capsys.readouterr().err.startswith("config error [assess]: cannot read config file: ")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.asc"
    bad.write_text("not a grid\n")
    gcps = tmp_path / "g.csv"
    gcps.write_text("id,x,y,h\na,1,1,1\n")
    cfg = write_config(tmp_path, bad, gcps, tmp_path / "out")
    assert main(["assess", "--config", str(cfg)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_degenerate_data_exit_code(tmp_path, capsys):
    dem, _ = write_closure_scene(tmp_path)
    gcps = tmp_path / "one.csv"
    gcps.write_text("id,x,y,h\na,1.5,1.5,20\n")
    cfg = write_config(tmp_path, dem, gcps, tmp_path / "out")
    assert main(["assess", "--config", str(cfg)]) == 4
    assert "degenerate" in capsys.readouterr().err


def test_no_partial_outputs_on_failure(tmp_path):
    dem, gcps = write_closure_scene(tmp_path)
    bad_gcps = tmp_path / "bad.csv"
    bad_gcps.write_text("id,x,y,h\na,1.5,oops,20\nb,2,2,20\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dem, bad_gcps, out)
    assert main(["assess", "--config", str(cfg)]) == 3
    assert not out.exists() or not any(out.iterdir())


def earlier_outputs(tmp_path):
    """A closure scene's config, and its out/ holding files of an earlier run."""
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    earlier = {}
    for name in (demqa.cli.REPORT_NAME, *demqa.cli.CSV_NAMES):
        earlier[name] = f"earlier {name}\n".encode()
        (out / name).write_bytes(earlier[name])
    return write_config(tmp_path, dem, gcps, out), out, earlier


def assert_outputs_kept(out, earlier):
    for name, data in earlier.items():
        assert (out / name).read_bytes() == data, name
    # no temporary file is left beside them
    assert sorted(os.listdir(out)) == sorted([*demqa.cli.CSV_NAMES, demqa.cli.REPORT_NAME])


def test_a_directory_target_replaces_no_output(tmp_path, capsys):
    cfg, out, earlier = earlier_outputs(tmp_path)
    (out / "histogram.csv").unlink()
    (out / "histogram.csv").mkdir()
    del earlier["histogram.csv"]
    assert main(["assess", "--config", str(cfg)]) == 3
    assert "histogram.csv" in capsys.readouterr().err
    assert_outputs_kept(out, earlier)
    assert not any((out / "histogram.csv").iterdir())


def test_a_failing_table_replaces_no_output(tmp_path, monkeypatch, capsys):
    cfg, out, earlier = earlier_outputs(tmp_path)
    write_csv = demqa.cli._write_csv

    def failing(dest, *args):
        if "histogram.csv" in str(getattr(dest, "name", dest)):
            raise OSError(28, "No space left on device")
        write_csv(dest, *args)

    monkeypatch.setattr(demqa.cli, "_write_csv", failing)
    assert main(["assess", "--config", str(cfg)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert_outputs_kept(out, earlier)


def test_csv_format(tmp_path):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dem, gcps, out)
    assert main(["assess", "--config", str(cfg)]) == 0
    raw = (out / "samples.csv").read_bytes()
    assert b"\r\n" not in raw  # LF only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "id,x,y,h_ref,h_dem,delta_h,class_code,class_label,slope_deg,aspect_deg,status"
    assert len(lines) == 2 + 40


def test_terrain_command(tmp_path):
    dem = make_plane(1.0, 0.0, 0.0, 6, 6)
    write_ascii_grid(dem, tmp_path / "plane.asc")
    prefix = str(tmp_path / "drv")
    assert main(["terrain", str(tmp_path / "plane.asc"), "--out-prefix", prefix]) == 0
    slope = read_ascii_grid(prefix + "_slope.asc")
    aspect = read_ascii_grid(prefix + "_aspect.asc")
    assert np.allclose(slope.values[1:-1, 1:-1], 45.0, atol=1e-9)
    assert np.allclose(aspect.values[1:-1, 1:-1], 270.0, atol=1e-9)


def test_terrain_directory_target_replaces_neither_file(tmp_path, capsys):
    write_ascii_grid(make_plane(1.0, 0.0, 0.0, 6, 6), tmp_path / "plane.asc")
    (tmp_path / "drv_slope.asc").write_bytes(b"an earlier slope\n")
    (tmp_path / "drv_aspect.asc").mkdir()
    argv = ["terrain", str(tmp_path / "plane.asc"), "--out-prefix", str(tmp_path / "drv")]
    assert main(argv) == 3
    assert "drv_aspect.asc" in capsys.readouterr().err
    assert (tmp_path / "drv_slope.asc").read_bytes() == b"an earlier slope\n"
    assert sorted(os.listdir(tmp_path)) == ["drv_aspect.asc", "drv_slope.asc", "plane.asc"]


def test_moran_command_analytic_only(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    rng = np.random.default_rng(5)
    with open(samples, "w") as f:
        f.write("x,y,delta_h\n")
        for x, y, v in zip(rng.uniform(0, 20, 60), rng.uniform(0, 20, 60),
                           rng.normal(0, 1, 60)):
            f.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")
    out = tmp_path / "m.json"
    assert main(["moran", "--samples", str(samples), "--n-perm", "0",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert "permutation" not in result
    assert {"i", "e_i", "v_i", "z", "p"} <= set(result)
    # and with permutations the block appears
    assert main(["moran", "--samples", str(samples), "--n-perm", "999",
                 "--out", str(out)]) == 0
    assert "permutation" in json.loads(out.read_text())


def test_moran_command_degenerate_exit(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("x,y,delta_h\n" + "".join(
        f"{i}.0,0.0,5.0\n" for i in range(10)))
    assert main(["moran", "--samples", str(samples)]) == 4


def test_moran_without_out_prints_what_out_writes(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    rng = np.random.default_rng(8)
    samples.write_text("x,y,delta_h\n" + "".join(
        f"{float(x)!r},{float(y)!r},{float(v)!r}\n"
        for x, y, v in rng.uniform(0, 20, (30, 3))))
    argv = ["moran", "--samples", str(samples), "--n-perm", "99", "--seed", "2"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "m.json")]) == 0
    assert printed == (tmp_path / "m.json").read_text()
    assert '"permutation"' in printed


def test_classify_command(tmp_path):
    rng = np.random.default_rng(1)
    truth = rng.integers(1, 3, size=(10, 10))
    vals = np.where(truth == 1, 10.0, 50.0) + rng.uniform(-1, 1, (10, 10))
    band = Grid(ncols=10, nrows=10, xll=0, yll=0, cellsize=1, values=vals)
    write_ascii_grid(band, tmp_path / "b1.asc")
    with open(tmp_path / "train.csv", "w") as f:
        f.write("x,y,class_code\n")
        for code in (1, 2):
            rows, cols = np.nonzero(truth == code)
            for idx in range(6):
                x, y = band.cell_center(int(rows[idx]), int(cols[idx]))
                f.write(f"{x},{y},{code}\n")
    out = tmp_path / "classes.asc"
    assert main(["classify", "--image", str(tmp_path / "b1.asc"),
                 "--training", str(tmp_path / "train.csv"),
                 "--k", "6.0", "--out", str(out)]) == 0
    result = read_ascii_grid(out)
    assert np.array_equal(result.values.astype(int), truth)


def test_synth_command_deterministic(tmp_path):
    args = ["synth", "--kind", "smoothed_noise", "--nrows", "8", "--ncols", "8",
            "--sd", "1.0", "--radius", "2", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a.asc")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.asc")]) == 0
    assert (tmp_path / "a.asc").read_bytes() == (tmp_path / "b.asc").read_bytes()


def test_synth_command_builds_each_kind(tmp_path, capsys):
    geo = {"cellsize": 2.0, "xll": 10.0, "yll": -4.0}
    flags = ["--cellsize", "2", "--xll", "10", "--yll", "-4", "--nrows", "3", "--ncols", "4"]
    for kind, extra, want in (
        ("plane", ["--a", "1", "--b", "-2", "--c", "5"], make_plane(1.0, -2.0, 5.0, 3, 4, **geo)),
        ("checkerboard", ["--amplitude", "2"], make_checkerboard(2.0, 3, 4, **geo)),
        ("smoothed_noise", ["--sd", "3", "--radius", "1", "--seed", "7"],
         make_smoothed_noise(3.0, 1, 3, 4, 7, **geo)),
    ):
        out = tmp_path / f"{kind}.asc"
        assert main(["synth", "--kind", kind, *flags, *extra, "--out", str(out)]) == 0
        got = read_ascii_grid(out)
        assert got.same_georef(want)
        assert got.values.tobytes() == want.values.tobytes()
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--kind", "volcano", *flags, "--out", str(tmp_path / "v.asc")])
    assert exc.value.code == 2
    assert "invalid choice: 'volcano'" in capsys.readouterr().err
    assert not (tmp_path / "v.asc").exists()


def test_synth_command_writes_gcps(tmp_path):
    assert main(["synth", "--kind", "plane", "--nrows", "6", "--ncols", "6",
                 "--a", "1.0", "--out", str(tmp_path / "p.asc"),
                 "--gcps-out", str(tmp_path / "p.csv"), "--n-points", "10",
                 "--snap-centres", "--seed", "2"]) == 0
    text = (tmp_path / "p.csv").read_text()
    assert text.splitlines()[1] == "id,x,y,h"
    assert len(text.splitlines()) == 12


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cellsize", "nan"], "cellsize must be positive"),
        (["--cellsize", "0"], "cellsize must be positive"),
        (["--nrows", "0"], "grid must have at least one row and one column"),
        (["--gcps-out", "g.csv", "--n-points", "0"], "n must be at least 1"),
        (["--gcps-out", "g.csv", "--error-sd", "-1"], "error_sd must be finite and >= 0"),
    ],
)
def test_synth_bad_value_exit_2(tmp_path, capsys, flags, message):
    argv = ["synth", "--kind", "plane", "--nrows", "4", "--ncols", "4",
            "--out", str(tmp_path / "p.asc")]
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err == f"config error [synth]: {message}\n"
    assert not (tmp_path / "p.asc").exists()


ORIGIN = "xll, yll and cellsize must be finite"
EXTENT = "grid extent must be finite"
# a row that sets each kind's own parameter fails every kind
SCENE = {"plane": "plane values must be finite",
         "checkerboard": "checkerboard values must be finite",
         "smoothed_noise": "sd must be finite and positive"}
SYNTH_NON_FINITE = [
    (["--xll", "inf"], ORIGIN),
    (["--yll=-inf"], ORIGIN),
    (["--xll", "nan"], ORIGIN),
    (["--cellsize", "inf"], ORIGIN),
    (["--a", "nan", "--amplitude", "nan", "--sd", "nan"], SCENE),
    # a plane's cell centres overflow at this cellsize
    (["--cellsize", "1e308", "--amplitude", "inf", "--sd", "inf"], SCENE),
    # the other kinds' grids are 4e308 wide: no point can be drawn on them
    (["--cellsize", "1e308", "--gcps-out", "g.csv"],
     {"plane": SCENE["plane"], "checkerboard": EXTENT, "smoothed_noise": EXTENT}),
    (["--gcps-out", "g.csv", "--error-sd", "nan"], "error_sd must be finite and >= 0"),
    (["--gcps-out", "g.csv", "--min-separation", "nan"], "min_separation must be >= 0"),
]


@pytest.mark.parametrize("kind", ["plane", "checkerboard", "smoothed_noise"])
@pytest.mark.parametrize("flags, message", SYNTH_NON_FINITE,
                         ids=[f"flags{k}" for k in range(len(SYNTH_NON_FINITE))])
def test_synth_non_finite_origin_exit_2_without_warning(tmp_path, capsys, kind, flags, message):
    # the origin is checked before any cell value is computed: a plane at
    # x = inf would otherwise warn (0 * inf) before the grid rejects it
    argv = ["synth", "--kind", kind, "--nrows", "4", "--ncols", "4",
            "--out", str(tmp_path / "p.asc")]
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + flags) == 2
    message = message if isinstance(message, str) else message[kind]
    assert capsys.readouterr().err == f"config error [synth]: {message}\n"
    assert not (tmp_path / "p.asc").exists()


def _overcommits_always():
    with contextlib.suppress(OSError):
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1"
    return False


@pytest.mark.skipif(_overcommits_always(), reason="a 7 TiB allocation would not fail at once")
@pytest.mark.parametrize("kind", ["plane", "checkerboard", "smoothed_noise"])
def test_synth_grid_too_big_for_memory_exit_2(tmp_path, capsys, kind):
    # 10^12 cells: numpy refuses the 7.3 TiB of the first full-size array at
    # once; the scene's own small arrays (a plane's 10^6 x and y) come first
    out = tmp_path / "big.asc"
    argv = ["synth", "--kind", kind, "--nrows", "1000000", "--ncols", "1000000",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("config error [synth]: a 1000000 x 1000000 grid needs "
                                       "8000000000000 bytes, more memory than can be "
                                       "allocated\n")
    assert os.listdir(tmp_path) == []


def test_flag_overrides_config(tmp_path):
    dem, gcps = write_closure_scene(tmp_path)
    out1 = tmp_path / "o1"
    cfg = write_config(tmp_path, dem, gcps, out1, extra="[extract]\nmethod = nearest\n")
    assert main(["assess", "--config", str(cfg), "--method", "bilinear",
                 "--out", str(tmp_path / "o2")]) == 0
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["provenance"]["extraction_method"] == "bilinear"
    assert not out1.exists()


def test_assess_without_config_file(tmp_path):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    assert main(["assess", "--dem", str(dem), "--gcps", str(gcps),
                 "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def write_samples(path, n=60, seed=5):
    rng = np.random.default_rng(seed)
    with open(path, "w") as f:
        f.write("x,y,delta_h\n")
        for x, y, v in zip(rng.uniform(0, 20, n), rng.uniform(0, 20, n), rng.normal(0, 1, n)):
            f.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")


HOSTILE = [
    ("moran", ["--threshold", "0"], ""),
    ("moran", ["--threshold", "-5"], ""),
    ("moran", ["--seed", "-1", "--n-perm", "99"], ""),
    ("assess", ["--seed", "-1", "--n-perm", "99"], ""),
    ("assess", ["--z-factor", "nan"], ""),
    ("assess", ["--hist-width", "nan"], ""),
    ("assess", ["--hist-origin", "inf"], ""),
    ("assess", ["--min-h", "nan"], ""),
    ("assess", ["--threshold", "nan"], ""),
    ("assess", [], "[moran]\nrow_standardize = maybe\n"),
    ("moran", ["--n-perm", "100000000000000000000"], ""),
    ("assess", ["--n-perm", "100000000000000000000"], ""),
    ("assess", ["--n-perm", "1000001"], ""),
    ("assess", ["--hist-width", "5e-324", "--hist-origin", "1"], ""),
]


@pytest.mark.parametrize(
    "command,flags,ini", HOSTILE,
    ids=[" ".join([c, *f]) if f else f"{c} ini" for c, f, _ in HOSTILE],
)
def test_hostile_option_values_exit_2(tmp_path, capsys, command, flags, ini):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    if command == "moran":
        write_samples(tmp_path / "s.csv")
        argv = ["moran", "--samples", str(tmp_path / "s.csv"), "--out", str(out)]
    else:
        argv = ["assess", "--config", str(write_config(tmp_path, dem, gcps, out, extra=ini))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + flags) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "ini,bad",
    [
        ("[moran]\nn_perms = 999\n", "[moran] n_perms"),
        ("[histgram]\nwidth = 0.1\n", "[histgram] width"),
        ("[DEFAULT]\nseed = 3\n", "[input] seed"),
    ],
    ids=["misspelt key", "misspelt section", "inherited key"],
)
def test_unknown_ini_option_exit_2(tmp_path, capsys, ini, bad):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dem, gcps, out, extra=ini)
    assert main(["assess", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown option {bad}" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a%b.asc", "a%%b.asc", "%(dem)s.asc", "100%"])
def test_ini_values_are_read_literally(tmp_path, name):
    # a % used to end in a configparser interpolation traceback
    dem, gcps = write_closure_scene(tmp_path)
    (tmp_path / name).write_bytes(dem.read_bytes())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tmp_path / name, gcps, out)
    assert main(["assess", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["inputs"]["dem"] == str(tmp_path / name)


@pytest.mark.parametrize("by", ["flag", "ini"])
@pytest.mark.parametrize("field, text", [
    ("remap", "1:99999999999999999999"),
    ("remap", "-9007199254740993:1"),
    ("exclude_classes", "99999999999999999999"),
    ("exclude_classes", "5, -9007199254740993"),
])
def test_option_class_codes_keep_the_class_code_limits(tmp_path, capsys, field, text, by):
    # such codes used to pass, echoed in the report as given
    assert_bad_option_value(tmp_path, capsys, field, text, by)


@pytest.mark.parametrize("by", ["flag", "ini"])
@pytest.mark.parametrize("field, text", [
    # a repeated source used to keep its last target
    ("remap", "1:2, 1:3"),
    ("remap", "-0:1, 0:2"),
    # lists are comma-separated; a ";" used to separate too
    ("remap", "4:3;6:3"),
    ("exclude_classes", "5;7"),
])
def test_option_lists_are_comma_separated_with_one_target_per_class(
    tmp_path, capsys, field, text, by
):
    assert_bad_option_value(tmp_path, capsys, field, text, by)


def assert_bad_option_value(tmp_path, capsys, field, text, by):
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    row = next(row for row in OPTIONS if row.field == field)
    extra = f"[{row.section}]\n{row.key} = {text}\n" if by == "ini" else ""
    flags = [f"{row.flag}={text}"] if by == "flag" else []
    cfg = write_config(tmp_path, dem, gcps, out, extra=extra)
    assert main(["assess", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err == f"config error [assess]: bad value for {row.name}: '{text}'\n"
    assert not out.exists()


def test_ini_comment_is_cut_before_a_list_is_read(tmp_path):
    # in an INI file " ;" starts a comment; in a flag value it is part of the list
    ini = tmp_path / "c.ini"
    ini.write_text("[screen]\nexclude_classes = 5 ; 7\n[classes]\nremap = 4:3 # 6:3\n")
    cfg = load_config(ini)
    assert (cfg.exclude_classes, cfg.remap) == ((5,), {4: 3})
    with pytest.raises(ConfigError, match=r"bad value for \[screen\] exclude_classes"):
        _config(build_parser().parse_args(["assess", "--exclude-classes", "5 ; 7"]), OPTIONS)


def test_inputs_with_utf8_bom(tmp_path):
    """Excel's "CSV UTF-8" files start with a byte order mark."""
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(tmp_path, out, extra="[screen]\nexclude_classes = 5\n")
    assert main(["assess", "--config", str(cfg)]) == 0
    plain = (out / "report.json").read_bytes()
    (tmp_path / "training.csv").write_text("x,y,class_code\n10,590,1\n30,570,2\n")
    training = read_training_csv(tmp_path / "training.csv")
    for name in ("cfg.ini", "gcps.csv", "legend.csv", "training.csv"):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_training_csv(tmp_path / "training.csv") == training
    assert main(["assess", "--config", str(cfg)]) == 0
    assert (out / "report.json").read_bytes() == plain


def test_moran_command_matches_assess_section(tmp_path):
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(tmp_path, out, extra="[screen]\nexclude_classes = 5\n")
    assert main(["assess", "--config", str(cfg), "--n-perm", "999", "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert main(["moran", "--samples", str(out / "samples.csv"), "--n-perm", "999",
                 "--seed", "7", "--out", str(tmp_path / "m.json")]) == 0
    moran = json.loads((tmp_path / "m.json").read_text())
    del moran["provenance"]
    assert {"s1", "s2"} <= set(moran["weights"])
    assert moran == report["moran"]


# A non-default value of every option: INI text, and the flag's arguments.
NON_DEFAULT = {
    "dem": ("d.asc", ["d.asc"]),
    "gcps": ("g.csv", ["g.csv"]),
    "classmap": ("c.asc", ["c.asc"]),
    "legend": ("l.csv", ["l.csv"]),
    "out_dir": ("elsewhere", ["elsewhere"]),
    "method": ("bilinear", ["bilinear"]),
    "exclude_classes": ("5, 0", ["5, 0"]),
    "min_h": ("2.5", ["2.5"]),
    "tukey_field": ("h_dem", ["h_dem"]),
    "remap": ("4:3, 6:3", ["4:3, 6:3"]),
    "z_factor": ("0.3048", ["0.3048"]),
    "moran_scheme": ("fixed_band", ["fixed_band"]),
    "moran_threshold": ("250", ["250"]),
    "moran_row_standardize": ("true", []),
    "moran_assumption": ("normality", ["normality"]),
    "n_perm": ("999", ["999"]),
    "seed": ("7", ["7"]),
    "hist_width": ("0.5", ["0.5"]),
    "hist_origin": ("0.25", ["0.25"]),
}


def test_non_default_values_cover_every_option():
    assert set(NON_DEFAULT) == {row.field for row in OPTIONS}


@pytest.mark.parametrize("row", OPTIONS, ids=lambda row: row.field)
def test_ini_key_and_flag_are_equivalent(tmp_path, row):
    text, flag_args = NON_DEFAULT[row.field]
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{row.section}]\n{row.key} = {text}\n")
    from_ini = load_config(ini)
    from_flag = _config(build_parser().parse_args(["assess", row.flag, *flag_args]), OPTIONS)
    assert from_ini.echo() == from_flag.echo() != AssessConfig().echo()


def test_help_lists_every_flag_and_its_legal_values(capsys):
    with pytest.raises(SystemExit):
        main(["assess", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for row in OPTIONS:
        assert row.flag in text
        if row.check is not None:
            assert row.check.legal in text


def test_assess_reads_legend_once(tmp_path, monkeypatch):
    write_classed_scene(tmp_path)
    calls = []
    read = demqa.pipeline.read_legend_csv

    def counting(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(demqa.pipeline, "read_legend_csv", counting)
    assert main(["assess", "--config", str(classed_config(tmp_path, tmp_path / "out"))]) == 0
    assert len(calls) == 1


def test_readme_config_block_names_every_option(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    ini = tmp_path / "readme.ini"
    ini.write_text(block)
    load_config(ini).validate()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(block)
    for row in OPTIONS:
        assert parser.has_option(row.section, row.key), row.name


# ---------------------------------------------------------------------------
# input readers: messages, line numbers and exit codes on bad input

SAMPLES_HEAD = "# generated by demqa 0.1.0 (assess)\n\nx,y,delta_h,status\n"
LONG_FIELD = "bad CSV line: field larger than field limit (131072)"

CSV_ERRORS = [
    # (flag, file text, message); lines count every line, comments and blanks included
    ("--gcps", "", "empty control point file"),
    ("--gcps", "# only a comment\n\n", "empty control point file"),
    ("--gcps", "# c\nx,y,h\n1,2,3\n", "expected header 'id,x,y,h', got 'x,y,h' (line 2)"),
    ("--gcps", "id,x,y,h\n\na,1,2\n",
     "expected 4 columns, got 3 in the control point file (line 3)"),
    ("--gcps", "id,x,y,h\na,1,2,3\n# c\na,4,5,6\n", "duplicate point id 'a' (line 4)"),
    ("--gcps", "id,x,y,h\na,one,2,3\n",
     "non-numeric value 'one' in column 'x' of the control point file (line 2, column 2)"),
    ("--gcps", "id,x,y,h\na,1,2,nan\n",
     "non-finite value 'nan' in column 'h' of the control point file (line 2, column 4)"),
    ("--gcps", "id,x,y,h\na,1,2,3\nb,inf,2,3\n",
     "non-finite value 'inf' in column 'x' of the control point file (line 3, column 2)"),
    ("--gcps", "id,x,y,h\na,1,1e400,3\n",
     "non-finite value '1e400' in column 'y' of the control point file (line 2, column 3)"),
    ("--legend", "", "empty legend file"),
    ("--legend", "# c\ncode,label\n",
     "expected header 'class_code,label', got 'code,label' (line 2)"),
    ("--legend", "class_code,label\n1,a\n\nx,oops\n",
     "non-integer class code 'x' in column 'class_code' of the legend file (line 4, column 1)"),
    ("--legend", "class_code,label\n1\n", "expected 2 columns, got 1 in the legend file (line 2)"),
    ("--training", "\n", "empty training file"),
    ("--training", "x,y\n1,2\n", "expected header 'x,y,class_code', got 'x,y' (line 1)"),
    ("--training", "x,y,class_code\n# c\n1,2,z\n",
     "non-integer class code 'z' in column 'class_code' of the training file (line 3, column 3)"),
    ("--training", "x,y,class_code\n1,nan,1\n",
     "non-finite value 'nan' in column 'y' of the training file (line 2, column 2)"),
    ("--samples", "", "empty samples file"),
    ("--samples", "x,z,delta_h\n1,2,3\n", "samples file lacks column 'y' (line 1)"),
    ("--samples", SAMPLES_HEAD + "1,2,0.5,kept\n3,4,oops,kept\n",
     "non-numeric value 'oops' in column 'delta_h' of the samples file (line 5, column 3)"),
    ("--samples", SAMPLES_HEAD + "1,2,0.5,kept\n3,4,nan,kept\n",
     "non-finite value 'nan' in column 'delta_h' of the samples file (line 5, column 3)"),
    # a field over csv's size limit (131,072 characters) used to end in a traceback
    ("--gcps", "id,x,y,h\n" + "p" * 200_000 + ",1,2,3\n", LONG_FIELD + " (line 2)"),
    ("--legend", "class_code,label\n1," + "a" * 200_000 + "\n", LONG_FIELD + " (line 2)"),
    ("--training", "x,y,class_code\n# c\n1," + "2" * 200_000 + ",1\n",
     LONG_FIELD + " (line 3)"),
    ("--samples", SAMPLES_HEAD + "1,2," + "5" * 200_000 + ",kept\n", LONG_FIELD + " (line 4)"),
    # the legend's twin of the duplicate point id row, added last so that
    # the rows above keep their ids; a repeated code used to keep its last label
    ("--legend", "class_code,label\n1,forest\n# c\n1,water\n", "duplicate class code 1 (line 4)"),
    # class codes live in float64 grids, exact up to 2^53; 0 marks unclassified cells
    ("--training", "x,y,class_code\n1.5,1.5,99999999999999999999\n",
     "out-of-range class code '99999999999999999999' in column 'class_code' "
     "of the training file (line 2, column 3)"),
    ("--training", "x,y,class_code\n1.5,1.5,1\n4.5,4.5, 0 \n",
     "out-of-range class code '0' in column 'class_code' "
     "of the training file (line 3, column 3)"),
    ("--legend", "class_code,label\n-9007199254740993,far\n",
     "out-of-range class code '-9007199254740993' in column 'class_code' "
     "of the legend file (line 2, column 1)"),
    # a field error on a line wins over the caller's duplicate check of that line
    ("--gcps", "id,x,y,h\na,1,2,3\na,1,x,3\n",
     "non-numeric value 'x' in column 'y' of the control point file (line 3, column 3)"),
    # the samples file's columns are found by name, in any order
    ("--samples", "status,delta_h,y,x\nkept,0.5,2\n",
     "expected 4 columns, got 3 in the samples file (line 2)"),
    ("--samples", "delta_h,x,y\n0.5,1,inf\n",
     "non-finite value 'inf' in column 'y' of the samples file (line 2, column 3)"),
]


def _run_reader(tmp_path, flag, path):
    if flag == "--samples":
        return ["moran", "--samples", str(path)]
    if flag == "--config":
        return ["assess", "--config", str(path)]
    dem, gcps = write_closure_scene(tmp_path)
    if flag == "--dem":
        return ["assess", "--dem", str(path), "--gcps", str(gcps), "--out", str(tmp_path / "out")]
    if flag == "--training":
        return ["classify", "--image", str(dem), "--training", str(path),
                "--out", str(tmp_path / "c.asc")]
    if flag == "--legend":
        return ["classify", "--image", str(dem), "--training", str(tmp_path / "t.csv"),
                "--legend", str(path), "--out", str(tmp_path / "c.asc")]
    return ["assess", "--dem", str(dem), "--gcps", str(path), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("flag, text, message", CSV_ERRORS,
                         ids=[f"{flag[2:]}{i}" for i, (flag, _, _) in enumerate(CSV_ERRORS)])
def test_csv_reader_errors(tmp_path, capsys, flag, text, message, bom):
    (tmp_path / "t.csv").write_text("x,y,class_code\n1.5,1.5,1\n4.5,4.5,1\n")
    path = tmp_path / "input.csv"
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode())
    assert main(_run_reader(tmp_path, flag, path)) == 3
    command = "assess" if flag == "--gcps" else "moran" if flag == "--samples" else "classify"
    assert capsys.readouterr().err == f"parse error [{command}]: {message}\n"


@pytest.mark.parametrize("flag, data, byte", [
    ("--dem", b"ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 \xff\n",
     "0xff, invalid start byte"),
    ("--gcps", b"id,x,y,h\np\xff,1,2,3\n", "0xff, invalid start byte"),
    ("--legend", "class_code,label\n1,For\u00eat\n".encode("latin-1"),
     "0xea, invalid continuation byte"),
    ("--training", b"x,y,class_code\n1.5,1.5,1\xff\n", "0xff, invalid start byte"),
    ("--samples", SAMPLES_HEAD.encode() + b"1,2,0.5,kept\n3,4,\xfe,kept\n",
     "0xfe, invalid start byte"),
    ("--config", b"[input]\ndem = d\xffm.asc\n", "0xff, invalid start byte"),
], ids=["dem", "gcps", "legend", "training", "samples", "config"])
def test_input_that_is_not_utf8_names_the_file(tmp_path, capsys, flag, data, byte):
    # such bytes used to end in a UnicodeDecodeError traceback
    (tmp_path / "t.csv").write_text("x,y,class_code\n1.5,1.5,1\n4.5,4.5,1\n")
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    code, kind = (2, "config") if flag == "--config" else (3, "parse")
    args = _run_reader(tmp_path, flag, path)
    assert main(args) == code
    assert capsys.readouterr().err == (
        f"{kind} error [{args[0]}]: {path} is not UTF-8 text: byte {byte}\n"
    )


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_terrain_rejects_non_finite_cell(tmp_path, capsys, token):
    # a nan centre cell used to get a finite slope from its neighbours
    path = tmp_path / "dem.asc"
    path.write_text("ncols 3\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                    f"1 2 3\n4 {token} 6\n7 8 9\n")
    assert main(["terrain", str(path), "--out-prefix", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert err == f"parse error [terrain]: non-finite token '{token}' (line 7, column 2)\n"
    assert not (tmp_path / "d_slope.asc").exists()


def test_terrain_overflowing_slope_exits_4_without_warnings(tmp_path, capsys):
    # finite cells whose differences overflow: NaN slopes, once with four
    # numpy RuntimeWarnings before the message
    path = tmp_path / "dem.asc"
    path.write_text("ncols 3\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                    "1e308 1e308 1e308\n-1e308 -1e308 -1e308\n1e308 1e308 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["terrain", str(path), "--out-prefix", str(tmp_path / "d")]) == 4
    assert capsys.readouterr().err == ("degenerate statistics [terrain]: cannot write "
                                       "non-finite value nan at row 1, column 0\n")
    assert not (tmp_path / "d_slope.asc").exists()
    assert not (tmp_path / "d_aspect.asc").exists()


def test_terrain_overflow_in_a_forked_strip_exits_4(tmp_path, monkeypatch, capfd):
    # the NaN slope is computed in the second strip's worker, which raises;
    # its strip runs again here and names the cell as one process would, and
    # the worker's own line is not printed beside it: stderr is one process's
    values = np.arange(60.0).reshape(10, 6)
    values[-3:] = [[1e308], [-1e308], [1e308]]
    write_ascii_grid(Grid(ncols=6, nrows=10, xll=0, yll=0, cellsize=1, values=values),
                     tmp_path / "dem.asc")
    errs = []
    for workers in (2, 1):
        monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
        argv = ["terrain", str(tmp_path / "dem.asc"), "--out-prefix", str(tmp_path / "d")]
        assert main(argv) == 4
        errs.append(capfd.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["dem.asc"]
    assert errs[0] == errs[1] == ("degenerate statistics [terrain]: cannot write non-finite "
                                  "value nan at row 8, column 0\n")


def claim(n):
    return f"ncols {n}\nnrows {n}\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n"


GRID_SIZE_CLAIMS = [
    # (command, where the grid comes from, header's ncols and nrows, message);
    # these used to end in a numpy MemoryError traceback (74.5 GiB for 1e10
    # cells), for assess from its grid-sized mask of the cells to read (888
    # PiB for the 1e18 cells a pipe claims: assess lists the cells it reads)
    *((command, "file", 100_000, "header claims 100000 x 100000 = 10000000000 values, "
       f"more than a file of {len(claim(100_000))} bytes can hold (line 2)")
      for command in ("terrain", "assess", "classify")),
    # a pipe has no size to check: the allocation fails, and is named
    *((command, "fifo", 10**9, f"a grid of {10**18} values needs {8 * 10**18} bytes, "
       "more memory than can be allocated") for command in ("terrain", "assess")),
    # a pipe whose claim can be allocated: the count is short
    ("assess", "fifo", 6000, "expected 36000000 values, got 3"),
]


@pytest.mark.parametrize("command, source, n, message", GRID_SIZE_CLAIMS,
                         ids=[f"{c} {s} {n}" for c, s, n, _ in GRID_SIZE_CLAIMS])
def test_grid_claiming_more_cells_than_it_holds_exit_3(tmp_path, capsys, command, source, n,
                                                        message):
    path = tmp_path / "claim.asc"
    if source == "file":
        path.write_text(claim(n))
    else:
        os.mkfifo(path)

        def feed():
            try:
                with open(path, "w") as f:
                    f.write(claim(n))
            except BrokenPipeError:  # the reader stopped after the header
                pass

        threading.Thread(target=feed, daemon=True).start()
    if command == "terrain":
        argv = ["terrain", str(path), "--out-prefix", str(tmp_path / "d")]
    elif command == "assess":
        argv = _run_reader(tmp_path, "--dem", path)
    else:
        (tmp_path / "t.csv").write_text("x,y,class_code\n0.5,0.5,1\n")
        argv = ["classify", "--image", str(path), "--training", str(tmp_path / "t.csv"),
                "--out", str(tmp_path / "c.asc")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"parse error [{command}]: {message}\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_short_fifo_grid_is_never_touched_whole(tmp_path):
    # assess on a FIFO claiming 6000 x 6000 cells that holds 3 values: the
    # 288 MB grid is allocated but its pages are not used before the count
    # fails (an own peak of 305.9 MB when it was filled with NaN up front,
    # against 30 MB for importing demqa.cli alone). The command reads its own
    # VmHWM: its ru_maxrss could include what this process held at the fork.
    path = tmp_path / "claim.asc"
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "w") as f:
            f.write(claim(6000))

    threading.Thread(target=feed, daemon=True).start()
    code = ("import re, sys; from demqa.cli import main; status = main(sys.argv[1:]); "
            "print(re.search(r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read())[1]); "
            "sys.exit(status)")
    src = Path(demqa.cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", code, *_run_reader(tmp_path, "--dem", path)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "parse error [assess]: expected 36000000 values, got 3\n"
    assert int(proc.stdout) < 60 * 1024, proc.stdout  # kB


@pytest.mark.parametrize("point, problem", [("9.5,0.5", "is off the grid"),
                                            ("0.5,1.5", "lies on nodata")])
def test_classify_bad_training_point_exit_3(tmp_path, capsys, point, problem):
    band = Grid(ncols=3, nrows=3, xll=0, yll=0, cellsize=1,
                values=[1, 2, 3, -9999, 5, 6, 7, 8, 9])
    write_ascii_grid(band, tmp_path / "b.asc")
    (tmp_path / "t.csv").write_text(f"x,y,class_code\n0.5,0.5,1\n{point},1\n")
    assert main(["classify", "--image", str(tmp_path / "b.asc"), "--training",
                 str(tmp_path / "t.csv"), "--out", str(tmp_path / "c.asc")]) == 3
    x, y = point.split(",")
    assert capsys.readouterr().err == (
        f"parse error [classify]: training point ({float(x)}, {float(y)}) {problem}\n"
    )


def test_classify_without_training_points_exit_4(tmp_path, capsys):
    write_ascii_grid(make_plane(1.0, 0.0, 0.0, 3, 3), tmp_path / "b.asc")
    (tmp_path / "t.csv").write_text("x,y,class_code\n")
    assert main(["classify", "--image", str(tmp_path / "b.asc"), "--training",
                 str(tmp_path / "t.csv"), "--out", str(tmp_path / "c.asc")]) == 4
    assert capsys.readouterr().err == "degenerate statistics [classify]: no training points\n"
    assert not (tmp_path / "c.asc").exists()


@pytest.mark.parametrize("code, message", [
    # each exited 0: class 0 was counted as a class and as unclassified, the
    # cells of class -9999 were written as nodata, and 1e20 was stored as
    # 100000000000000000000.0 in the float64 map
    ("0", "out-of-range class code '0' in column 'class_code' of the training file "
          "(line 2, column 3)"),
    ("-9999", "class code -9999 is the image's nodata value"),
    ("99999999999999999999",
     "out-of-range class code '99999999999999999999' in column 'class_code' "
     "of the training file (line 2, column 3)"),
])
def test_classify_rejects_codes_the_class_map_cannot_hold(tmp_path, capsys, code, message):
    write_ascii_grid(make_plane(1.0, 0.5, 0.0, 10, 10), tmp_path / "b.asc")
    (tmp_path / "t.csv").write_text(f"x,y,class_code\n0.5,0.5,{code}\n5.5,5.5,{code}\n")
    assert main(["classify", "--image", str(tmp_path / "b.asc"), "--training",
                 str(tmp_path / "t.csv"), "--out", str(tmp_path / "c.asc")]) == 3
    assert capsys.readouterr().err == f"parse error [classify]: {message}\n"
    assert not (tmp_path / "c.asc").exists()


SPAN = "x coordinates span -1.7e+308 to 1.7e+308, wider than 9.481e+153: " \
       "squared distances would overflow"


@pytest.mark.parametrize("rows, got", [
    ("", 0),
    ("1.0,2.0,0.5,removed_outlier\n3.0,4.0,0.1,removed_validity\n", 0),
    ("1.0,2.0,0.5,removed_outlier\n3.0,4.0,,kept\n", 0),
    ("1.0,2.0,0.5,kept\n3.0,4.0,0.1,removed_validity\n", 1),
    # kept rows whose squared distances overflow: named, not an inf threshold
    ("-1.7e308,0,0.5,kept\n1.7e308,0,0.1,kept\n0,1,0.3,kept\n1,1,0.2,kept\n", SPAN),
])
def test_moran_without_kept_rows_exit_4(tmp_path, capsys, rows, got):
    (tmp_path / "s.csv").write_text("x,y,delta_h,status\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moran", "--samples", str(tmp_path / "s.csv")]) == 4
    message = got if isinstance(got, str) else f"need at least 2 points, got {got}"
    assert capsys.readouterr().err == f"degenerate statistics [moran]: {message}\n"


def test_assess_skips_moran_when_squared_distances_overflow(tmp_path):
    dem = make_plane(0.0, 0.0, 20.0, 4, 4, cellsize=1e154)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    (tmp_path / "gcps.csv").write_text(
        "id,x,y,h\n" + "".join(f"g{k},{x!r},{y!r},{20 + k}\n" for k, (x, y) in
                               enumerate([(5e153, 5e153), (3.5e154, 5e153),
                                          (5e153, 3.5e154), (3.5e154, 3.5e154), (2e154, 2e154)]))
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["assess", "--dem", str(tmp_path / "dem.asc"), "--gcps",
                     str(tmp_path / "gcps.csv"), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["moran"] == {
        "skipped": "x coordinates span 5e+153 to 3.5e+154, wider than 9.481e+153: "
                   "squared distances would overflow"
    }


def test_histogram_bin_limit_exit_2(tmp_path, capsys):
    write_classed_scene(tmp_path)
    out = tmp_path / "out"
    cfg = classed_config(tmp_path, out, extra="[histogram]\nwidth = 0.00005\n")
    assert main(["assess", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    match = re.fullmatch(
        r"config error \[assess\]: \[histogram\] width \(--hist-width\): "
        r"bin width 5e-05 would need (\d+) bins; the limit is 100000\n", err)
    assert match and int(match.group(1)) > 100_000, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["assess", "moran"])
def test_weights_limit_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(demqa.spatial, "MAX_WEIGHTS", 10)
    dem, gcps = write_closure_scene(tmp_path)
    out = tmp_path / "out"
    if command == "moran":
        write_samples(tmp_path / "s.csv")
        argv = ["moran", "--samples", str(tmp_path / "s.csv"), "--out", str(out)]
    else:
        argv = ["assess", "--config", str(write_config(tmp_path, dem, gcps, out))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    match = re.fullmatch(
        rf"config error \[{command}\]: \[moran\] threshold \(--threshold\): "
        r"threshold \S+ would need at least (\d+) weights; the limit is 10\n", err)
    assert match and int(match.group(1)) > 10, err
    assert not out.exists()


TERRAIN_CLASSIFY_HOSTILE = [
    ("terrain", "--z-factor", "0"),
    ("terrain", "--z-factor", "-1"),
    ("terrain", "--z-factor", "nan"),
    ("terrain", "--z-factor", "inf"),
    ("classify", "--k", "0"),
    ("classify", "--k", "-2"),
    ("classify", "--k", "nan"),
    ("classify", "--k", "inf"),
]


@pytest.mark.parametrize("command,flag,value", TERRAIN_CLASSIFY_HOSTILE,
                         ids=[f"{c} {f} {v}" for c, f, v in TERRAIN_CLASSIFY_HOSTILE])
def test_terrain_and_classify_hostile_values_exit_2(tmp_path, capsys, command, flag, value):
    # these used to end in a traceback (0, -1), a late exit 4 (nan) or a
    # silently degenerate output (inf; nan for --k)
    dem, _ = write_closure_scene(tmp_path)
    if command == "terrain":
        argv = ["terrain", str(dem), "--out-prefix", str(tmp_path / "d")]
    else:
        (tmp_path / "t.csv").write_text("x,y,class_code\n1.5,1.5,1\n4.5,4.5,1\n")
        argv = ["classify", "--image", str(dem), "--training", str(tmp_path / "t.csv"),
                "--out", str(tmp_path / "c.asc")]
    assert main(argv + [flag, value]) == 2
    assert capsys.readouterr().err == (
        f"config error [{command}]: {flag} must be finite and > 0, got {float(value)!r}\n"
    )
    assert not any(tmp_path.glob("d_*.asc")) and not (tmp_path / "c.asc").exists()


def test_classify_band_georeferencing_mismatch_exit_3(tmp_path, capsys):
    for name, xll in (("b1.asc", 0.0), ("b2.asc", 0.0), ("b3.asc", 0.5)):
        write_ascii_grid(Grid(ncols=3, nrows=3, xll=xll, yll=0, cellsize=1,
                              values=np.arange(9.0)), tmp_path / name)
    (tmp_path / "t.csv").write_text("x,y,class_code\n0.7,0.5,1\n1.7,1.5,1\n")
    bands = [str(tmp_path / n) for n in ("b1.asc", "b2.asc", "b3.asc")]
    assert main(["classify", "--image", *bands, "--training", str(tmp_path / "t.csv"),
                 "--out", str(tmp_path / "c.asc")]) == 3
    assert capsys.readouterr().err == (
        f"parse error [classify]: band 3 ({bands[2]}) georeferencing differs "
        f"from band 1 ({bands[0]})\n"
    )
    assert not (tmp_path / "c.asc").exists()


def test_non_integral_class_code_exit_3(tmp_path, capsys):
    write_classed_scene(tmp_path)
    codes = np.full((30, 30), 2.0)
    codes[5:, :] = 2.7
    write_ascii_grid(Grid(ncols=30, nrows=30, xll=0, yll=0, cellsize=20.0, values=codes),
                     tmp_path / "classes.asc")
    out = tmp_path / "out"
    assert main(["assess", "--config", str(classed_config(tmp_path, out))]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"parse error \[assess\]: class map value 2\.7 at point '[^']+' "
                        r"is not an integer code\n", err), err
    assert not out.exists()
