import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

import demqa.cli
import demqa.pipeline
import demqa.spatial
from demqa.cli import OPTIONS, AssessConfig, _config, build_parser, load_config, main
from demqa.landcover import read_training_csv
from demqa.raster import Grid, read_ascii_grid, write_ascii_grid
from demqa.synth import make_plane, make_smoothed_noise, scatter_points

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


def test_synth_command_writes_gcps(tmp_path):
    assert main(["synth", "--kind", "plane", "--nrows", "6", "--ncols", "6",
                 "--a", "1.0", "--out", str(tmp_path / "p.asc"),
                 "--gcps-out", str(tmp_path / "p.csv"), "--n-points", "10",
                 "--snap-centres", "--seed", "2"]) == 0
    text = (tmp_path / "p.csv").read_text()
    assert text.splitlines()[1] == "id,x,y,h"
    assert len(text.splitlines()) == 12


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

CSV_ERRORS = [
    # (flag, file text, message); lines count every line, comments and blanks included
    ("--gcps", "", "empty control point file"),
    ("--gcps", "# only a comment\n\n", "empty control point file"),
    ("--gcps", "# c\nx,y,h\n1,2,3\n", "expected header 'id,x,y,h', got 'x,y,h' (line 2)"),
    ("--gcps", "id,x,y,h\n\na,1,2\n", "expected 4 columns, got 3 (line 3)"),
    ("--gcps", "id,x,y,h\na,1,2,3\n# c\na,4,5,6\n", "duplicate point id 'a' (line 4)"),
    ("--gcps", "id,x,y,h\na,one,2,3\n",
     "non-numeric coordinate or height: could not convert string to float: 'one' (line 2)"),
    ("--gcps", "id,x,y,h\na,1,2,nan\n", "non-finite value 'nan' (line 2, column 4)"),
    ("--gcps", "id,x,y,h\na,1,2,3\nb,inf,2,3\n", "non-finite value 'inf' (line 3, column 2)"),
    ("--gcps", "id,x,y,h\na,1,1e400,3\n", "non-finite value '1e400' (line 2, column 3)"),
    ("--legend", "", "empty CSV file"),
    ("--legend", "# c\ncode,label\n", "expected header 'class_code,label' (line 2)"),
    ("--legend", "class_code,label\n1,a\n\nx,oops\n", "bad legend row (line 4)"),
    ("--legend", "class_code,label\n1\n", "bad legend row (line 2)"),
    ("--training", "\n", "empty CSV file"),
    ("--training", "x,y\n1,2\n", "expected header 'x,y,class_code' (line 1)"),
    ("--training", "x,y,class_code\n# c\n1,2,z\n", "bad training row (line 3)"),
    ("--training", "x,y,class_code\n1,nan,1\n", "bad training row (line 2)"),
    ("--samples", "", "empty samples file"),
    ("--samples", "x,z,delta_h\n1,2,3\n", "samples file lacks column 'y'"),
    ("--samples", SAMPLES_HEAD + "1,2,0.5,kept\n3,4,oops,kept\n",
     "bad numeric value in samples file (line 5)"),
    ("--samples", SAMPLES_HEAD + "1,2,0.5,kept\n3,4,nan,kept\n",
     "non-finite value in samples file (line 5)"),
]


def _run_reader(tmp_path, flag, path):
    if flag == "--samples":
        return ["moran", "--samples", str(path)]
    dem, gcps = write_closure_scene(tmp_path)
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
