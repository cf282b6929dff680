"""The columnar ``assess`` pipeline writes the same bytes as the record one.

``record_pipeline`` holds the per-record implementation it replaced. Each
case writes a seeded scene, runs ``demqa assess`` and the record oracle
on the same configuration, and compares ``report.json`` and all six CSV
files byte for byte.
"""

import numpy as np
import pytest

import record_pipeline
from demqa.cli import CSV_NAMES, OPTIONS, REPORT_NAME, _config, build_parser, main
from demqa.raster import Grid, write_ascii_grid
from demqa.synth import make_smoothed_noise

N, CELL, XLL, YLL = 24, 10.0, 500.0, 1000.0
IDS = ['a,b', 'q"x', 'plain', "semi;colon", 'both,"q"']


def write_scene(tmp_path, seed):
    """DEM with nodata holes and a flat patch, a class map with nodata and
    water, a legend missing some classes, and GCPs that include off-grid
    points, points on the flat patch and ids that need CSV quoting."""
    rng = np.random.default_rng(seed)
    noise = make_smoothed_noise(8.0, 2, N, N, seed=seed, cellsize=CELL).values
    rows, cols = np.mgrid[0:N, 0:N]
    dem = 300.0 + 0.8 * cols - 0.5 * rows + noise
    dem[3:8, 3:8] = 310.0  # flat: the inner 3x3 cells get aspect -1
    dem[rng.random((N, N)) < 0.05] = -9999.0
    dem[5, 5] = 310.0
    dem[15:17, 15:17] = 900.0  # a spike: outliers in h_dem and in delta_h
    write_ascii_grid(Grid(ncols=N, nrows=N, xll=XLL, yll=YLL, cellsize=CELL, values=dem),
                     tmp_path / "dem.asc")
    codes = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=(N, N), p=[0.3, 0.3, 0.2, 0.1, 0.1])
    codes[rng.random((N, N)) < 0.04] = -9999.0
    write_ascii_grid(Grid(ncols=N, nrows=N, xll=XLL, yll=YLL, cellsize=CELL, values=codes),
                     tmp_path / "classes.asc")
    (tmp_path / "legend.csv").write_text(
        'class_code,label\n1,forest\n2,"grass, open"\n5,water\n', encoding="utf-8"
    )

    span = N * CELL
    xy = np.column_stack([rng.uniform(XLL - 15, XLL + span + 15, 170),
                          rng.uniform(YLL - 15, YLL + span + 15, 170)])
    # on the flat patch's inner cells (rows 4-6, cols 4-6 from the north)
    flat = [(XLL + (c + 0.3) * CELL, YLL + (N - r - 0.6) * CELL) for r in (4, 6) for c in (4, 5)]
    spike = [(XLL + 15.5 * CELL, YLL + (N - 15.5) * CELL),
             (XLL + 16.2 * CELL, YLL + (N - 16.7) * CELL)]
    xy = np.vstack([xy, flat, spike])
    ids = [f"p{k:03d}" for k in range(len(xy))]
    ids[: len(IDS)] = IDS
    col = np.clip(((xy[:, 0] - XLL) // CELL).astype(int), 0, N - 1)
    row = np.clip(N - 1 - ((xy[:, 1] - YLL) // CELL).astype(int), 0, N - 1)
    h = np.where(dem[row, col] == -9999.0, 305.0, np.minimum(dem[row, col], 320.0))
    h += rng.normal(0.0, 0.5, len(xy))
    h[7] += 90.0  # a gross outlier
    with open(tmp_path / "gcps.csv", "w", encoding="utf-8", newline="") as f:
        f.write("id,x,y,h\n")
        for pid, (x, y), hk in zip(ids, xy, h):
            quoted = '"' + pid.replace('"', '""') + '"'
            f.write(f"{quoted},{float(x)!r},{float(y)!r},{float(hk)!r}\n")


CASES = {
    "nearest_classes": ["--classmap", "classes.asc", "--legend", "legend.csv",
                        "--remap", "4:3", "--exclude-classes", "5", "--min-h", "298",
                        "--n-perm", "99", "--seed", "3"],
    "bilinear_classes": ["--method", "bilinear", "--classmap", "classes.asc",
                         "--legend", "legend.csv", "--exclude-classes", "5,1",
                         "--min-h", "296.5", "--tukey-field", "h_dem", "--n-perm", "99",
                         "--hist-width", "0.25", "--hist-origin", "0.1"],
    "nearest_h_dem_no_legend": ["--classmap", "classes.asc", "--tukey-field", "h_dem",
                                "--remap", "1:2, 2:4", "--scheme", "fixed_band",
                                "--threshold", "60", "--row-standardize",
                                "--assumption", "normality"],
    "bilinear_no_classes": ["--method", "bilinear", "--z-factor", "0.5"],
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_columnar_pipeline_writes_the_record_pipelines_bytes(tmp_path, monkeypatch, case, seed):
    write_scene(tmp_path, seed)
    monkeypatch.chdir(tmp_path)
    argv = ["assess", "--dem", "dem.asc", "--gcps", "gcps.csv", *CASES[case]]
    assert main(argv + ["--out", "new"]) == 0

    cfg = _config(build_parser().parse_args(argv + ["--out", "new"]), OPTIONS)
    report, tagged, legend = record_pipeline.run_assess(cfg)
    (tmp_path / "old").mkdir()
    record_pipeline._write_files(report, tagged, tmp_path / "old", legend)

    statuses = {status for _, status in tagged}
    assert statuses == {"kept", "removed_validity", "removed_outlier"}
    assert any(r.aspect_deg == -1.0 for r, _ in tagged)
    samples = (tmp_path / "new" / "samples.csv").read_text(encoding="utf-8")
    assert '"a,b"' in samples and '"q""x"' in samples
    for name in (REPORT_NAME, *CSV_NAMES):
        new, old = (tmp_path / side / name for side in ("new", "old"))
        assert new.read_bytes() == old.read_bytes(), name
