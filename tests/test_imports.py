"""What ``import demqa`` and each command load: the package holds no public
name of its own, and a command imports only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demqa
from demqa.raster import Grid, write_ascii_grid
from demqa.synth import make_smoothed_noise, scatter_points

SRC = Path(__file__).resolve().parent.parent / "src"
# what every command loads: the command line, the grid I/O and the legal values
BASE = {"demqa", "demqa._workers", "demqa.choices", "demqa.cli", "demqa.errors", "demqa.raster"}
# what the first grid a command writes loads: the grid text kernel
WRITE = {"demqa._gridtext"}


def test_unknown_name_raises_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        demqa.no_such_name
    with pytest.raises(ImportError):
        exec("from demqa import no_such_name", {})
    namespace = {}
    exec("from demqa import raster, choices", namespace)
    assert namespace["raster"] is sys.modules["demqa.raster"]
    assert namespace["choices"] is sys.modules["demqa.choices"]


def test_public_functions_are_imported_from_their_modules_only():
    with pytest.raises(ImportError):
        exec("from demqa import read_ascii_grid", {})


def test_import_demqa_loads_no_submodule():
    code = ("import sys, demqa; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'demqa'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "['demqa']\n"


def loaded_by(argv, cwd):
    """The ``demqa`` modules a fresh interpreter holds after ``demqa argv``."""
    code = ("import sys; from demqa.cli import main; status = main(sys.argv[1:]); "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'demqa'))); "
            "sys.exit(status)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    dem = make_smoothed_noise(5.0, 2, 30, 30, seed=3)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    bands = [dem, Grid(ncols=30, nrows=30, xll=0, yll=0, cellsize=1,
                       values=np.arange(900.0).reshape(30, 30))]
    for k, band in enumerate(bands):
        write_ascii_grid(band, tmp_path / f"b{k}.asc")
    (tmp_path / "train.csv").write_text("x,y,class_code\n2.5,2.5,1\n3.5,2.5,1\n"
                                        "25.5,25.5,2\n26.5,25.5,2\n")
    points = scatter_points(dem, 40, seed=3, snap_to_centres=True)
    (tmp_path / "gcps.csv").write_text("id,x,y,h\n" + "".join(
        f"{p.id},{p.x!r},{p.y!r},{p.h_ref!r}\n" for p in points))

    assert loaded_by(["terrain", "dem.asc", "--out-prefix", "t"], tmp_path) == BASE | WRITE | {
        "demqa.terrain"}
    assert loaded_by(["classify", "--image", "b0.asc", "b1.asc", "--training", "train.csv",
                      "--out", "c.asc"], tmp_path) == BASE | WRITE | {"demqa.landcover"}
    everything = {f"demqa.{p.stem}" for p in (SRC / "demqa").glob("*.py")} - {"demqa.__init__"}
    assert loaded_by(["assess", "--dem", "dem.asc", "--gcps", "gcps.csv", "--out", "out"],
                     tmp_path) == {"demqa"} | everything - {"demqa.synth"} - WRITE
