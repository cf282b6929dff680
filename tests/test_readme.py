"""The README's library example runs as written, on a synthetic scene."""

import re
import warnings
from pathlib import Path

import numpy as np

from demqa.raster import write_ascii_grid
from demqa.synth import make_plane, scatter_points

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ``python`` block under the README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # a tilted plane from 47 m to 593 m, with control points off the cell
    # centres and 0.5 m of error: every height is above min_h = 0 and the
    # errors vary
    dem = make_plane(0.5, -0.2, 200.0, 40, 40, cellsize=20.0)
    write_ascii_grid(dem, tmp_path / "dem.asc")
    points = scatter_points(dem, 60, seed=7, error_sd=0.5)
    (tmp_path / "gcps.csv").write_text("id,x,y,h\n" + "".join(
        f"{p.id},{p.x!r},{p.y!r},{p.h_ref!r}\n" for p in points))
    monkeypatch.chdir(tmp_path)

    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(library_example(), str(README), "exec"), namespace)

    kept = namespace["kept"]
    assert len(kept) >= 4 and np.ptp(kept.delta_h) > 0
    assert len(namespace["dropped"]) == 0
    assert len(kept) + len(namespace["outliers"]) == len(points)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("SummaryStats(") and printed[1].startswith("MoranResult(")
