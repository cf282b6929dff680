"""``assess`` and ``terrain`` on hostile grid files of 0 to 5 cells.

Headers with missing, repeated or illegal values (``ncols`` of 0, 1.5,
1e400 or nan; ``cellsize`` of 0 or inf), a byte order mark, CR or CRLF
line ends, comments and bytes that are not UTF-8; bodies too short, too
long, or holding nan, 1e400 or letters. Every draw must exit with a
documented code (0, 2, 3 or 4) with one line on stderr when it fails,
never with an exception out of ``main`` or a warning, and a report of a
run that exits 0 holds no NaN.
"""

import itertools
import json
import warnings
from collections import Counter

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from demqa.cli import REPORT_NAME, main

# (key as written, usual values, other values: hostile, or legal and rare)
HEADER = [
    ("ncols", ["2", "1"], ["0", "5", "1.5", "1e400", "nan", "-1"]),
    ("nrows", ["2", "1"], ["0", "1.5", "1e400", "nan"]),
    ("xllcorner", ["0"], ["-0.5", "1e308", "nan", "x"]),
    ("YLLCORNER", ["0"], ["-0.5", "-1e308", "inf"]),
    ("cellsize", ["1"], ["0.5", "0", "inf", "-1", "5e-324"]),
    ("NODATA_value", ["-9999"], ["2", "nan", "1e400"]),
]
TOKENS = ["1", "2.5", "-3", "0", "7e2"]
HOSTILE_TOKENS = ["-9999", "nan", "1e400", "-inf", "x", "1,5", "1e308", "2"]
# control points on and around a 2 x 2 grid of 1 m cells at the origin
GCPS = "id,x,y,h\na,0.5,0.5,1\nb,1.5,0.5,3\nc,0.5,1.5,2\nd,1.5,1.5,5\ne,0.25,0.75,2\n"


@st.composite
def grid_files(draw):
    # half the files take only usual values, so that runs also get past the
    # reader; in the others each item is another value one time in four
    wild = draw(st.booleans())

    def pick(usual, other):
        return draw(st.sampled_from(other if wild and draw(st.integers(0, 3)) == 0 else usual))

    lines = draw(st.lists(st.sampled_from(["# comment", ""]), max_size=1))
    size = {}
    for key, legal, hostile in HEADER:
        for _ in range(pick([1], [0, 2])):  # missing or repeated
            value = pick(legal, hostile)
            size.setdefault(key, value)
            lines.append(f"{key} {value}")
    try:
        count = int(size.get("ncols", "1")) * int(size.get("nrows", "1"))
    except ValueError:
        count = 2
    count = max(0, count + pick([0], [-1, 1]))
    tokens = [pick(TOKENS, HOSTILE_TOKENS) for _ in range(count)]
    lines += [" ".join(tokens[k : k + 2]) for k in range(0, count, 2)]
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode()
    if pick([False], [False, True]):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def run(argv):
    """``main(argv)`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main([str(a) for a in argv])


def test_assess_and_terrain_on_hostile_grids_exit_with_a_documented_code(tmp_path, capsys):
    (tmp_path / "gcps.csv").write_text(GCPS)
    dem = tmp_path / "dem.asc"
    runs = itertools.count()
    seen = Counter()

    # a fixed seed and no example database: the same draws on every run, so
    # the floors below hold for a known set
    @seed(2029)
    @settings(max_examples=150, deadline=None, database=None)
    @given(grid_files())
    def check(data):
        dem.write_bytes(data)
        k = next(runs)
        out = tmp_path / f"out{k}"
        for argv, report in (
            (["assess", "--dem", dem, "--gcps", tmp_path / "gcps.csv", "--n-perm", 99,
              "--out", out], out / REPORT_NAME),
            (["terrain", dem, "--out-prefix", tmp_path / f"t{k}"], None),
        ):
            code = run(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (data, argv[0], code, err)
            seen[argv[0], code] += 1
            if code:
                assert err.count("\n") == 1 and err.endswith("\n"), (data, err)
            elif report is not None:
                assert '"nan"' not in report.read_text(), data
                seen["moran"] += "i" in json.loads(report.read_text())["moran"]

    check()
    floors = [("assess", 0), ("assess", 3), ("terrain", 0), ("terrain", 3), "moran"]
    assert min(seen[key] for key in floors) >= 10, seen
