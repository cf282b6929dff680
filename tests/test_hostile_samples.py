"""``moran`` on hostile samples files of 0 to 12 rows.

Coordinates repeated, a few ulps apart, 1e-300 apart or at +-1e308 and
the largest double; fields blank, non-numeric, nan or 1e400; columns in
any order, a status column or none. Every draw must exit with a
documented code (0, 2, 3 or 4) with one line on stderr when it fails,
never with an exception out of ``main`` or a warning, and the JSON of a
run that exits 0 holds no NaN.
"""

import json
import warnings
from collections import Counter

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from demqa.cli import main

# usual coordinates (and x = the row's number, so that usual points are
# apart), near-coincident ones and ones at the edge of float64
COORDS = ["0", "1", "2.5", "10", "-3"]
HOSTILE_COORDS = ["1.0000000000000002", "0.9999999999999999", "1e-300", "-1e-300", "5e-324",
                  "2e-154", "1e308", "-1e308", "1.7976931348623157e308", "1e-308"]
VALUES = ["1", "-2.5", "0.5", "3", "0"]
HOSTILE_VALUES = ["1e308", "-1e308", "1e-300"]
# blank and non-numeric fields, for any column
BAD_FIELDS = ["", " ", "x", "nan", "-inf", "1e400", "1,5", "0x10"]
STATUS = ["kept", "kept", " kept ", "", "removed_outlier"]


@st.composite
def samples_files(draw):
    # half the files take only usual values, so that runs also get past the
    # reader and the weights; in the others each field is another value one
    # time in four
    wild = draw(st.booleans())

    def pick(usual, other):
        return draw(st.sampled_from(other if wild and draw(st.integers(0, 3)) == 0 else usual))

    names = ["x", "y", "delta_h"] + ["status"] * draw(st.booleans())
    names = draw(st.permutations(names))
    rows = []
    for k in range(draw(st.integers(0, 12))):
        if rows and wild and draw(st.integers(0, 7)) == 0:  # a point repeated
            x, y = draw(st.sampled_from(rows))[:2]
        else:
            x, y = pick([str(k)], HOSTILE_COORDS), pick(COORDS, HOSTILE_COORDS)
        fields = {"x": x, "y": y, "delta_h": pick(VALUES, HOSTILE_VALUES),
                  "status": draw(st.sampled_from(STATUS))}
        if wild and draw(st.integers(0, 5)) == 0:  # one field blank or not a number
            fields[draw(st.sampled_from(names))] = draw(st.sampled_from(BAD_FIELDS))
        rows.append((x, y, ",".join(fields[n] for n in names)))
    lines = [",".join(names)] + [r[2] for r in rows]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def run(argv):
    """``main(argv)`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main([str(a) for a in argv])


def test_moran_on_hostile_samples_exits_with_a_documented_code(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    out = tmp_path / "moran.json"
    seen = Counter()

    # a fixed seed and no example database: the same draws on every run, so
    # the floors below hold for a known set
    @seed(2031)
    @settings(max_examples=200, deadline=None, database=None)
    @given(samples_files(), st.sampled_from([[], ["--scheme", "fixed_band"],
                                             ["--row-standardize", "--n-perm", "99"],
                                             ["--assumption", "normality", "--n-perm", "199"]]))
    def check(text, options):
        samples.write_text(text, encoding="utf-8")
        out.unlink(missing_ok=True)
        code = run(["moran", "--samples", samples, *options, "--out", out])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (text, options, code, err)
        seen[code] += 1
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (text, err)
            assert not out.exists(), text
        else:
            assert '"nan"' not in out.read_text(), text
            seen["permutation"] += "permutation" in json.loads(out.read_text())

    check()
    assert min(seen[key] for key in (0, 3, 4, "permutation")) >= 10, seen
