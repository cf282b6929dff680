"""The one CSV table reader behind the four table formats.

The four per-format loops that ``raster._read_table`` replaced are kept
below as oracles: every text they accept must give the same values (the
class codes a float64 class map cannot hold aside), every text they
reject must still be rejected at the same line, and no text may raise
anything but a ParseError that names its line.
"""

import io
import math
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from demqa.cli import _read_samples_csv
from demqa.errors import ParseError
from demqa.landcover import read_legend_csv, read_training_csv
from demqa.raster import _code, _csv_rows, _read_table
from demqa.sample import read_gcp_csv


def old_gcps(source):
    rows = _csv_rows(source, "control point file")
    header_line, header_fields = next(rows)
    if [h.strip().lower() for h in header_fields][:4] != ["id", "x", "y", "h"]:
        raise ParseError("header", line=header_line)
    points, seen = [], set()
    for lineno, fields in rows:
        if len(fields) < 4:
            raise ParseError("columns", line=lineno)
        pid = fields[0].strip()
        if pid in seen:
            raise ParseError("duplicate", line=lineno)
        seen.add(pid)
        try:
            values = (float(fields[1]), float(fields[2]), float(fields[3]))
        except ValueError:
            raise ParseError("non-numeric", line=lineno) from None
        if not all(map(math.isfinite, values)):
            raise ParseError("non-finite", line=lineno)
        points.append((pid, *values))
    return points


def old_training(source):
    rows = _csv_rows(source, "CSV file")
    header_line, header = next(rows)
    if [h.strip().lower() for h in header][:3] != ["x", "y", "class_code"]:
        raise ParseError("header", line=header_line)
    out = []
    for lineno, fields in rows:
        try:
            x, y = float(fields[0]), float(fields[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError
            out.append((x, y, int(fields[2])))
        except (ValueError, IndexError):
            raise ParseError("bad training row", line=lineno) from None
    return out


def old_legend(source):
    rows = _csv_rows(source, "CSV file")
    header_line, header = next(rows)
    if [h.strip().lower() for h in header][:2] != ["class_code", "label"]:
        raise ParseError("header", line=header_line)
    legend = {}
    for lineno, fields in rows:
        try:
            code, label = int(fields[0]), fields[1].strip()
        except (ValueError, IndexError):
            raise ParseError("bad legend row", line=lineno) from None
        if code in legend:
            raise ParseError("duplicate", line=lineno)
        legend[code] = label
    return legend


def old_samples(source):
    rows = _csv_rows(source, "samples file")
    header_line, header = next(rows)
    cols = [c.strip().lower() for c in header]
    for needed in ("x", "y", "delta_h"):
        if needed not in cols:
            raise ParseError("lacks column", line=header_line)
    coords, values = [], []
    for lineno, fields in rows:
        row = dict(zip(cols, fields))
        if (row.get("status") or "kept").strip() != "kept":
            continue
        raw = (row.get("delta_h") or "").strip()
        if not raw:
            continue
        try:
            point = float(row["x"]), float(row["y"]), float(raw)
        except (KeyError, ValueError):
            raise ParseError("bad numeric value", line=lineno) from None
        if not all(map(math.isfinite, point)):
            raise ParseError("non-finite value", line=lineno)
        coords.append(point[:2])
        values.append(point[2])
    return coords, values


def new_gcps(source):
    t = read_gcp_csv(source)
    return [(i, *v) for i, v in zip(t.ids, zip(t.x.tolist(), t.y.tolist(), t.h_ref.tolist()))]


# (new reader, old reader, header columns)
READERS = {
    "gcps": (new_gcps, old_gcps, ("id", "x", "y", "h")),
    "training": (read_training_csv, old_training, ("x", "y", "class_code")),
    "legend": (read_legend_csv, old_legend, ("class_code", "label")),
    "samples": (lambda s: _read_samples_csv(s, "delta_h"), old_samples,
                ("x", "y", "delta_h", "status")),
}
FIELDS = ("1", "-2.5", " 3 ", "0", "1_000", "nan", "-inf", "1e400", "", " ", '"', '"7"', "#",
          "a", "kept", "removed_outlier", "9007199254740992", "-9007199254740993",
          "99999999999999999999", "1.5e3")
NUMBERS = ("1", "-2.5", " 3 ", "0", "1_000", "1.5e3", "-0.0")
VALID = {"id": ("a", "b", " c ", "", "p1", "p2", "p3"), "x": NUMBERS, "y": NUMBERS, "h": NUMBERS,
         "delta_h": NUMBERS + ("",), "class_code": ("1", " 2 ", "-3", "9007199254740992"),
         "label": ("forest", " bare land ", ""), "status": ("kept", " kept ", "", "removed_outlier")}
WHERE = re.compile(r"\(line (\d+)(, column \d+)?\)$")


@st.composite
def tables(draw):
    kind = draw(st.sampled_from(sorted(READERS)))
    names = list(READERS[kind][2])
    if kind == "samples":  # by name: in any order, status optional
        names = draw(st.permutations(names[: draw(st.integers(3, 4))]))
    header = draw(st.sampled_from([names, names, names + ["extra"], [n.upper() for n in names],
                                   names[::-1], names[:-1]]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from(VALID.get(n.lower(), FIELDS))) for n in header]
        if draw(st.booleans()):  # a field replaced by none, one or two of any kind
            k = draw(st.integers(0, len(row)))
            row[k : k + 1] = draw(st.lists(st.sampled_from(FIELDS), max_size=2))
        rows.append(row)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return kind, "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def line_of(message):
    found = WHERE.search(message)
    assert found, message
    return int(found.group(1))


@seed(2027)
@settings(max_examples=300, deadline=None, database=None)
@given(tables())
def test_table_readers_match_the_old_loops(table):
    kind, text = table
    new, old, _ = READERS[kind]
    try:
        expected = old(io.StringIO(text))
    except ParseError as exc:
        expected = exc
    try:
        got = new(io.StringIO(text))
    except ParseError as exc:
        line = line_of(str(exc))
        if "out-of-range class code" in str(exc):  # a code the old loops let through
            assert not isinstance(expected, ParseError) or line <= line_of(str(expected))
        else:
            assert isinstance(expected, ParseError), (str(exc), expected)
            assert line == line_of(str(expected)), (str(exc), str(expected))
        return
    assert not isinstance(expected, ParseError), (str(expected), got)
    assert got == expected
    values = leaves(got)
    assert all(math.isfinite(v) for v in values if isinstance(v, float))
    codes = [v for v in values if isinstance(v, int)]
    assert all(abs(c) <= 2**53 for c in codes)
    assert kind != "training" or 0 not in codes


def leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.items())
    if isinstance(obj, (list, tuple)):
        return [v for o in obj for v in leaves(o)]
    return [obj]


def test_class_code_limits():
    for text in ("9007199254740992", " -9007199254740992 ", "+0", "1_000"):
        assert _code(text) == int(text)
    for text, reason in (("9007199254740993", "out-of-range class code"),
                         ("1.0", "non-integer class code"), ("", "non-integer class code")):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            _code(text)
    with pytest.raises(ValueError, match="^out-of-range class code$"):
        _code("0", least=1)


def test_samples_columns_by_name():
    # status optional; a row not kept, or with a blank value, is skipped unread
    text = "Delta_H,status,y,x,x\n0.5,kept,2,oops,1\n,kept,x,x,x\n1,removed,x,x,x\n2,,4,9,3\n"
    assert _read_samples_csv(io.StringIO(text), "delta_h") == ([(1.0, 2.0), (3.0, 4.0)],
                                                                [0.5, 2.0])


def test_read_table_yields_lines_and_parsed_values():
    text = "# c\nA,B,extra\n\n1, x ,z\n"
    rows = _read_table(io.StringIO(text), "t", (("a", float), ("b", str.strip)))
    assert list(rows) == [(4, [1.0, "x"])]
    with pytest.raises(ParseError, match=r"^t lacks column 'c' \(line 2\)$"):
        list(_read_table(io.StringIO(text), "t", (("c", float),), by_name=True))
