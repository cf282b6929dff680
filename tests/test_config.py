"""INI configuration on hostile text: every file either loads into a config
that validates, with every class code one a float64 class map can hold,
or raises ConfigError. Nothing else may escape ``load_config`` and
``validate``."""

from collections import Counter

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from demqa.cli import OPTIONS, load_config
from demqa.errors import ConfigError

SECTIONS = sorted({row.section for row in OPTIONS})
OTHER_SECTIONS = [s for s in SECTIONS if s != "input"]
KEYS = {s: sorted(row.key for row in OPTIONS if row.section == s) for s in SECTIONS}
ANY_KEY = sorted({row.key for row in OPTIONS}) + ["n_perms", "colour"]
# legal text of each key; a path key takes any text
LEGAL = {
    "method": ["nearest", "bilinear"], "exclude_classes": ["5, 0", "-9007199254740992", ""],
    "min_h": ["none", "2.5"], "tukey_field": ["h_dem", "delta_h"],
    "remap": ["4:3, 6:3", "-9007199254740992:9007199254740992", ""], "z_factor": ["0.3048"],
    "scheme": ["inverse_distance", "fixed_band"], "threshold": ["auto", "250", " "],
    "row_standardize": ["true", "off"], "assumption": ["randomization", "normality"],
    "n_perm": ["0", "999"], "seed": ["7"], "width": ["0.5"], "origin": ["-0.25"],
}
PATHS = ["x.asc", "a%b.asc", "a%%b.asc", "%(dem)s", "100%", "höhe.asc"]
HOSTILE = [
    "%", "%%", "%(dem)s", "nan", "inf", "-inf", "1e400", "99999999999999999999",
    "-9007199254740993", "1:2:3", "1:", "1:99999999999999999999", "99999999999999999999:1",
    "", " ", "\t", "é", "١٢", "0", "-1", "maybe", "auto", "none", "5e-324",
]
HOSTILE_TEXT = st.one_of(st.sampled_from(HOSTILE), st.text(max_size=6))
# class codes past 2^53, the limit of a float64 class map, and malformed pairs
HOSTILE_CODES = st.sampled_from(["99999999999999999999", "5, -9007199254740993",
                                 "1:99999999999999999999", "-9007199254740993:1", "1:2:3"])


@st.composite
def ini_files(draw):
    lines = []
    if draw(st.integers(0, 3)):  # the two required inputs, so that most files can validate
        lines += ["[input]", "dem = d.asc", "gcps = g.csv"]
    sections = draw(st.lists(st.sampled_from(OTHER_SECTIONS), unique=True, max_size=3))
    if draw(st.integers(0, 4)) == 0:  # a section that is no option's, or a repeated one
        sections.append(draw(st.sampled_from(["DEFAULT", "histgram", "input"])))
    for section in sections:
        lines.append(f"[{section}]")
        # sorted: a set of strings iterates in an order that changes with
        # the process's hash seed, and the draws after it with that order
        for key in sorted(draw(st.sets(st.sampled_from(KEYS.get(section) or ANY_KEY),
                                       max_size=3))):
            if draw(st.integers(0, 9)) == 0:  # a key that is not this section's
                key = draw(st.sampled_from(ANY_KEY))
            text = st.sampled_from(LEGAL.get(key, PATHS))
            if draw(st.integers(0, 2)) == 0:
                text = HOSTILE_TEXT
                if key in ("exclude_classes", "remap"):
                    text = st.one_of(HOSTILE_CODES, text)
            lines.append(f"{key} = {draw(text)}")
    return "\n".join(lines) + "\n"


def test_hostile_ini_files_validate_or_raise_config_error(tmp_path):
    path = tmp_path / "c.ini"
    seen = Counter()

    # a fixed seed and no example database: the same draws on every run, so
    # the floors below hold for a known set
    @seed(2028)
    @settings(max_examples=400, deadline=None, database=None)
    @given(ini_files())
    def check(text):
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
            cfg.validate()
        except ConfigError:
            seen["error"] += 1
            return
        codes = [*cfg.exclude_classes, *cfg.remap, *cfg.remap.values()]
        assert all(isinstance(c, int) and abs(c) <= 2**53 for c in codes), text
        seen["valid"] += 1
        seen["codes"] += bool(codes)
        seen["%"] += "%" in cfg.dem + cfg.gcps + cfg.out_dir

    check()
    assert min(seen["error"], seen["valid"]) >= 50 and min(seen["codes"], seen["%"]) >= 3, seen
