"""The grid text kernel against ``repr``: every value's text is the
shortest round-trip ``repr``, integral values below 1e16 without ".0" and
-0.0 as 0, whichever path (the kernel's or its ``repr`` fallback) a value
takes."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import demqa._workers
from demqa._gridtext import shortest
from demqa.raster import _grid_text, write_ascii_grid
from demqa.synth import make_plane, make_smoothed_noise
from demqa.terrain import slope_aspect


def repr_text(values) -> bytes:
    """The reference: each row of 2-D ``values`` as ``repr`` per value."""
    lines = []
    for row in np.asarray(values, dtype=np.float64):
        # +0.0 turns -0.0 into 0.0; repr() writes integral values from 1e16 up with an exponent
        text = " ".join(map(repr, (row + 0.0).tolist())) + "\n"
        lines.append(text.replace(".0 ", " ").replace(".0\n", "\n"))
    return "".join(lines).encode("ascii")


def assert_repr_text(values, ncols=7):
    flat = np.asarray(values, dtype=np.float64).ravel()
    rows = flat[: flat.size - flat.size % ncols].reshape(-1, ncols)
    got, want = _grid_text(rows), repr_text(rows)
    if got != want:  # name the first value that differs
        for g, w, x in zip(got.split(), want.split(), rows.ravel().tolist()):
            assert g == w, f"{x!r} ({x.hex()})"
    assert got == want


def neighbours(values, ulps=3):
    """``values`` and their neighbours up to ``ulps`` ulps away, both signs."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        x = out[0]
        for _ in range(ulps):
            x = np.nextafter(x, direction)
            out.append(x)
    both = np.concatenate(out)
    return np.concatenate((both, -both))


@seed(2026)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.integers(1, 8))
def test_any_finite_values_give_repr_text(values, ncols):
    rows = np.reshape(values * ncols, (-1, ncols))  # a whole number of rows
    assert _grid_text(rows) == repr_text(rows)


def test_random_bit_patterns_give_repr_text():
    # 10^6 doubles with a random sign, mantissa and exponent: about 90% in
    # the fixed-notation range the kernel formats itself, the rest in the
    # exponent ranges next to it
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 1 << 63, 10**6, dtype=np.uint64)
    exponent = rng.integers(1023 - 18, 1023 + 56, bits.size).astype(np.uint64)
    bits = (bits & np.uint64((1 << 52) - 1)) | (exponent << np.uint64(52))
    values = bits.view(np.float64) * rng.choice([-1.0, 1.0], bits.size)
    assert_repr_text(values, ncols=1000)


def test_edge_values_give_repr_text():
    k = np.arange(-5, 18)
    halves = 2.0**50 + np.arange(64) + 0.25  # P = 10 v ends in .5: a tie at 17 digits
    units = 2.0**51 + np.arange(64) + 0.5  # P = 10 v is an integer ending in 5
    edges = [
        neighbours(10.0**k),
        neighbours(2.0 ** np.arange(-20, 60)),
        neighbours([1e-4, 1e15, 1e16, 2.0**52, 2.0**53, 9999999999999998.0]),
        [-0.0, 0.0, -9999.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        np.arange(2.0**53 - 64, 2.0**53 + 64),
        np.linspace(1e15, 1e16, 1001).round(),
        halves, units, units + 5, np.round(np.linspace(0, 1, 1001), 3),
    ]
    assert_repr_text(np.concatenate([np.ravel(e) for e in edges]), ncols=1)


@pytest.fixture(scope="module")
def terrain_600():
    """A 600 x 600 DEM (smoothed noise on an inclined plane), its slope
    and aspect, and the text of each."""
    plane = make_plane(0.02, 0.01, 250.0, 600, 600, cellsize=30.0)
    noise = make_smoothed_noise(4.0, 3, 600, 600, seed=7, cellsize=30.0)
    dem = replace(noise, values=plane.values + noise.values)
    pair = slope_aspect(dem, 0, dem.nrows)
    header = b"# terrain\nncols 600\nnrows 600\n" + b"".join(
        key + b" " + repr_text([[value]]) for key, value in (
            (b"xllcorner", dem.xll), (b"yllcorner", dem.yll), (b"cellsize", dem.cellsize),
            (b"NODATA_value", dem.nodata)))
    return dem, pair, [header + repr_text(values) for values in pair]


def test_terrain_values_take_the_fast_path(terrain_600):
    # every cell of a DEM, its slope and aspect, and a band of values with
    # two decimals is integral or formatted by the kernel itself, not by its
    # repr fallback
    dem, pair, _ = terrain_600
    band = np.round(np.random.default_rng(3).normal(80.0, 6.0, (600, 600)), 2)
    for values in (dem.values, *pair, band):
        a = np.abs(values.ravel())
        rest = a[np.floor(a) != a]
        assert ((rest >= 1e-4) & (rest < 1e16)).all()
        assert shortest(rest)[2].all()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_terrain_files_are_repr_text(monkeypatch, terrain_600, workers):
    dem, _, texts = terrain_600
    monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
    dests = [io.StringIO(), io.StringIO()]
    write_ascii_grid(dem, dests, comment="terrain", rows=lambda lo, hi: slope_aspect(dem, lo, hi))
    assert [dest.getvalue().encode("ascii") for dest in dests] == texts
