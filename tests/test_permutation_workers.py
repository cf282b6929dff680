"""Permutation replicates split over forked workers: the same bits at any
worker count, and no child process left behind."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import demqa._workers
import demqa.spatial
from demqa.cli import main
from demqa.raster import Grid, write_ascii_grid
from demqa.spatial import build_weights, morans_i, permutation_test

SRC = Path(__file__).resolve().parent.parent / "src"

# float.hex of each summary (numpy 2.4), with every replicate computed by
# morans_i's expression, (n / S0) * sum w z z / sum z^2
GOLDEN = {
    "pseudo_p": "0x1.cf6899725153ap-2",  # 453 / 1001
    "perm_mean": "-0x1.7a4f8d68c5abep-11",
    "perm_sd": "0x1.fb8aa951511efp-6",
    "perm_min": "-0x1.0062e7f80f407p-3",
    "perm_max": "0x1.447a3cdcf7c36p-3",
}


def golden_fixture():
    """1,000 points with a weak trend: 1000 x (n + nnz) is 15 M, enough to fork."""
    rng = np.random.default_rng(2026)
    pts = rng.uniform(0, 1000, (1000, 2))
    vals = 0.2 * np.sin(pts[:, 0] / 150) + rng.normal(0, 1, 1000)
    return vals, build_weights(pts)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [None, 1, 2, 3], ids=["auto", "1", "2", "3"])
def test_permutation_bits_do_not_depend_on_workers(monkeypatch, workers):
    vals, w = golden_fixture()
    work = 1000 * (w.n + w.nnz)
    assert work >= 2 * demqa.spatial._SPAN_WORK
    monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    res = permutation_test(vals, w, n_perm=1000, seed=11)  # 3 does not divide 1000
    assert {k: float.hex(getattr(res, k)) for k in GOLDEN} == GOLDEN
    auto = demqa._workers._worker_count(1000, work, demqa.spatial._SPAN_WORK)
    assert len(forks) == (workers or auto) - 1
    assert_no_child_left()


def eighths_scene(tmp_path):
    """A flat DEM and 64 control points whose height errors are multiples of
    1/8 with a trend in x. Every sum over the errors, their deviations or
    the squares of those is exact, so a permuted field has the mean and the
    sum of squares of the field, whatever the order of its values."""
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 400, (64, 2))
    errors = (np.rint(16 * np.sin(pts[:, 0] / 80)) + rng.integers(-4, 5, 64)) / 8
    write_ascii_grid(Grid(ncols=40, nrows=40, xll=0, yll=0, cellsize=10,
                          values=np.full((40, 40), 100.0)), tmp_path / "dem.asc")
    with open(tmp_path / "gcps.csv", "w") as f:
        f.write("id,x,y,h\n")
        for k, ((x, y), e) in enumerate(zip(pts.tolist(), errors.tolist())):
            f.write(f"g{k:02d},{x!r},{y!r},{100.0 - e!r}\n")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_assess_replicates_are_morans_i_of_permuted_fields(monkeypatch, tmp_path, workers):
    # at this scene n / (S0 * sum z^2) * sum w z z is one bit from morans_i
    monkeypatch.setattr(demqa._workers, "_WORKERS", workers)
    eighths_scene(tmp_path)
    out = tmp_path / "out"
    assert main(["assess", "--dem", str(tmp_path / "dem.asc"), "--gcps",
                 str(tmp_path / "gcps.csv"), "--n-perm", "99", "--seed", "5",
                 "--out", str(out)]) == 0
    assert_no_child_left()
    moran = json.loads((out / "report.json").read_text())["moran"]
    assert moran["permutation"]["i_obs"] == moran["i"]
    with open(out / "samples.csv") as f:
        kept = [r for r in csv.DictReader(ln for ln in f if ln[0] != "#") if r["status"] == "kept"]
    assert len(kept) == 64
    x = np.array([float(r["delta_h"]) for r in kept])
    w = build_weights([(float(r["x"]), float(r["y"])) for r in kept])
    assert morans_i(x, w) == moran["i"]
    sims = np.array([
        morans_i(x[np.random.default_rng(np.random.SeedSequence(5, spawn_key=(k,)))
                   .permutation(w.n)], w)
        for k in range(99)
    ])
    assert {k: moran["permutation"][k] for k in ("perm_mean", "perm_sd", "perm_min", "perm_max")} \
        == {"perm_mean": float(sims.mean()), "perm_sd": float(sims.std()),
            "perm_min": float(sims.min()), "perm_max": float(sims.max())}


def test_small_fixture_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    rng = np.random.default_rng(5)
    w = build_weights(rng.uniform(0, 100, (60, 2)))
    permutation_test(rng.normal(size=60), w, n_perm=999, seed=1)


def test_worker_count_follows_cpus_and_work(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    work = demqa.spatial._SPAN_WORK

    def count(parts, total):
        return demqa._workers._worker_count(parts, total, work)

    assert count(999, 2 * work - 1) == 1
    assert count(999, 3 * work) == 3
    assert count(999, 100 * work) == 4
    assert count(2, 100 * work) == 2
    monkeypatch.setattr(demqa._workers, "_WORKERS", 3)
    assert count(999, 0) == 3
    assert count(2, 0) == 2
    monkeypatch.delattr(os, "fork")
    assert count(999, 100 * work) == 1


def in_child(fn):
    """A span that runs ``fn`` in forked children and sends lo..hi-1."""
    parent = os.getpid()

    def span(lo, hi, send):
        if os.getpid() != parent:
            fn(lo, hi)
        send(np.arange(lo, hi, dtype=np.float64).tobytes())
    return span


def map_parts(span, bounds, out=None, workers=None):
    """Run ``span`` over ``bounds`` with one worker a part unless told."""
    parts = []
    demqa._workers._map_parts(span, [out or parts.append], bounds,
                              workers or len(bounds) - 1, "replicates")
    return np.frombuffer(b"".join(parts))


def test_spans_join_in_order():
    for pieces in (
        lambda v: [v],  # once, an empty part too
        lambda v: [v] if len(v) else [],  # never for an empty part
        lambda v: [b""] + [v[k : k + 8] for k in range(0, len(v), 8)],  # empty, then one per value
    ):
        def span(lo, hi, send):
            for piece in pieces(memoryview(np.arange(lo, hi, dtype=np.float64)).cast("B")):
                send(piece)

        got = map_parts(span, [0, 3, 3, 10, 11])  # 0..2 here, the rest from three children
        assert got.tolist() == list(range(11))
        assert_no_child_left()


def test_child_bytes_arrive_in_bounded_chunks(monkeypatch):
    monkeypatch.setattr(demqa._workers, "_CHUNK_BYTES", 24)
    chunks = []
    map_parts(in_child(lambda lo, hi: None), [0, 3, 10], chunks.append)
    assert [len(c) for c in chunks] == [24, 24, 24, 8]  # 3 here, then 7 from the child
    assert np.frombuffer(b"".join(chunks)).tolist() == list(range(10))
    assert_no_child_left()


def test_failing_child_raises_in_the_parent(capfd):
    def fail(lo, hi):
        raise ValueError("worker broke")

    with pytest.raises(ChildProcessError) as exc:
        map_parts(in_child(fail), [0, 3, 10])
    assert str(exc.value) == "worker for replicates 3..9 exited with status 1 after 0 bytes"
    assert_no_child_left()
    assert capfd.readouterr().err == "worker for replicates 3..9: ValueError('worker broke')\n"


def test_a_child_that_raises_has_its_error_raised_here(capfd):
    # the part runs again in this process, which raises the child's own error
    def fail(lo, hi, send):
        if lo >= 3:
            raise ValueError(f"no value at {lo}")
        send(np.arange(lo, hi, dtype=np.float64).tobytes())

    with pytest.raises(ValueError, match="^no value at 3$"):
        map_parts(fail, [0, 3, 10, 12])
    assert_no_child_left()
    # the error is the first part's, as in a serial run, and no child's line
    # repeats it (nor names a later part)
    assert capfd.readouterr().err == ""


class ShortBytes(bytes):
    """Bytes that claim one float64 more than they hold: a child that sends
    them announces 8 bytes it never writes."""

    def __len__(self):
        return super().__len__() + 8


def test_short_data_from_a_child_raises():
    parent = os.getpid()

    def short(lo, hi, send):
        data = np.zeros(hi - lo - (os.getpid() != parent)).tobytes()
        send(data if os.getpid() == parent else ShortBytes(data))

    with pytest.raises(ChildProcessError) as exc:
        map_parts(short, [0, 3, 10, 12])
    assert str(exc.value) == "worker for replicates 3..9 exited with status 0 after 48 of 56 bytes"
    assert_no_child_left()


def test_failing_parent_kills_and_reaps_its_children():
    parent = os.getpid()

    def span(lo, hi, send):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_parts(span, [0, 1, 2, 3])
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_import_does_not_load_multiprocessing():
    code = "import sys, demqa, demqa.cli; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
