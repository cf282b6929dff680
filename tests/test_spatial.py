import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import demqa.spatial
from demqa.errors import (
    ConfigError,
    DegenerateWeightsError,
    InsufficientDataError,
    ZeroVarianceError,
)
from demqa.spatial import (
    WEIGHT_SCHEMES,
    WeightsMatrix,
    build_weights,
    morans_i,
    morans_significance,
    permutation_test,
)
from demqa.synth import make_checkerboard, make_smoothed_noise, scatter_points


def dense_weights(points, scheme="inverse_distance", threshold=None, row_standardize=False):
    """The O(n^2) dense builder the cell-list search replaced, kept as an oracle.

    Returns (entries, threshold); raises exactly as the library must.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(dist[off_diag] == 0.0):
        i, j = np.argwhere((dist == 0.0) & off_diag)[0]
        raise DegenerateWeightsError(
            f"duplicate coordinates at indices {i} and {j}: zero distance"
        )
    if threshold is None:
        nn = np.where(off_diag, dist, np.inf).min(axis=1)
        threshold = float(nn.max())
    within = off_diag & (dist <= threshold)
    if scheme == "inverse_distance":
        w = np.where(within, 1.0, 0.0)
        np.divide(w, dist, out=w, where=within)
    else:
        w = within.astype(np.float64)
    if row_standardize:
        row_sums = w.sum(axis=1, keepdims=True)
        np.divide(w, row_sums, out=w, where=row_sums > 0)
    ii, jj = np.nonzero(w)
    entries = {(int(i), int(j)): float(w[i, j]) for i, j in zip(ii, jj)}
    if not entries:
        raise DegenerateWeightsError(
            f"no pair within threshold {threshold}: all weights zero"
        )
    return entries, threshold


def dense_sums(n, entries):
    """S0, S1, S2 as the dict-based weights computed them."""
    vals = np.array(list(entries.values()))
    rows = np.array([i for i, _ in entries], dtype=np.intp)
    cols = np.array([j for _, j in entries], dtype=np.intp)
    row_sums = np.zeros(n)
    col_sums = np.zeros(n)
    np.add.at(row_sums, rows, vals)
    np.add.at(col_sums, cols, vals)
    sym = {}
    for (i, j), v in entries.items():
        key = (i, j) if i < j else (j, i)
        sym[key] = sym.get(key, 0.0) + v
    s1 = float(sum(t * t for t in sym.values()))
    return float(vals.sum()), s1, float(np.sum((row_sums + col_sums) ** 2))


def random_layout(rng, n):
    kind = int(rng.integers(0, 5))
    if kind == 0:  # uniform, at several scales
        return rng.uniform(0, rng.choice([1.0, 100.0, 1e4]), (n, 2))
    if kind == 1:  # a few tight clusters
        k = int(rng.integers(1, 6))
        centres = rng.uniform(0, 1000, (k, 2))
        return centres[rng.integers(0, k, n)] + rng.normal(0, rng.choice([0.5, 5, 50]), (n, 2))
    if kind == 2:  # lattice subset: many equal distances, offset far from 0
        m = int(np.ceil(np.sqrt(n))) + int(rng.integers(0, 3))
        lattice = np.array([(float(c), float(r)) for r in range(m) for c in range(m)])
        pick = lattice[rng.choice(len(lattice), n, replace=False)]
        return pick * rng.choice([1.0, 0.1, 30.0]) + rng.choice([0.0, 1e5])
    if kind == 3:  # collinear
        return np.c_[rng.uniform(0, 50, n), np.full(n, 3.0)]
    return np.round(rng.uniform(0, 20, (n, 2)), 1)  # coarse: duplicates likely


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except DegenerateWeightsError as exc:
        return str(exc)


def test_cell_list_weights_equal_dense_oracle():
    rng = np.random.default_rng(2024)
    errors, built = set(), set()
    for case in range(160):
        n = int(rng.integers(2, 300))
        pts = random_layout(rng, n)
        if n > 3 and rng.random() < 0.1:
            pts[rng.integers(0, n)] = pts[rng.integers(0, n)]
        scheme = str(rng.choice(["inverse_distance", "fixed_band"]))
        threshold = None if rng.random() < 0.5 else float(rng.choice([0.05, 0.5, 3.0, 300.0]))
        rs = bool(rng.random() < 0.4)
        label = f"case {case}: n={n} {scheme} threshold={threshold} row_standardize={rs}"
        want = outcome(dense_weights, pts, scheme, threshold, rs)
        got = outcome(build_weights, pts, scheme, threshold, rs)
        if isinstance(want, str):
            assert got == want, label
            errors.add(want.split()[0])
            continue
        entries, used = want
        assert list(got.entries.items()) == list(entries.items()), label
        assert (got.s0, got.s1, got.s2) == dense_sums(n, entries), label
        assert got.threshold == used, label
        assert got.nnz == len(entries), label
        built.add((scheme, rs, len({i for i, _ in entries}) < n))
    # the seed reaches both errors, every scheme/standardisation pair, and isolates
    assert errors == {"duplicate", "no"}
    assert {(s, r, False) for s in WEIGHT_SCHEMES for r in (False, True)} <= built
    assert any(isolated for _, _, isolated in built)


def test_duplicate_error_names_first_pair_like_dense():
    pts = [(5.0, 5.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]
    for threshold in (None, 0.1, 100.0, float("nan")):
        with pytest.raises(DegenerateWeightsError) as dense:
            dense_weights(pts, threshold=threshold)
        with pytest.raises(DegenerateWeightsError) as cells:
            build_weights(pts, threshold=threshold)
        assert str(cells.value) == str(dense.value) == (
            "duplicate coordinates at indices 1 and 3: zero distance"
        )


def test_non_finite_coordinates_rejected():
    with pytest.raises(DegenerateWeightsError, match="non-finite coordinates at index 1"):
        build_weights([(0.0, 0.0), (float("nan"), 1.0), (2.0, 2.0)], threshold=5.0)


def test_weights_memory_linear_at_20000_points():
    rng = np.random.default_rng(20000)
    pts = rng.uniform(0, 5000, (20000, 2))
    tracemalloc.start()
    try:
        w = build_weights(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e6
    assert w.nnz < 20 * w.n
    assert set(np.unique(w.rows).tolist()) == set(range(w.n))


def clusters_and_outlier(seed=3554, n_per=200):
    """Five tight clusters over 2 km, and one point 3 km beyond them."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, 2000, (5, 2))
    pts = np.vstack([c + rng.normal(0, 5, (n_per, 2)) for c in centres])
    return pts, np.vstack([pts, [[5000.0, 5000.0]]])


def test_weights_limit_stops_an_auto_band_made_dense_by_one_outlier(monkeypatch):
    clustered, with_outlier = clusters_and_outlier()
    nnz = build_weights(clustered).nnz
    monkeypatch.setattr(demqa.spatial, "MAX_WEIGHTS", nnz)
    assert build_weights(clustered).nnz == nnz  # exactly at the limit is allowed
    # the outlier's nearest neighbour sets the band: nearly every pair is in it
    with pytest.raises(ConfigError) as exc:
        build_weights(with_outlier)
    found = re.fullmatch(r"threshold \S+ would need at least (\d+) weights; "
                         rf"the limit is {nnz}", str(exc.value))
    assert found and int(found.group(1)) > nnz
    monkeypatch.setattr(demqa.spatial, "MAX_WEIGHTS", nnz - 1)
    with pytest.raises(ConfigError, match=f"the limit is {nnz - 1}"):
        build_weights(clustered)


def test_csr_arrays_and_entries_view():
    w = WeightsMatrix(n=4, entries={(2, 0): 1.0, (0, 3): 2.0, (0, 1): 0.5, (3, 0): 2.0})
    assert list(w.entries.items()) == [((0, 1), 0.5), ((0, 3), 2.0), ((2, 0), 1.0), ((3, 0), 2.0)]
    assert w.rows.tolist() == [0, 0, 2, 3]
    assert w.cols.tolist() == [1, 3, 0, 0]
    assert w.indptr.tolist() == [0, 2, 2, 3, 4]
    assert w.nnz == 4
    assert (w.s0, w.s1, w.s2) == dense_sums(4, {(0, 1): 0.5, (0, 3): 2.0, (2, 0): 1.0, (3, 0): 2.0})
    with pytest.raises(TypeError):
        w.entries[(1, 2)] = 1.0
    with pytest.raises(ValueError):
        w.vals[0] = 3.0


def grid_points(n):
    return [(float(c), float(r)) for r in range(n) for c in range(n)]


def rook_weights(n):
    return build_weights(grid_points(n), scheme="fixed_band", threshold=1.0)


def test_two_points_inverse_distance_auto():
    w = build_weights([(0.0, 0.0), (2.0, 0.0)])
    assert w.entries == {(0, 1): 0.5, (1, 0): 0.5}
    assert w.s0 == 1.0


def test_unit_square_rook_adjacency():
    w = build_weights([(0, 0), (1, 0), (0, 1), (1, 1)], scheme="fixed_band",
                      threshold=1.0)
    assert w.s0 == 8.0  # 4 edges, both directions
    assert all(v == 1.0 for v in w.entries.values())


def test_row_standardize_rows_sum_to_one():
    rng = np.random.default_rng(3)
    pts = [tuple(p) for p in rng.uniform(0, 10, size=(25, 2))]
    w = build_weights(pts, scheme="inverse_distance", row_standardize=True)
    row_sums = {}
    for (i, _), v in w.entries.items():
        row_sums[i] = row_sums.get(i, 0.0) + v
    for s in row_sums.values():
        assert s == pytest.approx(1.0, abs=1e-12)
    assert w.row_standardized


def test_duplicate_coordinates_error():
    with pytest.raises(DegenerateWeightsError, match="duplicate"):
        build_weights([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)])


def test_all_zero_weights_error():
    with pytest.raises(DegenerateWeightsError):
        build_weights([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)], threshold=1.0)


def test_too_few_points():
    with pytest.raises(InsufficientDataError):
        build_weights([(0.0, 0.0)])


def test_weight_aggregates_consistent():
    rng = np.random.default_rng(17)
    pts = [tuple(p) for p in rng.uniform(0, 5, size=(12, 2))]
    w = build_weights(pts, scheme="inverse_distance")
    s0 = sum(w.entries.values())
    s1 = 0.5 * sum(
        (w.entries.get((i, j), 0.0) + w.entries.get((j, i), 0.0)) ** 2
        for i in range(w.n)
        for j in range(w.n)
        if i != j
    )
    row = [sum(w.entries.get((i, j), 0.0) for j in range(w.n)) for i in range(w.n)]
    col = [sum(w.entries.get((j, i), 0.0) for j in range(w.n)) for i in range(w.n)]
    s2 = sum((r + c) ** 2 for r, c in zip(row, col))
    assert w.s0 == pytest.approx(s0, rel=1e-12)
    assert w.s1 == pytest.approx(s1, rel=1e-12)
    assert w.s2 == pytest.approx(s2, rel=1e-12)


def test_checkerboard_moran_is_minus_one():
    g = make_checkerboard(1.0, 4, 4)
    pts = [g.cell_center(r, c) for r in range(4) for c in range(4)]
    vals = [float(g.values[r, c]) for r in range(4) for c in range(4)]
    w = build_weights(pts, scheme="fixed_band", threshold=1.0)
    assert morans_i(vals, w) == pytest.approx(-1.0, abs=1e-12)


def test_constant_field_errors():
    w = rook_weights(3)
    with pytest.raises(ZeroVarianceError):
        morans_i([5.0] * 9, w)


def test_three_collinear_points_brute_force():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    w = build_weights(pts, scheme="fixed_band", threshold=1.0)
    vals = np.array([1.0, 2.0, 3.0])
    z = vals - vals.mean()
    num = sum(
        w.entries.get((i, j), 0.0) * z[i] * z[j]
        for i in range(3)
        for j in range(3)
    )
    expected = (3 / w.s0) * num / float(np.sum(z * z))
    assert morans_i(vals, w) == pytest.approx(expected, abs=1e-15)


def test_moran_affine_invariance():
    rng = np.random.default_rng(2)
    w = rook_weights(5)
    vals = rng.normal(0, 3, 25)
    base = morans_i(vals, w)
    assert morans_i(vals + 100.0, w) == pytest.approx(base, abs=1e-12)
    assert morans_i(vals * 7.5, w) == pytest.approx(base, abs=1e-12)
    assert morans_i(vals * -2.0 + 3.0, w) == pytest.approx(base, abs=1e-12)


def test_expectation_exact():
    for n in (4, 10, 100, 497, 1000):
        pts = [(float(i), 0.0) for i in range(n)]
        w = build_weights(pts, scheme="fixed_band", threshold=1.0)
        vals = np.sin(np.arange(n) * 2.0) + np.arange(n) * 0.01
        res = morans_significance(vals, w)
        assert abs(res.e_i + 1.0 / (n - 1)) <= 1e-15


def test_variance_matches_exhaustive_permutations():
    rng = np.random.default_rng(42)
    for n in (4, 5, 6):
        for scheme in ("fixed_band", "inverse_distance"):
            pts = [tuple(p) for p in rng.uniform(0, 10, size=(n, 2))]
            vals = rng.normal(0, 2, n)
            w = build_weights(pts, scheme=scheme)
            res = morans_significance(vals, w, assumption="randomization")
            sims = np.array(
                [morans_i(vals[list(p)], w) for p in itertools.permutations(range(n))]
            )
            assert sims.mean() == pytest.approx(res.e_i, abs=1e-12)
            assert sims.var() == pytest.approx(res.v_i, abs=1e-9)


def test_z_consistency_and_two_tailed_p():
    rng = np.random.default_rng(5)
    w = rook_weights(6)
    vals = rng.normal(0, 1, 36)
    for assumption in ("randomization", "normality"):
        res = morans_significance(vals, w, assumption=assumption)
        assert res.z == pytest.approx((res.i - res.e_i) / math.sqrt(res.v_i), abs=1e-14)
        assert 0.0 <= res.p <= 1.0
        assert res.assumption == assumption
    with pytest.raises(ValueError):
        morans_significance(vals, w, assumption="bayes")


def test_smoothed_field_z_positive():
    g = make_smoothed_noise(1.0, 3, 40, 40, seed=7)
    pts = scatter_points(g, 150, seed=7)
    vals = [p.h_ref for p in pts]
    w = build_weights([(p.x, p.y) for p in pts])
    res = morans_significance(vals, w)
    assert res.z > 1.96


def test_significance_needs_four_points():
    w = build_weights([(0, 0), (1, 0), (2, 0)], scheme="fixed_band", threshold=2.0)
    with pytest.raises(InsufficientDataError):
        morans_significance([1.0, 2.0, 3.0], w)


def test_permutation_deterministic_under_seed():
    g = make_smoothed_noise(1.0, 2, 20, 20, seed=3)
    pts = scatter_points(g, 40, seed=3)
    vals = [p.h_ref for p in pts]
    w = build_weights([(p.x, p.y) for p in pts])
    a = permutation_test(vals, w, n_perm=199, seed=11)
    b = permutation_test(vals, w, n_perm=199, seed=11)
    assert a == b
    c = permutation_test(vals, w, n_perm=199, seed=12)
    assert c.pseudo_p != a.pseudo_p or c.perm_mean != a.perm_mean


def test_permutation_checkerboard_extreme():
    g = make_checkerboard(1.0, 4, 4)
    pts = [g.cell_center(r, c) for r in range(4) for c in range(4)]
    vals = [float(g.values[r, c]) for r in range(4) for c in range(4)]
    w = build_weights(pts, scheme="fixed_band", threshold=1.0)
    res = permutation_test(vals, w, n_perm=999, seed=0)
    assert res.pseudo_p <= 0.01
    assert res.i_obs == pytest.approx(-1.0, abs=1e-12)


def test_permutation_white_noise_mostly_nonsignificant():
    # Monte Carlo sanity batch: independent values should rarely produce a
    # small pseudo-p. Seeded, so the outcome is frozen.
    hits = 0
    for s in range(10):
        g = make_smoothed_noise(1.0, 0, 30, 30, seed=100 + s)
        pts = scatter_points(g, 80, seed=200 + s)
        w = build_weights([(p.x, p.y) for p in pts])
        res = permutation_test([p.h_ref for p in pts], w, n_perm=999, seed=s)
        hits += res.pseudo_p > 0.05
    assert hits >= 8


def test_auto_threshold_gives_every_point_a_neighbour():
    rng = np.random.default_rng(23)
    pts = [tuple(p) for p in rng.uniform(0, 100, size=(60, 2))]
    w = build_weights(pts, scheme="fixed_band")
    rows_with_neighbours = {i for i, _ in w.entries}
    assert rows_with_neighbours == set(range(60))
    assert w.threshold is not None and w.threshold > 0
    assert w.scheme == "fixed_band"


def test_permutation_needs_minimum_replicates():
    w = rook_weights(3)
    with pytest.raises(ValueError):
        permutation_test(list(range(9)), w, n_perm=10)


def test_weights_matrix_rejects_self_weight():
    with pytest.raises(ValueError):
        WeightsMatrix(n=3, entries={(0, 0): 1.0})


def test_weights_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        WeightsMatrix(n=2, entries={(0, 5): 1.0})


def test_weights_matrix_rejects_negative_weight():
    with pytest.raises(ValueError, match="negative weight at"):
        WeightsMatrix(n=3, entries={(0, 1): 1.0, (1, 2): -0.5})
