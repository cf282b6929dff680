"""Spatial weights and Global Moran's I with analytic and permutation inference.

The index over n values x with weights w (zero diagonal) is

    I = (n / S0) * sum_ij w_ij z_i z_j / sum_i z_i^2,   z_i = x_i - mean(x)

with S0 the total weight. Under the null that values are randomly
permuted over locations, E[I] = -1/(n-1) exactly and the variance has
the classical closed form in S0, S1, S2 and the sample kurtosis b2
(randomization assumption); the normality variant drops the kurtosis
terms. The permutation test is an independent check on those moments.

Weights are sparse: only the nonzero w_ij are stored, as row-major
(i, j, w_ij) arrays, and S0, S1 and S2 are array reductions over them
(Cliff & Ord 1981). Distance-band neighbours are found by a uniform-grid (cell-list)
search: with square cells a little wider than the band, every neighbour
of a point lies in its own cell or one of the 8 around it. Memory is
linear in the number of candidate pairs; no n x n matrix is formed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._workers import _map_parts, _worker_count
from .choices import ASSUMPTIONS, MAX_PERMUTATIONS, WEIGHT_SCHEMES
from .errors import (
    ConfigError,
    DegenerateDataError,
    DegenerateWeightsError,
    InsufficientDataError,
    ZeroVarianceError,
)
from .stats import _no_overflow, two_tailed_p

# More weights than an assessment needs (about 10 per point in practice);
# reached when one outlying point makes the ``auto`` band span a cluster.
# At 3.5 million weights the build peaked at about 400 MB.
MAX_WEIGHTS = 5_000_000

# Least work, replicates x (n + nnz), for each worker, so forking starts at
# twice this (8.4 M). On 2 cores (numpy 2.4) a replicate cost about 20 us +
# 4.75 ns x (n + nnz) and a fork with its pipe and reaping 2.5-4 ms; two
# workers broke even at 2-3 M (about 30 ms serial) and saved 8-33 ms of
# 62-87 ms at 9 M.
_SPAN_WORK = 1 << 22


class WeightsMatrix:
    """Sparse pairwise weights with the aggregates the variance of I needs.

    Built from three arrays of equal length, one entry per nonzero weight:
    w_ij = ``vals[k]`` at (i, j) = (``rows[k]``, ``cols[k]``), with
    0 <= i, j < n, i != j and w_ij finite and >= 0. The pairs must come in
    strictly increasing (i, j) order, so none appears twice; they are not
    sorted here. The arrays are kept read-only (numpy arrays of the right
    dtype are not copied). ``threshold`` is the distance band the weights
    were built with, None when hand-made.
    S0 = sum w_ij; S1 = 1/2 sum (w_ij + w_ji)^2, correctly rounded;
    S2 = sum_i (row_sum_i + col_sum_i)^2, with each row and column sum
    added in storage order.
    """

    def __init__(
        self,
        n: int,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        threshold: float | None = None,
    ):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.ndim == 1 or not rows.shape == cols.shape == vals.shape:
            shapes = f"{rows.shape}, {cols.shape} and {vals.shape}"
            raise ValueError(f"rows, cols and vals must be 1-d and of one length, got {shapes}")
        unordered = (rows[1:] < rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1]))
        outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        for bad, message in (
            (rows == cols, "self-weight at index {i} not allowed"),
            (outside, "entry ({i}, {j}) outside 0..{last}"),
            (~np.isfinite(vals), "non-finite weight {w} at ({i}, {j})"),
            (vals < 0, "negative weight at ({i}, {j})"),
            (np.r_[False, unordered], "entry ({i}, {j}) does not follow ({pi}, {pj}): "
                                      "pairs must be in strictly increasing (i, j) order"),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(message.format(
                    i=rows[k], j=cols[k], w=vals[k], pi=rows[k - 1], pj=cols[k - 1], last=n - 1
                ))
        self.n = n
        self.threshold = threshold
        self.rows, self.cols, self.vals = rows, cols, vals
        for a in (rows, cols, vals):
            a.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.s0 = float(vals.sum())
            # S1 over unordered pairs: each contributes (w_ij + w_ji)^2 once,
            # correctly rounded by fsum, which raises past float64
            pair = np.minimum(rows, cols).astype(np.int64) * n + np.maximum(rows, cols)
            t = np.bincount(np.unique(pair, return_inverse=True)[1], vals)
            try:
                self.s1 = math.fsum((t * t).tolist())
            except OverflowError:
                self.s1 = math.inf
            sums = np.bincount(rows, vals, n) + np.bincount(cols, vals, n)
            self.s2 = float(np.sum(sums**2))
        for name, value in (("S0", self.s0), ("S1", self.s1), ("S2", self.s2)):
            if not math.isfinite(value):
                raise DegenerateWeightsError(f"spatial weights: {name} overflows float64")
        if self.s0 <= 0.0:
            raise DegenerateWeightsError("all spatial weights are zero")

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) weights."""
        return int(self.vals.size)


@dataclass(frozen=True)
class MoranResult:
    """Moran's I with its null moments, standard score and two-tailed p."""

    i: float
    e_i: float
    v_i: float
    z: float
    p: float
    b2: float
    assumption: str
    n: int


@dataclass(frozen=True)
class PermutationResult:
    """Permutation-null summary for an observed Moran's I."""

    i_obs: float
    e_i: float
    pseudo_p: float
    n_perm: int
    perm_mean: float
    perm_sd: float
    perm_min: float
    perm_max: float


# Cell-list search. Cells are _CELL_MARGIN times wider than the distance
# they must cover, so rounding in the cell coordinates (at most about
# 2**-21 of a cell with at most _MAX_CELLS cells per axis) never moves a
# pair within that distance more than one cell apart. _MIN_CELL keeps
# cells wide enough that two points whose squared distance underflows to
# zero (a "duplicate") always share a 3x3 block.
_CELL_MARGIN = 1.01
_MAX_CELLS = 2**30
_MIN_CELL = 1e-140
_KEY_STRIDE = _MAX_CELLS + 3
_NEIGHBOUR_KEYS = np.array(
    [dx * _KEY_STRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64
)
_CHUNK_PAIRS = 1 << 20  # candidate pairs examined at a time
_MAX_SPAN = math.sqrt(np.finfo(np.float64).max / 2)  # keeps dx*dx + dy*dy finite


def _cell_keys(pts: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Cell key of each point on a square grid, and the cell size used (>= h)."""
    lo = pts.min(axis=0)
    span = float((pts.max(axis=0) - lo).max())
    h = max(h, _MIN_CELL, span / _MAX_CELLS)
    if math.isinf(h):
        return np.zeros(len(pts), dtype=np.int64), h
    c = np.floor((pts - lo) / h).astype(np.int64) + 1
    return c[:, 0] * _KEY_STRIDE + c[:, 1], h


def _candidates(
    pts: np.ndarray, keys: np.ndarray, query: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Chunks (i, j, d_ij) pairing each i of ``query`` with every j != i in the
    3x3 cells around it.

    ``query`` is ascending and a chunk holds all pairs of the queries it covers.
    d_ij = sqrt(dx*dx + dy*dy) with dx = x_i - x_j, so d_ij == d_ji exactly.
    """
    order = np.argsort(keys, kind="stable")
    cells, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    near = keys[query][:, None] + _NEIGHBOUR_KEYS
    at = np.minimum(np.searchsorted(cells, near), cells.size - 1)
    hit = cells[at] == near
    first = np.where(hit, starts[at], 0)
    count = np.where(hit, counts[at], 0)
    ends = np.cumsum(count.sum(axis=1))
    a = 0
    while a < query.size:
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + _CHUNK_PAIRS, side="right")))
        f, c = first[a:b].ravel(), count[a:b].ravel()
        i = np.repeat(query[a:b], count[a:b].sum(axis=1))
        offset = np.arange(i.size) - np.repeat(np.cumsum(c) - c, c)
        j = order[np.repeat(f, c) + offset]
        keep = j != i
        i, j = i[keep], j[keep]
        dx = pts[i, 0] - pts[j, 0]
        dy = pts[i, 1] - pts[j, 1]
        yield i, j, np.sqrt(dx * dx + dy * dy)
        a = b


def _check_duplicates(i: np.ndarray, j: np.ndarray, d: np.ndarray) -> None:
    """Raise for the first zero-distance pair in (i, j) order.

    Such pairs share a cell, whose points are in index order, and i ascends.
    """
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        k = zero[0]
        raise DegenerateWeightsError(
            f"duplicate coordinates at indices {i[k]} and {j[k]}: zero distance"
        )


def _max_nearest_distance(pts: np.ndarray) -> float:
    """max_i min_{j != i} d_ij, raising on duplicate coordinates.

    Cells start at about half the mean spacing of a uniform layout (or of
    a line, for collinear points) and double. A point is settled once its
    nearest candidate is within h / _CELL_MARGIN: any closer point would
    lie in the 3x3 cells searched, so the minimum is exact.
    """
    n = len(pts)
    nearest = np.empty(n)
    todo = np.arange(n)
    span = np.ptp(pts, axis=0)
    h = max(float(span.max()) / n, 0.5 * math.sqrt(float(span[0] * span[1]) / n))
    first_pass = True
    while todo.size:
        keys, h = _cell_keys(pts, h)
        best = np.full(n, np.inf)
        for i, j, d in _candidates(pts, keys, todo):
            if first_pass:
                _check_duplicates(i, j, d)
            np.minimum.at(best, i, d)
        first_pass = False
        settled = best[todo] * _CELL_MARGIN <= h
        nearest[todo[settled]] = best[todo[settled]]
        todo = todo[~settled]
        h *= 2.0
    return float(nearest.max())


def _pairs_within(pts: np.ndarray, threshold: float) -> tuple[np.ndarray, ...]:
    """(i, j, d_ij) of every pair with d_ij <= threshold, sorted by (i, j);
    raises on duplicate coordinates, and ConfigError once more than
    MAX_WEIGHTS pairs are found."""
    keys, _ = _cell_keys(pts, threshold * _CELL_MARGIN)
    parts = []
    count = 0
    for i, j, d in _candidates(pts, keys, np.arange(len(pts))):
        _check_duplicates(i, j, d)
        keep = d <= threshold
        count += int(np.count_nonzero(keep))
        if count > MAX_WEIGHTS:
            raise ConfigError(
                f"threshold {threshold!r} would need at least {count} weights; "
                f"the limit is {MAX_WEIGHTS}"
            )
        i, j, d = i[keep], j[keep], d[keep]
        order = np.lexsort((j, i))
        parts.append((i[order], j[order], d[order]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def build_weights(
    points: Sequence[tuple[float, float]],
    scheme: str = "inverse_distance",
    threshold: float | None = None,
    row_standardize: bool = False,
) -> WeightsMatrix:
    """Distance-based weights between point locations.

    ``inverse_distance``: w_ij = 1/d_ij for d_ij <= threshold, else 0.
    ``fixed_band``: w_ij = 1 for d_ij <= threshold, else 0.
    ``threshold=None`` picks the maximum nearest-neighbour distance, so
    every point has at least one neighbour; any other not > 0 is a ValueError.
    Duplicate coordinates (a 1/0 weight) are an error, not jittered; so are
    non-finite ones and a span wide enough to overflow a squared distance.
    Neighbours come from a cell-list search, in memory linear in the
    number of neighbours.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weights scheme '{scheme}'")
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (0,):  # an empty sequence: no points
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (x, y) pairs")
    n = pts.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 points, got {n}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise DegenerateWeightsError(
            f"non-finite coordinates at index {int(np.argmin(finite))}"
        )
    for axis, lo, hi in zip("xy", pts.min(axis=0).tolist(), pts.max(axis=0).tolist()):
        if hi / 2 - lo / 2 > _MAX_SPAN / 2:  # halves: the span itself may overflow
            raise DegenerateWeightsError(
                f"{axis} coordinates span {lo!r} to {hi!r}, wider than {_MAX_SPAN:.4g}: "
                "squared distances would overflow"
            )
    if threshold is None or not threshold > 0:
        # duplicates are reported before the threshold is looked at
        auto = _max_nearest_distance(pts)
        if threshold is not None:
            raise ValueError("threshold must be positive")
        threshold = auto
    rows, cols, dist = _pairs_within(pts, threshold)
    vals = 1.0 / dist if scheme == "inverse_distance" else np.ones(dist.size)
    if row_standardize:  # each row's weights added left to right
        vals = vals / np.bincount(rows, vals, n)[rows]
    nonzero = vals != 0.0  # as in a dense matrix: 1/inf or an underflowed quotient is no entry
    if not nonzero.any():
        raise DegenerateWeightsError(
            f"no pair within threshold {threshold}: all weights zero"
        )
    return WeightsMatrix(n, rows[nonzero], cols[nonzero], vals[nonzero], threshold)


def _moran(values: Sequence[float], w: WeightsMatrix) -> tuple[np.ndarray, float, float]:
    """The deviations z of ``values`` from their mean, sum z^2 and Moran's I;
    DegenerateDataError when a sum of squares or weighted products overflows."""
    x = np.asarray(values, dtype=np.float64)
    if x.size != w.n:
        raise ValueError(f"got {x.size} values for {w.n} locations")
    with np.errstate(over="ignore", invalid="ignore"):  # _no_overflow names an overflow
        z = x - x.mean()
        ss = float(np.sum(z * z))
        if ss == 0.0:
            raise ZeroVarianceError("Moran's I undefined for a constant field")
        _no_overflow(ss, "Moran's I: the sum of squared deviations")
        i = _index(z, ss, w)
    return z, ss, _no_overflow(i, "Moran's I: the weighted sum of products of deviations")


def _index(z: np.ndarray, ss: float, w: WeightsMatrix) -> float:
    """Moran's I of the deviations z, whose sum of squares is ``ss``: the one
    expression of the observed I and of every permuted one."""
    return (w.n / w.s0) * float(np.sum(w.vals * z[w.rows] * z[w.cols])) / ss


def morans_i(values: Sequence[float], w: WeightsMatrix) -> float:
    """Global Moran's I of ``values`` under weights ``w``; DegenerateDataError
    when a sum of squares or weighted products overflows."""
    return _moran(values, w)[2]


def morans_significance(
    values: Sequence[float], w: WeightsMatrix, assumption: str = "randomization"
) -> MoranResult:
    """Moran's I with analytic null moments, z score and two-tailed p.

    Under randomization E[I^2] uses S0, S1, S2 and the sample kurtosis
    b2 = m4/m2^2; under normality the kurtosis terms drop out. Requires
    n >= 4 (the randomization moments divide by (n-1)(n-2)(n-3)).
    """
    if assumption not in ASSUMPTIONS:
        raise ValueError(f"unknown assumption '{assumption}'")
    if w.n < 4:
        raise InsufficientDataError(f"need n >= 4 for the variance of I, got {w.n}")
    z, ss, i_obs = _moran(values, w)
    n = w.n
    m2 = ss / n
    with np.errstate(over="ignore", invalid="ignore"):  # _no_overflow names an overflow
        m4 = _no_overflow(float(np.sum(z**4)), "Moran's I: the sum of fourth powers") / n
    if m2 * m2 == 0.0:
        raise DegenerateDataError("Moran's I: the squared variance underflows float64")
    b2 = m4 / (m2 * m2)
    e_i = -1.0 / (n - 1)
    s0sq = w.s0 * w.s0
    if assumption == "randomization":
        a = n * ((n * n - 3 * n + 3) * w.s1 - n * w.s2 + 3 * s0sq)
        b = b2 * ((n * n - n) * w.s1 - 2 * n * w.s2 + 6 * s0sq)
        e_i2 = (a - b) / ((n - 1) * (n - 2) * (n - 3) * s0sq)
    else:
        e_i2 = (n * n * w.s1 - n * w.s2 + 3 * s0sq) / ((n - 1) * (n + 1) * s0sq)
    v_i = e_i2 - e_i * e_i
    if v_i <= 0:
        raise DegenerateWeightsError(
            f"nonpositive variance of I ({v_i}); weights too degenerate"
        )
    z_score = (i_obs - e_i) / math.sqrt(v_i)
    return MoranResult(
        i=i_obs,
        e_i=e_i,
        v_i=v_i,
        z=z_score,
        p=two_tailed_p(z_score),
        b2=b2,
        assumption=assumption,
        n=n,
    )


def permutation_test(
    values: Sequence[float], w: WeightsMatrix, n_perm: int = 999, seed: int = 0
) -> PermutationResult:
    """Two-sided pseudo p-value of I under random relabelling.

    pseudo_p = (1 + #{|I_perm - E[I]| >= |I_obs - E[I]|}) / (n_perm + 1).
    Each replicate draws its permutation from its own seed-derived
    substream. With enough work the replicates are split into contiguous
    spans, one per CPU this process may run on: the first runs here, the
    others in forked children, and the spans are joined in order, so the
    result is the same bit for bit at any worker count.
    """
    if w.n < 4:
        raise InsufficientDataError(f"need n >= 4 for a permutation test, got {w.n}")
    if n_perm < 99:
        raise ValueError(f"n_perm must be at least 99, got {n_perm}")
    if n_perm > MAX_PERMUTATIONS:
        raise ValueError(f"n_perm must be at most {MAX_PERMUTATIONS}, got {n_perm}")
    z, ss, i_obs = _moran(values, w)
    e_i = -1.0 / (w.n - 1)
    ref = abs(i_obs - e_i)

    def span(lo: int, hi: int, send: Callable[[bytes], object]) -> None:
        # numpy gathers, ufuncs and sums only: a forked child must not
        # touch BLAS or a lock another thread may hold
        sims = np.empty(hi - lo)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            for k in range(lo, hi):
                # stream k of SeedSequence(seed).spawn(n_perm), built where it is used
                stream = np.random.SeedSequence(seed, spawn_key=(k,))
                perm = np.random.default_rng(stream).permutation(w.n)
                sims[k - lo] = _index(z[perm], ss, w)
        send(sims.tobytes())

    workers = _worker_count(n_perm, n_perm * (w.n + w.nnz), _SPAN_WORK)
    parts: list[bytes] = []
    _map_parts(span, [parts.append], [k * n_perm // workers for k in range(workers + 1)],
               workers, "replicates")
    sims = np.frombuffer(b"".join(parts))
    if not np.isfinite(sims).all():
        raise DegenerateDataError("Moran's I of a permuted field: the weighted sum of products "
                                  "of deviations overflows float64")
    extreme = int(np.sum(np.abs(sims - e_i) >= ref))
    return PermutationResult(
        i_obs=i_obs,
        e_i=e_i,
        pseudo_p=(1 + extreme) / (n_perm + 1),
        n_perm=n_perm,
        perm_mean=float(sims.mean()),
        perm_sd=float(sims.std()),
        perm_min=float(sims.min()),
        perm_max=float(sims.max()),
    )
