"""Spatial weights and Global Moran's I with analytic and permutation inference.

The index over n values x with weights w (zero diagonal) is

    I = (n / S0) * sum_ij w_ij z_i z_j / sum_i z_i^2,   z_i = x_i - mean(x)

with S0 the total weight. Under the null that values are randomly
permuted over locations, E[I] = -1/(n-1) exactly and the variance has
the classical closed form in S0, S1, S2 and the sample kurtosis b2
(randomization assumption); the normality variant drops the kurtosis
terms. The permutation test is an independent check on those moments.

Weights are sparse: only the nonzero w_ij are stored, as row-major CSR
arrays, and S0, S1 and S2 are array reductions over them (Cliff & Ord
1981). Distance-band neighbours are found by a uniform-grid (cell-list)
search: with square cells a little wider than the band, every neighbour
of a point lies in its own cell or one of the 8 around it. Memory is
linear in the number of candidate pairs; no n x n matrix is formed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateWeightsError,
    InsufficientDataError,
    ZeroVarianceError,
)
from .stats import two_tailed_p

WEIGHT_SCHEMES = ("inverse_distance", "fixed_band")
ASSUMPTIONS = ("randomization", "normality")


class WeightsMatrix:
    """Sparse pairwise weights with the aggregates the variance of I needs.

    Built from ``entries``, a mapping of ordered pairs (i, j), i != j, to
    w_ij >= 0, and stored as CSR arrays sorted by (i, j): row i holds
    ``cols[indptr[i]:indptr[i + 1]]`` with weights ``vals[...]``, and
    ``rows`` repeats i once per entry. ``entries`` reads back as a
    read-only dict view in that order, built on first use.
    S0 = sum w_ij; S1 = 1/2 sum (w_ij + w_ji)^2;
    S2 = sum_i (row_sum_i + col_sum_i)^2.
    """

    def __init__(
        self,
        n: int,
        entries: Mapping[tuple[int, int], float],
        row_standardized: bool = False,
        scheme: str | None = None,
        threshold: float | None = None,
    ):
        for (i, j), w in entries.items():
            if i == j:
                raise ValueError(f"self-weight at index {i} not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) outside 0..{n - 1}")
            if w < 0:
                raise ValueError(f"negative weight at ({i}, {j})")
        rows = np.array([ij[0] for ij in entries], dtype=np.intp)
        cols = np.array([ij[1] for ij in entries], dtype=np.intp)
        vals = np.array(list(entries.values()), dtype=np.float64)
        order = np.lexsort((cols, rows))
        self._init(n, rows[order], cols[order], vals[order], row_standardized, scheme, threshold)

    @classmethod
    def _from_sorted(cls, n, rows, cols, vals, row_standardized, scheme, threshold):
        """Weights from valid, unique (i, j, w_ij) arrays already sorted by (i, j)."""
        self = cls.__new__(cls)
        self._init(n, rows, cols, vals, row_standardized, scheme, threshold)
        return self

    def _init(self, n, rows, cols, vals, row_standardized, scheme, threshold):
        self.n = n
        self.row_standardized = row_standardized
        # how the matrix was built, echoed into reports; None when hand-made
        self.scheme = scheme
        self.threshold = threshold
        self.rows, self.cols, self.vals = rows, cols, vals
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        for a in (rows, cols, vals, self.indptr):
            a.flags.writeable = False
        self._entries = None
        self.s0 = float(vals.sum())
        if self.s0 <= 0.0:
            raise DegenerateWeightsError("all spatial weights are zero")
        row_sums = np.zeros(n)
        col_sums = np.zeros(n)
        np.add.at(row_sums, rows, vals)
        np.add.at(col_sums, cols, vals)
        # S1 over unordered pairs: each contributes (w_ij + w_ji)^2 once, added
        # by Python's sum() in the order the pairs first appear.
        pair = np.minimum(rows, cols).astype(np.int64) * n + np.maximum(rows, cols)
        _, first, which = np.unique(pair, return_index=True, return_inverse=True)
        t = np.zeros(first.size)
        np.add.at(t, which, vals)
        t = t[np.argsort(first)]
        self.s1 = float(sum((t * t).tolist()))
        self.s2 = float(np.sum((row_sums + col_sums) ** 2))

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) weights."""
        return int(self.vals.size)

    @property
    def entries(self) -> Mapping[tuple[int, int], float]:
        """{(i, j): w_ij} in (i, j) order, read-only."""
        if self._entries is None:
            pairs = zip(self.rows.tolist(), self.cols.tolist())
            self._entries = MappingProxyType(dict(zip(pairs, self.vals.tolist())))
        return self._entries

    def lag_products_sum(self, z: np.ndarray) -> float:
        """sum_ij w_ij z_i z_j for a deviation vector z."""
        return float(np.sum(self.vals * z[self.rows] * z[self.cols]))


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
_ROW_BLOCK_BYTES = 1 << 23  # dense row buffer for exact row sums


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
    raises on duplicate coordinates."""
    keys, _ = _cell_keys(pts, threshold * _CELL_MARGIN)
    parts = []
    for i, j, d in _candidates(pts, keys, np.arange(len(pts))):
        _check_duplicates(i, j, d)
        keep = d <= threshold
        i, j, d = i[keep], j[keep], d[keep]
        order = np.lexsort((j, i))
        parts.append((i[order], j[order], d[order]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _dense_row_sums(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Row sums of the n x n matrix, added as numpy adds a full dense row.

    Pairwise summation groups terms by column position, so the rows are
    scattered into a reusable block of dense rows and summed there.
    """
    sums = np.empty(n)
    block = np.zeros((max(1, _ROW_BLOCK_BYTES // (8 * n)), n))
    bounds = np.searchsorted(rows, np.arange(0, n + block.shape[0], block.shape[0]))
    for r0, lo, hi in zip(range(0, n, block.shape[0]), bounds, bounds[1:]):
        r1 = min(n, r0 + block.shape[0])
        block[rows[lo:hi] - r0, cols[lo:hi]] = vals[lo:hi]
        sums[r0:r1] = block[: r1 - r0].sum(axis=1)
        block[rows[lo:hi] - r0, cols[lo:hi]] = 0.0
    return sums


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
    every point has at least one neighbour. Duplicate coordinates are an
    error (a 1/0 weight), not silently jittered; so are non-finite ones.
    Neighbours come from a cell-list search, in memory linear in the
    number of neighbours.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weights scheme '{scheme}'")
    pts = np.asarray(points, dtype=np.float64)
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
    if threshold is None or not threshold > 0:
        # duplicates are reported before the threshold is looked at
        auto = _max_nearest_distance(pts)
        if threshold is None:
            threshold = auto
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if math.isnan(threshold):
        rows = cols = np.empty(0, dtype=np.intp)
        vals = np.empty(0)
    else:
        rows, cols, dist = _pairs_within(pts, threshold)
        vals = 1.0 / dist if scheme == "inverse_distance" else np.ones(dist.size)
    if row_standardize:
        if scheme == "inverse_distance":
            row_sums = _dense_row_sums(rows, cols, vals, n)
        else:  # sums of ones are exact in any order
            row_sums = np.bincount(rows, minlength=n).astype(np.float64)
        vals = vals / row_sums[rows]
    nonzero = vals != 0.0  # as in a dense matrix: 1/inf or an underflowed quotient is no entry
    if not nonzero.any():
        raise DegenerateWeightsError(
            f"no pair within threshold {threshold}: all weights zero"
        )
    return WeightsMatrix._from_sorted(
        n,
        rows[nonzero],
        cols[nonzero],
        vals[nonzero],
        row_standardized=row_standardize,
        scheme=scheme,
        threshold=threshold,
    )


def _deviations(values: Sequence[float], w: WeightsMatrix) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.size != w.n:
        raise ValueError(f"got {x.size} values for {w.n} locations")
    z = x - x.mean()
    if float(np.sum(z * z)) == 0.0:
        raise ZeroVarianceError("Moran's I undefined for a constant field")
    return z


def morans_i(values: Sequence[float], w: WeightsMatrix) -> float:
    """Global Moran's I of ``values`` under weights ``w``."""
    z = _deviations(values, w)
    return (w.n / w.s0) * w.lag_products_sum(z) / float(np.sum(z * z))


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
    z = _deviations(values, w)
    n = w.n
    m2 = float(np.sum(z**2)) / n
    m4 = float(np.sum(z**4)) / n
    b2 = m4 / (m2 * m2)
    i_obs = (n / w.s0) * w.lag_products_sum(z) / float(np.sum(z * z))
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
    Each replicate draws its permutation from an independent seed-derived
    substream, so the result does not depend on how replicates would be
    scheduled across workers.
    """
    if w.n < 4:
        raise InsufficientDataError(f"need n >= 4 for a permutation test, got {w.n}")
    if n_perm < 99:
        raise ValueError(f"n_perm must be at least 99, got {n_perm}")
    z = _deviations(values, w)
    denom = float(np.sum(z * z))
    scale = w.n / (w.s0 * denom)
    i_obs = scale * w.lag_products_sum(z)
    e_i = -1.0 / (w.n - 1)
    ref = abs(i_obs - e_i)

    streams = np.random.SeedSequence(seed).spawn(n_perm)
    sims = np.empty(n_perm)
    for k, ss in enumerate(streams):
        perm = np.random.default_rng(ss).permutation(w.n)
        sims[k] = scale * w.lag_products_sum(z[perm])
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
