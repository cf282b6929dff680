"""A fixed reference program that measures how fast the host runs right now.

    python3 bench/reference.py

It never changes and uses nothing of ``demqa``: the same interpreter
start and ``import numpy`` as a ``demqa`` command, then a small mix of
the work those commands do (formatting and parsing grid text token by
token, a Horn-like numpy stencil, a dense pairwise-distance matrix).
``run.py`` runs it before every command of an end-to-end job. The job's
time divided by the reference's time cancels most of the slow-down that
other tenants of a shared host cause, which changes the raw times by up
to a factor of two over minutes.
"""

import sys

import numpy as np


def reference_work() -> float:
    rng = np.random.default_rng(12345)
    grid = rng.random((200, 200)) * 1000.0
    text = "\n".join(" ".join(f"{v:.3f}" for v in row) for row in grid)
    parsed = np.array([float(t) for line in text.splitlines() for t in line.split()])
    dem = np.kron(parsed.reshape(grid.shape), np.ones((2, 2)))
    gy, gx = np.gradient(dem, 10.0)
    total = np.degrees(np.arctan(np.hypot(gx, gy))).sum()
    points = rng.random((1000, 2)) * 1e4
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    weights = np.where(dist > 0, 1.0 / np.maximum(dist, 1e-9), 0.0)
    total += weights.sum(1).mean() + np.sort(dem, axis=None)[::997].sum()
    return float(total)


if __name__ == "__main__":
    if not np.isfinite(reference_work()):
        sys.exit("reference computation went wrong")
