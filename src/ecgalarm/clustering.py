"""Per-patient k-means over segment features, cityblock or squared-Euclidean.

Lloyd iteration with k-means++ seeding. The update step matches the metric:
per-dimension mean for squared Euclidean, per-dimension median for cityblock
(the median minimizes within-cluster L1 cost), taken along the rows of a
contiguous transpose of the points. Empty clusters are repaired by splitting
off the point currently farthest from its centroid, which keeps k constant
and never increases the objective. Costs fill one (n, k) matrix in place, a
centroid column at a time from one (n, d) scratch array.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EmptyInput

METRICS = ("cityblock", "sqeuclidean")
MAX_ITER = 300


@dataclass
class Clustering:
    k: int
    metric: str
    centroids: np.ndarray  # k x d
    assignments: np.ndarray  # n
    sizes: np.ndarray  # k
    seed: int
    objective_trace: list[float] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def _costs_to_centroids(X: np.ndarray, centroids: np.ndarray, metric: str,
                        out: np.ndarray | None = None) -> np.ndarray:
    """(n, k) matrix of point costs under the metric, written into `out` when
    given. Fills one centroid's column at a time from one (n, d) scratch."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if out is None:
        out = np.empty((len(X), len(centroids)))
    diff = np.empty_like(X)
    for j, centroid in enumerate(centroids):
        np.subtract(X, centroid, out=diff)
        (np.abs if metric == "cityblock" else np.square)(diff, out=diff)
        np.sum(diff, axis=1, out=out[:, j])
    return out


def _plusplus_init(X: np.ndarray, k: int, metric: str, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; selection weights follow the metric's point cost."""
    n = len(X)
    chosen = [int(rng.integers(n))]
    cost = _costs_to_centroids(X, X[chosen[-1:]], metric)[:, 0]
    while len(chosen) < k:
        total = cost.sum()
        if total <= 0:
            remaining = np.setdiff1d(np.arange(n), np.array(chosen))
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=cost / total)))
        new_cost = _costs_to_centroids(X, X[chosen[-1:]], metric)[:, 0]
        cost = np.minimum(cost, new_cost)
    return X[np.array(chosen)].copy()


def _lloyd(X: np.ndarray, k: int, metric: str, rng: np.random.Generator):
    centroids = _plusplus_init(X, k, metric, rng)
    costs = _costs_to_centroids(X, centroids, metric)
    XT = np.ascontiguousarray(X.T) if metric == "cityblock" else None  # rows for medians
    prev_assign = None
    trace: list[float] = []
    for _ in range(MAX_ITER):
        assign = np.argmin(costs, axis=1)

        # Empty-cluster repair: split off the farthest point as a singleton.
        for empty in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            point_cost = costs[np.arange(len(X)), assign]
            donors = np.bincount(assign, minlength=k) > 1
            candidates = np.flatnonzero(donors[assign])
            far = candidates[int(np.argmax(point_cost[candidates]))]
            assign[far] = empty
            costs[far, empty] = 0.0

        for c in range(k):
            members = assign == c
            if members.any():
                centroids[c] = (np.median(XT[:, members], axis=1) if metric == "cityblock"
                                else np.mean(X[members], axis=0))

        # Costs at the updated centroids: this iteration's objective and the
        # next iteration's assignment.
        _costs_to_centroids(X, centroids, metric, out=costs)
        trace.append(float(costs[np.arange(len(X)), assign].sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    sizes = np.bincount(assign, minlength=k)
    return centroids, assign, sizes, trace


def kmeans(
    matrix: np.ndarray,
    k: int,
    metric: str = "cityblock",
    seed: int = 0,
    restarts: int = 1,
) -> Clustering:
    """Cluster the rows of `matrix`; deterministic for a fixed seed.

    With fewer rows than clusters the effective k drops to the row count.
    `restarts` runs independently seeded Lloyd passes and keeps the best
    objective (first wins ties).
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if len(X) == 0:
        raise EmptyInput("kmeans needs at least one row")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    k_eff = min(k, len(X))

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
        centroids, assign, sizes, trace = _lloyd(X, k_eff, metric, rng)
        if best is None or trace[-1] < best[3][-1]:
            best = (centroids, assign, sizes, trace)

    centroids, assign, sizes, trace = best
    return Clustering(
        k=k_eff,
        metric=metric,
        centroids=centroids,
        assignments=assign,
        sizes=sizes,
        seed=seed,
        objective_trace=trace,
    )


def record_seed(global_seed: int, record_name: str) -> int:
    """Per-record clustering seed: stable hash of the name XOR the global seed."""
    return (global_seed ^ zlib.crc32(record_name.encode("utf-8"))) & 0xFFFFFFFF

