"""Per-patient k-means over segment features, cityblock or squared-Euclidean.

Lloyd iteration with k-means++ seeding. The seeding computes each seed's cost
column once, into the (n, k) matrix that Lloyd's first assignment reads. The
update step matches the metric: per-dimension mean for squared Euclidean,
per-dimension median for cityblock (the median minimizes within-cluster L1
cost): `kmeans` sorts each dimension once, and an iteration takes all medians
from one stable argsort of the sorted points' labels. Only clusters whose
members changed get a new centroid and cost column. Empty clusters are
repaired by splitting off the point currently farthest from its centroid,
which keeps k constant and never increases the objective.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EmptyInput, check_finite

METRICS = ("cityblock", "sqeuclidean")
MAX_ITER = 300


@dataclass
class Clustering:
    k: int
    metric: str
    centroids: np.ndarray  # k x d
    assignments: np.ndarray  # n
    sizes: np.ndarray  # k
    objective_trace: list[float] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def _costs_to_centroids(X: np.ndarray, centroids: np.ndarray, metric: str,
                        out: np.ndarray | None = None, columns=None) -> np.ndarray:
    """(n, k) matrix of point costs under the metric, written into `out` (only
    its `columns`) when given. Fills a column at a time from one (n, d) scratch."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if out is None:
        out = np.empty((len(X), len(centroids)))
    diff = np.empty_like(X)
    for j in range(len(centroids)) if columns is None else columns:
        np.subtract(X, centroids[j], out=diff)
        (np.abs if metric == "cityblock" else np.square)(diff, out=diff)
        np.sum(diff, axis=1, out=out[:, j])
    return out


def _plusplus_init(X: np.ndarray, k: int, metric: str,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding; selection weights follow the metric's point cost.
    Returns the (k, d) seeds and their (n, k) cost matrix, a column per seed."""
    n = len(X)
    chosen = [int(rng.integers(n))]
    seeds, costs = np.empty((k, X.shape[1])), np.empty((n, k))
    for j in range(k):
        if j:
            cost = costs[:, :j].min(axis=1)  # to the nearest seed so far
            total = cost.sum()
            if total <= 0:
                remaining = np.ones(n, dtype=bool)
                remaining[chosen] = False
                chosen.append(int(rng.choice(np.flatnonzero(remaining))))
            else:
                chosen.append(int(rng.choice(n, p=cost / total)))
        seeds[j] = X[chosen[j]]
        _costs_to_centroids(X, seeds, metric, out=costs, columns=(j,))
    return seeds, costs


def _medians(X: np.ndarray, order: np.ndarray, assign: np.ndarray, clusters: np.ndarray,
             k: int) -> np.ndarray:
    """np.median of each given nonempty cluster, bit for bit, from `order`, the
    (d, n) argsort of every dimension: a stable argsort of the labels in that
    order lists each cluster's values ascending. np.median is np.mean of the
    middle one or two, which sums from +0.0, so -0.0 comes out as 0.0."""
    grouped = np.argsort(assign.astype(np.min_scalar_type(k - 1)).take(order),
                         axis=1, kind="stable")
    sizes = np.bincount(assign, minlength=k)
    start, size = (np.cumsum(sizes) - sizes)[clusters], sizes[clusters]
    middle = grouped[:, np.concatenate((start + (size - 1) // 2, start + size // 2))]
    rows = np.take_along_axis(order, middle, axis=1)
    lo, hi = np.split(np.take_along_axis(X.T, rows, axis=1) + 0.0, 2, axis=1)
    even = size % 2 == 0
    lo[:, even] = (lo[:, even] + hi[:, even]) / 2.0
    return lo.T


def _lloyd(X: np.ndarray, k: int, metric: str, rng: np.random.Generator, order):
    centroids, costs = _plusplus_init(X, k, metric, rng)
    prev_assign = np.full(len(X), k)  # no cluster yet, so all move at first
    trace: list[float] = []
    for _ in range(MAX_ITER):
        assign = np.argmin(costs, axis=1)

        # Empty-cluster repair: split off the farthest point as a singleton.
        # Its cost 0.0 holds if the centroid is not recomputed: it is the point.
        for empty in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            point_cost = costs[np.arange(len(X)), assign]
            donors = np.bincount(assign, minlength=k) > 1
            candidates = np.flatnonzero(donors[assign])
            far = candidates[int(np.argmax(point_cost[candidates]))]
            assign[far] = empty
            costs[far, empty] = 0.0

        # A centroid and its cost column depend only on the cluster's members.
        changed = assign != prev_assign
        touched = np.concatenate((assign[changed], prev_assign[changed]))
        moved = np.flatnonzero(np.bincount(touched, minlength=k + 1)[:k])
        if metric == "sqeuclidean":
            for c in moved:
                centroids[c] = np.mean(X[assign == c], axis=0)
        elif moved.size:
            centroids[moved] = _medians(X, order, assign, moved, k)

        # Costs at the updated centroids: this iteration's objective and the
        # next iteration's assignment.
        _costs_to_centroids(X, centroids, metric, out=costs, columns=moved)
        trace.append(float(costs[np.arange(len(X)), assign].sum()))
        if moved.size == 0:
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
    objective (first wins ties). A NaN or infinite entry raises
    NonFiniteSignal naming its row and column.
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
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    check_finite(X)
    k_eff = min(k, len(X))
    order = np.argsort(X.T, axis=1) if metric == "cityblock" else None  # restarts share it

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
        centroids, assign, sizes, trace = _lloyd(X, k_eff, metric, rng, order)
        if best is None or trace[-1] < best[3][-1]:
            best = (centroids, assign, sizes, trace)

    centroids, assign, sizes, trace = best
    return Clustering(
        k=k_eff,
        metric=metric,
        centroids=centroids,
        assignments=assign,
        sizes=sizes,
        objective_trace=trace,
    )


def record_seed(global_seed: int, tag: str) -> int:
    """Seed of one tagged task: stable hash of the tag XOR the global seed."""
    return (global_seed ^ zlib.crc32(tag.encode("utf-8"))) & 0xFFFFFFFF

