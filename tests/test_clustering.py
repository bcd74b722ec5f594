from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ecgalarm.clustering import (
    MAX_ITER,
    METRICS,
    _costs_to_centroids,
    _medians,
    _plusplus_init,
    kmeans,
    record_seed,
)
from ecgalarm.exceptions import EmptyInput, NonFiniteSignal


def brute_force_two_clusters(X, metric):
    """Exhaustive optimum over all 2-partitions (oracle for small N)."""
    n = len(X)
    best = np.inf
    for bits in product([0, 1], repeat=n):
        if len(set(bits)) < 2:
            continue
        cost = 0.0
        for c in (0, 1):
            members = X[np.array(bits) == c]
            if metric == "cityblock":
                center = np.median(members, axis=0)
                cost += np.sum(np.abs(members - center))
            else:
                center = np.mean(members, axis=0)
                cost += np.sum((members - center) ** 2)
        best = min(best, cost)
    return best


def distance(a, b, metric):
    """One point-to-point cost through the (n, k) cost matrix."""
    return _costs_to_centroids(a[None, :], b[None, :], metric)[0, 0]


class TestDistance:
    def test_identity(self):
        a = np.arange(84, dtype=float)
        assert distance(a, a, "cityblock") == 0.0
        assert distance(a, a, "sqeuclidean") == 0.0

    def test_three_four_five(self):
        a = np.array([0.0, 0.0])
        b = np.array([3.0, 4.0])
        assert distance(a, b, "cityblock") == 7.0
        assert distance(a, b, "sqeuclidean") == 25.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            distance(np.zeros(3), np.ones(3), "euclidean")

    def test_cityblock_triangle_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 6))
            assert distance(a, c, "cityblock") <= (
                distance(a, b, "cityblock") + distance(b, c, "cityblock") + 1e-12
            )


class TestKmeansBasics:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 0.05, (15, 4)), rng.normal(10, 0.05, (15, 4))])
        result = kmeans(X, 2, "sqeuclidean", seed=3)
        lows = X[:15].mean(axis=0)
        highs = X[15:].mean(axis=0)
        got = result.centroids[np.argsort(result.centroids[:, 0])]
        np.testing.assert_allclose(got[0], lows, atol=1e-9)
        np.testing.assert_allclose(got[1], highs, atol=1e-9)

    def test_cityblock_median_on_three_points(self):
        # Oracle: exhaustive over the 3 possible 2-partitions of {0, 1, 100}.
        X = np.array([[0.0], [1.0], [100.0]])
        assert brute_force_two_clusters(X, "cityblock") == 1.0
        result = kmeans(X, 2, "cityblock", seed=0, restarts=10)
        assert result.objective == pytest.approx(1.0, abs=1e-12)
        sizes = sorted(result.sizes)
        assert sizes == [1, 2]
        assert sorted(result.centroids[:, 0]) == [0.5, 100.0]

    def test_fewer_points_than_k(self):
        X = np.array([[0.0], [5.0], [9.0]])
        result = kmeans(X, 5, "sqeuclidean", seed=0)
        assert result.k == 3
        assert sorted(result.sizes) == [1, 1, 1]
        assert result.objective == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            kmeans(np.empty((0, 4)), 3, "cityblock", seed=0)

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            kmeans(np.zeros((4, 2)), 2, "cityblock", restarts=0)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, metric, bad):
        X = np.arange(40.0).reshape(10, 4)
        X[6, 2] = bad
        X[8, 0] = np.nan
        with pytest.raises(NonFiniteSignal, match=f"row 6, column 2 is {bad}"):
            kmeans(X, 3, metric, seed=1)

    def test_sizes_sum_and_nonempty(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 84))
        for metric in ("cityblock", "sqeuclidean"):
            result = kmeans(X, 5, metric, seed=9)
            assert result.sizes.sum() == 40
            assert np.all(result.sizes >= 1)
            assert len(result.assignments) == 40
            assert np.all(result.assignments < result.k)



class TestPlusPlusInit:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_zero_cost_fallback_draws_as_setdiff1d(self, seed, k):
        # Every squared distance between these distinct rows underflows to
        # 0.0, so each pick after the first takes the zero-cost fallback: a
        # uniform draw from the points not chosen yet, listed ascending as
        # np.setdiff1d lists them.
        n = 9
        X = np.arange(1.0, n + 1)[:, None] * 1e-170
        rng = np.random.default_rng(seed)
        chosen = [int(rng.integers(n))]
        while len(chosen) < k:
            chosen.append(int(rng.choice(np.setdiff1d(np.arange(n), chosen))))
        got, _ = _plusplus_init(X, k, "sqeuclidean", np.random.default_rng(seed))
        np.testing.assert_array_equal(got, X[chosen])


class TestKmeansProperties:
    def test_objective_non_increasing_100_instances(self):
        for s in range(100):
            rng = np.random.default_rng(s)
            X = rng.normal(size=(25, 5))
            metric = "cityblock" if s % 2 else "sqeuclidean"
            trace = kmeans(X, 4, metric, seed=s).objective_trace
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-9), f"instance {s}: objective increased"

    @pytest.mark.parametrize("metric", METRICS)
    def test_power_of_two_scale(self, metric):
        # 4X scales every cost by 4 or 16, exactly, so k-means++ draws with
        # the same probabilities, Lloyd makes the same choices and the
        # centroids (medians or means) come out exactly 4 times larger.
        for seed in range(8):
            X = np.random.default_rng(seed).normal(size=(300, 12))
            base, scaled = kmeans(X, 5, metric, seed=seed), kmeans(4.0 * X, 5, metric, seed=seed)
            assert scaled.assignments.tolist() == base.assignments.tolist()
            assert scaled.centroids.tobytes() == (4.0 * base.centroids).tobytes()
            power = 1.0 if metric == "cityblock" else 2.0
            assert scaled.objective_trace == [4.0**power * c for c in base.objective_trace]

    def test_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 6))
        a = kmeans(X, 4, "cityblock", seed=42)
        b = kmeans(X, 4, "cityblock", seed=42)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_brute_force_equivalence_small_instances(self):
        matches = 0
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            n = int(rng.integers(4, 9))
            X = rng.normal(size=(n, 2))
            metric = "cityblock" if s % 2 else "sqeuclidean"
            optimum = brute_force_two_clusters(X, metric)
            got = kmeans(X, 2, metric, seed=s, restarts=10).objective
            assert got >= optimum - 1e-9  # can never beat the optimum
            if got <= optimum + 1e-9:
                matches += 1
        assert matches >= 95

    def test_row_permutation_consistency(self):
        # On unambiguous data, permuting rows (with seeded init applied to the
        # permuted order) permutes assignments and leaves the multiset of
        # (centroid, size) pairs unchanged.
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(c, 0.05, (8, 3)) for c in (0.0, 10.0, 20.0)])
        perm = rng.permutation(len(X))
        a = kmeans(X, 3, "sqeuclidean", seed=5)
        b = kmeans(X[perm], 3, "sqeuclidean", seed=5)

        def partition(assignments, row_ids):
            groups = {}
            for row, cluster in zip(row_ids, assignments):
                groups.setdefault(cluster, set()).add(row)
            return {frozenset(g) for g in groups.values()}

        assert partition(a.assignments, range(len(X))) == partition(
            b.assignments, perm
        )
        pairs_a = sorted((s, tuple(np.round(c, 9))) for s, c in zip(a.sizes, a.centroids))
        pairs_b = sorted((s, tuple(np.round(c, 9))) for s, c in zip(b.sizes, b.centroids))
        assert pairs_a == pairs_b


def reference_costs(X, centroids, metric):
    """(n, k) point costs from one (n, k, d) broadcast of the differences."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.sum(np.abs(diff) if metric == "cityblock" else diff**2, axis=2)


def reference_lloyd(X, k, metric, seed):
    """Textbook Lloyd loop: a fresh cost matrix for every assignment and
    another for every objective, the same seeding and repair rule, costs
    from `reference_costs` and medians over the members' rows."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0])
    centroids, _ = _plusplus_init(X, k, metric, rng)
    rows = np.arange(len(X))
    prev, trace = None, []
    for _ in range(MAX_ITER):
        costs = reference_costs(X, centroids, metric)
        assign = np.argmin(costs, axis=1)
        for empty in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            donors = np.flatnonzero((np.bincount(assign, minlength=k) > 1)[assign])
            far = donors[int(np.argmax(costs[donors, assign[donors]]))]
            assign[far] = empty
            costs[far, empty] = 0.0
        for c in range(k):
            if np.any(assign == c):
                members = X[assign == c]
                centroids[c] = (np.median if metric == "cityblock" else np.mean)(members, axis=0)
        trace.append(float(reference_costs(X, centroids, metric)[rows, assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
    return centroids, assign, trace


point_sets = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
                    elements=st.floats(-100.0, 100.0, allow_nan=False))


class TestCostsToCentroids:
    @given(X=point_sets, k=st.integers(1, 6), metric=st.sampled_from(METRICS), data=st.data())
    def test_equals_broadcast(self, X, k, metric, data):
        centroids = data.draw(arrays(np.float64, (k, X.shape[1]),
                                     elements=st.floats(-100.0, 100.0, allow_nan=False)))
        want = reference_costs(X, centroids, metric)
        assert _costs_to_centroids(X, centroids, metric).tobytes() == want.tobytes()
        out = np.full((len(X), k), np.nan)
        assert _costs_to_centroids(X, centroids, metric, out=out) is out
        assert out.tobytes() == want.tobytes()

    @given(X=point_sets, k=st.integers(1, 6), metric=st.sampled_from(METRICS),
           seed=st.integers(0, 2**32 - 1))
    @example(X=np.full((7, 3), 2.5), k=6, metric="cityblock", seed=1)
    @example(X=np.full((7, 3), 2.5), k=6, metric="sqeuclidean", seed=2)
    def test_seeding_cost_matrix_equals_costs_to_seeds(self, X, k, metric, seed):
        # Lloyd starts from this matrix, column j for seed j, and does not
        # compute it again. All-identical points take the zero-cost fallback.
        seeds, costs = _plusplus_init(X, min(k, len(X)), metric, np.random.default_rng(seed))
        assert costs.tobytes() == _costs_to_centroids(X, seeds, metric).tobytes()


# Coordinates on a coarse grid: ties, both zeros, subnormals and values whose
# sum is far from overflow but whose bits differ from any small number's.
GRID = [0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 2.5, 3.0, 5e-324, -5e-324, 7e300, -7e300]


@st.composite
def _points_labels_clusters(draw):
    """Points on GRID, a label per point below k <= 130, so the labels cross
    the int8 range and many of the k clusters are empty or singletons, and a
    nonempty subset of the nonempty clusters, as Lloyd passes only the moved
    ones."""
    X = draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
                    elements=st.sampled_from(GRID)))
    k = draw(st.integers(1, 130))
    assign = draw(arrays(np.int64, len(X), elements=st.integers(0, k - 1)))
    nonempty = np.flatnonzero(np.bincount(assign, minlength=k))
    keep = draw(arrays(np.bool_, len(nonempty)).filter(np.any))
    return X, assign, k, nonempty[keep]


@pytest.mark.pins_numpy_simd
class TestMedians:
    @settings(max_examples=300)
    @given(_points_labels_clusters())
    @example((np.array([[7e300], [7e300], [-0.0], [-0.0]]), np.array([0, 0, 1, 1]), 2,
              np.array([0, 1])))
    @example((np.array(GRID * 3).reshape(-1, 2), np.arange(18) % 3 * 64, 130, np.array([64])))
    # Sizes 3, 1, 0 and 2: a singleton and an even-sized cluster, after one
    # left out and an empty one.
    @example((np.array(GRID).reshape(-1, 2), np.array([0, 3, 0, 1, 3, 0]), 4, np.array([1, 3])))
    def test_equal_np_median_per_cluster(self, case):
        X, assign, k, clusters = case
        got = _medians(X, np.argsort(X.T, axis=1), assign, clusters, k)
        want = np.array([np.median(X[assign == c], axis=0) for c in clusters])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("metric", METRICS)
    def test_kmeans_past_int8_labels_matches_reference(self, metric):
        X = np.random.default_rng(4).integers(-40, 40, (300, 3)) / 4.0
        result = kmeans(X, 140, metric, seed=11)
        centroids, assign, trace = reference_lloyd(X, 140, metric, 11)
        assert result.assignments.max() >= 128
        assert result.objective_trace == trace
        np.testing.assert_array_equal(result.assignments, assign)
        assert result.centroids.tobytes() == centroids.tobytes()


@pytest.mark.pins_numpy_simd
class TestLloydTraceProperty:
    """Each Lloyd iteration's objective comes from the cost matrix that also
    drives the next assignment; it must still be the true cost of the
    returned clustering and never rise."""

    @given(X=point_sets, k=st.integers(1, 6), metric=st.sampled_from(METRICS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_lloyd(self, X, k, metric, seed):
        result = kmeans(X, k, metric, seed=seed)
        centroids, assign, trace = reference_lloyd(X, min(k, len(X)), metric, seed)
        assert result.objective_trace == trace
        np.testing.assert_array_equal(result.assignments, assign)
        np.testing.assert_array_equal(result.centroids, centroids)

    @given(X=point_sets, k=st.integers(1, 6), metric=st.sampled_from(METRICS),
           seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 2))
    def test_trace_non_increasing_and_last_is_true_cost(self, X, k, metric, seed, restarts):
        result = kmeans(X, k, metric, seed=seed, restarts=restarts)
        trace = np.array(result.objective_trace)
        scale = max(1.0, trace[0])
        assert np.all(np.diff(trace) <= 1e-9 * scale)
        diff = X - result.centroids[result.assignments]
        cost = np.abs(diff).sum() if metric == "cityblock" else (diff**2).sum()
        assert trace[-1] == pytest.approx(cost, rel=1e-9, abs=1e-9 * scale)


class TestRecordSeed:
    def test_stable_and_distinct(self):
        assert record_seed(7, "a103l") == record_seed(7, "a103l")
        assert record_seed(7, "a103l") != record_seed(8, "a103l")
        assert record_seed(7, "a103l") != record_seed(7, "a104l")

