import numpy as np
import pytest

from ecgalarm.clustering import Clustering, kmeans
from ecgalarm.feature_synthesis import (
    HLF_LENGTH,
    normalize_centroid,
    synthesize,
)
from ecgalarm.record_io import ALARM_TYPES


def make_clustering(centroids, sizes, metric="cityblock"):
    centroids = np.asarray(centroids, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=int)
    assignments = np.repeat(np.arange(len(sizes)), sizes)
    return Clustering(
        k=len(sizes),
        metric=metric,
        centroids=centroids,
        assignments=assignments,
        sizes=sizes,
        objective_trace=[0.0],
    )


class TestNormalizeCentroid:
    def test_minmax_example(self):
        c = np.full(84, 1.0)
        c[0] = -2.0
        c[1] = 6.0
        c[2] = 2.0
        out = normalize_centroid(c)
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert out[2] == pytest.approx(0.5)

    def test_constant_centroid_all_zero(self):
        np.testing.assert_array_equal(normalize_centroid(np.full(84, 3.7)), np.zeros(84))

    def test_output_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = normalize_centroid(rng.normal(size=84))
            assert out.min() == 0.0
            assert out.max() == 1.0


class TestSynthesize:
    def test_length_is_31(self):
        vec = synthesize(None, 72.0, "ASY")
        assert len(vec) == HLF_LENGTH == 31

    def test_alarm_one_hot(self):
        for i, alarm in enumerate(ALARM_TYPES):
            vec = synthesize(None, 60.0, alarm)
            one_hot = vec[1:6]
            assert one_hot.sum() == 1.0
            assert one_hot[i] == 1.0

    def test_sizes_sorted_ascending(self):
        rng = np.random.default_rng(1)
        clustering = make_clustering(rng.normal(size=(5, 84)), [100, 10, 40, 20, 30])
        vec = synthesize(clustering, 80.0, "VTA")
        np.testing.assert_array_equal(vec[6:11], [10, 20, 30, 40, 100])

    def test_ratio_formulas(self):
        # One cluster whose normalized centroid sums to 42, size 42 of 84 total.
        centroids = np.zeros((2, 84))
        centroids[0, :42] = 1.0  # after min-max: 42 ones -> sum 42
        centroids[1, :21] = 1.0  # sum 21
        clustering = make_clustering(centroids, [42, 42])
        vec = synthesize(clustering, 70.0, "EBR")
        # Tie on size: sorted by normalized sum -> cluster 1 (21) first.
        assert vec[6 + 3] == 42 and vec[6 + 4] == 42
        assert vec[11 + 4] == pytest.approx(1.0)  # 42 / 42
        assert vec[16 + 4] == pytest.approx(0.5)  # 42 / 84

    def test_zero_segment_padding(self):
        vec = synthesize(None, 0.0, "ASY")
        expected = np.zeros(31)
        expected[1] = 1.0
        np.testing.assert_array_equal(vec, expected)

    def test_partial_clusters_padded_first(self):
        clustering = make_clustering(np.random.default_rng(2).normal(size=(2, 84)), [3, 9])
        vec = synthesize(clustering, 66.0, "ETC")
        np.testing.assert_array_equal(vec[6:9], [0, 0, 0])
        np.testing.assert_array_equal(vec[6:11][3:], [3, 9])
        # distances among missing clusters are zero
        assert np.all(vec[21 : 21 + 9] == 0.0)  # pairs touching slots 0-2
        assert vec[30] > 0  # pair (3,4) = the two real clusters

    def test_sizes_block_sums_to_segments(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(57, 84))
        clustering = kmeans(X, 5, "cityblock", seed=1)
        vec = synthesize(clustering, 75.0, "VFB")
        assert vec[6:11].sum() == 57
        assert np.all(np.diff(vec[6:11]) >= 0)

    def test_ratio_bounds(self):
        rng = np.random.default_rng(4)
        clustering = kmeans(rng.normal(size=(40, 84)), 5, "sqeuclidean", seed=2)
        vec = synthesize(clustering, 75.0, "ASY")
        assert np.all(vec[11:21] >= 0.0)
        assert np.all(vec[11:21] <= 84.0)

    def test_pairwise_distance_block_consistency(self):
        rng = np.random.default_rng(5)
        clustering = kmeans(rng.normal(size=(30, 84)), 5, "cityblock", seed=3)
        vec = synthesize(clustering, 60.0, "EBR")

        normalized = np.array([normalize_centroid(c) for c in clustering.centroids])
        sums = normalized.sum(axis=1)
        order = np.lexsort((np.arange(5), sums, clustering.sizes))
        normalized = normalized[order]
        slot = 21
        for i in range(5):
            for j in range(i + 1, 5):
                expected = np.sum(np.abs(normalized[i] - normalized[j]))  # L1
                assert vec[slot] == expected
                slot += 1

    def test_too_many_clusters_rejected(self):
        clustering = make_clustering(np.zeros((7, 84)), [1] * 7)
        with pytest.raises(ValueError):
            synthesize(clustering, 60.0, "ASY")

    def test_cluster_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        centroids = rng.normal(size=(5, 84))
        sizes = [5, 10, 15, 20, 25]
        a = synthesize(make_clustering(centroids, sizes), 70.0, "VTA")
        perm = [3, 0, 4, 1, 2]
        b = synthesize(
            make_clustering(centroids[perm], [sizes[i] for i in perm]), 70.0, "VTA"
        )
        np.testing.assert_array_equal(a, b)
