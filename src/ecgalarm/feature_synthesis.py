"""Patient-level high-level feature vector built from the segment clustering.

Fixed 31-entry layout:

    [0]      heart rate (bpm)
    [1:6]    alarm type one-hot (ASY, EBR, ETC, VTA, VFB)
    [6:11]   cluster sizes, ascending
    [11:16]  sum of normalized centroid entries / cluster size
    [16:21]  sum of normalized centroid entries / total segment count
    [21:31]  pairwise distances between normalized centroids, lexicographic
             pairs over the size-sorted clusters, under the clustering metric

Clusters are canonicalized by ascending size (ties: ascending normalized
centroid sum, then original index). Records with fewer than five clusters
pad the missing ones with zeros in every block.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .clustering import Clustering, _costs_to_centroids
from .record_io import ALARM_TYPES

HLF_LENGTH = 31
HLF_CLUSTERS = 5
HLF_LAYOUT_VERSION = "hlf-v1"
# HLF feature bank -> the k-means metric of the clustering that fills it.
HLF_METRICS = {"hlf_cityblock": "cityblock", "hlf_euclidean": "sqeuclidean"}


def normalize_centroid(centroid: np.ndarray) -> np.ndarray:
    """Min-max scale a centroid's entries into [0, 1]; constant input -> zeros."""
    centroid = np.asarray(centroid, dtype=np.float64)
    lo = centroid.min()
    hi = centroid.max()
    if hi == lo:
        return np.zeros_like(centroid)
    return (centroid - lo) / (hi - lo)


def synthesize(
    clustering: Clustering | None,
    hr: float,
    alarm_type: str,
) -> np.ndarray:
    """Assemble the 31-entry high-level feature vector for one patient."""
    values = np.zeros(HLF_LENGTH, dtype=np.float64)
    values[0] = hr
    values[1 + ALARM_TYPES.index(alarm_type)] = 1.0

    if clustering is None:
        return values
    if clustering.k > HLF_CLUSTERS:
        raise ValueError(
            f"vector layout holds {HLF_CLUSTERS} clusters, clustering has {clustering.k}"
        )

    normalized = np.array([normalize_centroid(c) for c in clustering.centroids])
    norm_sums = normalized.sum(axis=1)
    sizes = np.asarray(clustering.sizes, dtype=np.float64)

    # Ascending size; ties broken by normalized sum, then original index.
    order = np.lexsort((np.arange(clustering.k), norm_sums, sizes))
    sizes = sizes[order]
    norm_sums = norm_sums[order]
    normalized = normalized[order]

    total = sizes.sum()
    pad = HLF_CLUSTERS - clustering.k  # missing clusters sort first (size 0)

    values[6 + pad : 6 + HLF_CLUSTERS] = sizes
    values[11 + pad : 11 + HLF_CLUSTERS] = norm_sums / sizes
    values[16 + pad : 16 + HLF_CLUSTERS] = norm_sums / total

    costs = _costs_to_centroids(normalized, normalized, clustering.metric)
    for slot, (i, j) in enumerate(combinations(range(HLF_CLUSTERS), 2)):
        if i >= pad:  # then j > i is present too
            values[21 + slot] = costs[i - pad, j - pad]
    return values
