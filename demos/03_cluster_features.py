"""Walkthrough: per-patient k-means and the 31-entry high-level vector.

Clusters one record's segments under both distance metrics and shows how
cluster sizes, centroid ratios, and pairwise centroid distances become the
patient-level feature vector fed to the classifier.
"""

import numpy as np

from ecgalarm.clustering import kmeans, record_seed
from ecgalarm.feature_synthesis import HLF_CLUSTERS, synthesize
from ecgalarm.segment_features import heart_rate, segment_features
from ecgalarm.segmentation import segment_record
from ecgalarm.synthetic import synthetic_ecg

# A record whose rhythm changes midway: the two regimes should land in
# different clusters, which is exactly what the high-level features encode.
first = synthetic_ecg(duration_s=150, bpm=70, snr_db=20, seed=1)
second = synthetic_ecg(duration_s=150, bpm=150, snr_db=20, seed=2)
samples = np.concatenate([first.samples, second.samples])

marks = segment_record(samples)
matrix = segment_features(marks)
hr = heart_rate(marks)
print(f"{matrix.shape[0]} segments, mean heart rate {hr:.0f} bpm\n")

for metric in ("cityblock", "sqeuclidean"):
    clustering = kmeans(matrix, k=HLF_CLUSTERS, metric=metric, seed=record_seed(0, "demo"))
    print(f"k-means ({metric}): sizes = {sorted(clustering.sizes.tolist())}, "
          f"objective = {clustering.objective:.1f}")

clustering = kmeans(matrix, k=HLF_CLUSTERS, metric="cityblock", seed=record_seed(0, "demo"))
vec = synthesize(clustering, hr, "VTA")

print("\nhigh-level vector (31 entries):")
print(f"  [0]     heart rate          {vec[0]:.1f}")
print(f"  [1:6]   alarm one-hot       {vec[1:6].astype(int).tolist()}  (ASY EBR ETC VTA VFB)")
print(f"  [6:11]  sizes ascending     {vec[6:11].astype(int).tolist()}")
print(f"  [11:16] centroid-sum/size   {np.round(vec[11:16], 3).tolist()}")
print(f"  [16:21] centroid-sum/total  {np.round(vec[16:21], 3).tolist()}")
print(f"  [21:31] centroid distances  {np.round(vec[21:31], 2).tolist()}")
