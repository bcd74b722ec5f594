"""Walkthrough: the 84 per-segment features and the 588-entry tail vector.

Shows the canonical column layout, a few named features on real segmented
beats, and how the last-7-segments baseline vector is assembled.
"""

import numpy as np

from ecgalarm.segment_features import (
    FEATURE_NAMES,
    heart_rate,
    llf_tail,
    segment_features,
)
from ecgalarm.segmentation import segment_record
from ecgalarm.synthetic import synthetic_ecg

ecg = synthetic_ecg(duration_s=120, bpm=66, snr_db=22, seed=7)
marks = segment_record(ecg.samples)  # (N, 7, 2) landmark array
matrix = segment_features(marks)

print(f"{len(marks)} beats -> {matrix.shape[0]} usable segments x {matrix.shape[1]} features")
print("(the last two beats have no next / next-but-one partner and are excluded)\n")

print("column layout:")
print(f"  [ 0:14]  landmark (x, y) pairs, x relative to Q: {FEATURE_NAMES[0]} .. {FEATURE_NAMES[13]}")
print(f"  [14:35]  within-segment x-intervals:  {FEATURE_NAMES[14]} .. {FEATURE_NAMES[34]}")
print(f"  [35:56]  within-segment y-differences: {FEATURE_NAMES[35]} .. {FEATURE_NAMES[55]}")
print(f"  [56:63]  next-segment intervals:      {FEATURE_NAMES[56]} .. {FEATURE_NAMES[62]}")
print(f"  [63:70]  next-segment amplitudes:     {FEATURE_NAMES[63]} .. {FEATURE_NAMES[69]}")
print(f"  [70:77]  next-but-one intervals:      {FEATURE_NAMES[70]} .. {FEATURE_NAMES[76]}")
print(f"  [77:84]  next-but-one amplitudes:     {FEATURE_NAMES[77]} .. {FEATURE_NAMES[83]}\n")

row = matrix[0]
for name in ("Px", "Qx", "Rx", "OnQRS_x", "RR_interval", "RR2_interval", "R-R_amplitude"):
    print(f"  {name:15s} = {row[FEATURE_NAMES.index(name)]:+.3f}")

print(f"\nheart rate: {heart_rate(marks):.1f} bpm")

vec = llf_tail(matrix)
print(f"tail vector: last 7 segments concatenated -> {len(vec)} entries")
print(f"  nonzero entries: {np.count_nonzero(vec)} (zero-padded when fewer than 7 segments exist)")
