"""Walkthrough: R-peak detection and P/Q/S/T delineation on synthetic ECG.

Generates a noisy synthetic lead with known landmark positions, runs the
detector and delineator, and reports the landmark errors against ground
truth. Run with:  python demos/01_detect_and_delineate.py
"""

import numpy as np

from ecgalarm.segmentation import LANDMARKS, delineate, detect_r_peaks
from ecgalarm.synthetic import synthetic_ecg

FS = 250.0

# ----- build a 60 s recording at 72 bpm with 20 dB SNR -----
ecg = synthetic_ecg(duration_s=60, bpm=72, snr_db=20, seed=42)
print(f"signal: {len(ecg.samples)} samples at {FS:g} Hz, {len(ecg.r_locations)} true beats")

# ----- detect R-peaks -----
peaks = detect_r_peaks(ecg.samples)
print(f"detected {len(peaks)} R-peaks")

errors = [np.min(np.abs(peaks - t)) for t in ecg.r_locations]
print(f"worst R localization error: {max(errors)} samples ({max(errors) * 1000 / FS:.0f} ms)")

# ----- delineate the full beat -----
marks = delineate(ecg.samples, peaks)  # (N, 7, 2): (x, y) per landmark
print(f"delineated {len(marks)} beats (edge beats without a full P or T window are dropped)")

R = LANDMARKS.index("R")
beat = marks[len(marks) // 2]
r_x = beat[R, 0]
print("\none beat, offsets from R in samples (and mV):")
for name, (x, y) in zip(LANDMARKS, beat):
    print(f"  {name:7s} x = {x - r_x:+4.0f}   y = {y:+.3f}")

# ----- landmark accuracy against the generator's ground truth -----
print("\nmean |error| per landmark (ms):")
nearest = [int(np.argmin(np.abs(ecg.landmarks["R"] - r))) for r in marks[:, R, 0]]
for j, wave in enumerate(LANDMARKS[:5]):  # P, Q, R, S, T
    errs = np.abs(marks[:, j, 0] - ecg.landmarks[wave][nearest])
    print(f"  {wave}: {np.mean(errs) * 1000 / FS:.1f}")
