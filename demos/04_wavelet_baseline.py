"""Walkthrough: the 6-level db8 wavelet baseline (120 features).

Decomposes a 5-minute synthetic lead, verifies the transform round-trips,
and prints the per-band statistics that make up the baseline feature bank.
"""

import numpy as np

from ecgalarm.dwt import STAT_NAMES, band_stats, dwt, dwt_feature_vector, idwt
from ecgalarm.synthetic import synthetic_ecg

ecg = synthetic_ecg(duration_s=300, bpm=80, snr_db=18, seed=3)
x = ecg.samples
print(f"signal: {len(x)} samples")

coeffs = dwt(x)
print("\nband sizes (expansive transform, symmetric extension):")
for i, band in enumerate(coeffs.details, start=1):
    hz_hi = 250 / 2**i
    hz_lo = 250 / 2 ** (i + 1)
    print(f"  D{i}: {len(band):6d} coefficients  (~{hz_lo:5.1f}-{hz_hi:5.1f} Hz)")
print(f"  A6: {len(coeffs.approx):6d} coefficients")

err = np.max(np.abs(idwt(coeffs) - x))
print(f"\nround-trip max error: {err:.2e}")

total_energy = sum(float(np.sum(d**2)) for d in coeffs.details)
print("\nper-band statistics (D4 shown):")
stats = band_stats(coeffs.details[3], total_energy=total_energy)
for name, value in zip(STAT_NAMES, stats):
    print(f"  {name:20s} {value:+.4g}")

vec = dwt_feature_vector(x)
print(f"\nfull baseline vector: {len(vec)} entries (20 stats x 6 detail bands)")
