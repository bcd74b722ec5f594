"""Daubechies wavelet decomposition and the 20-statistic band summary.

The analysis/synthesis filter pair is built by spectral factorization of the
Daubechies half-band polynomial, so any number of vanishing moments works;
the pipeline uses db8 (8 vanishing moments, 16 taps). Decomposition uses
symmetric boundary extension (expansive: each band keeps
ceil((n + taps - 1) / 2) coefficients) and reconstructs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .exceptions import EmptyBand, SignalTooShort

DEFAULT_LEVELS = 6
DEFAULT_VANISHING_MOMENTS = 8
ENTROPY_EPS = 1e-12
DWT_LAYOUT_VERSION = "dwt-stats-v1"

STAT_NAMES = (
    "mean", "median", "std", "variance", "skewness", "kurtosis", "min", "max",
    "rms", "mean_abs_dev", "iqr", "p5", "p95", "energy", "shannon_entropy",
    "log_energy_entropy", "threshold_count", "zero_crossings", "local_maxima",
    "energy_ratio",
)
N_BAND_STATS = len(STAT_NAMES)
DWT_LENGTH = N_BAND_STATS * DEFAULT_LEVELS  # 120


@lru_cache(maxsize=None)
def daubechies_filter(p: int) -> np.ndarray:
    """Orthonormal Daubechies low-pass decomposition filter with p vanishing
    moments (2p taps), via spectral factorization of the binomial half-band
    polynomial; minimal-phase root selection."""
    if p == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    poly_y = [comb(p - 1 + k, k) for k in range(p - 1, -1, -1)]
    roots_y = np.roots(poly_y)

    roots_z = []
    for y in roots_y:
        # y = (2 - z - 1/z) / 4  =>  z^2 - (2 - 4y) z + 1 = 0
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                roots_z.append(z)
    # (1 + z)^p factor contributes the vanishing moments.
    h = np.real(np.poly(list(roots_z) + [-1.0] * p))
    h *= np.sqrt(2.0) / h.sum()
    return h


def _filter_bank() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    dec_lo = daubechies_filter(DEFAULT_VANISHING_MOMENTS)
    n = len(dec_lo)
    dec_hi = np.array([(-1) ** k * dec_lo[n - 1 - k] for k in range(n)])
    return dec_lo, dec_hi, dec_lo[::-1], dec_hi[::-1]


@dataclass
class DwtCoeffs:
    details: list[np.ndarray]  # D1 .. Dlevels
    approx: np.ndarray  # final approximation band
    lengths: list[int]  # input length at each level (for reconstruction)


def _decompose_step(x: np.ndarray, dec_lo: np.ndarray, dec_hi: np.ndarray):
    ext = np.pad(x, len(dec_lo) - 1, mode="symmetric")
    approx = np.convolve(ext, dec_lo, mode="valid")[0::2]
    detail = np.convolve(ext, dec_hi, mode="valid")[0::2]
    return approx, detail


def _reconstruct_step(
    approx: np.ndarray,
    detail: np.ndarray,
    out_len: int,
    rec_lo: np.ndarray,
    rec_hi: np.ndarray,
) -> np.ndarray:
    taps = len(rec_lo)
    up_a = np.zeros(2 * len(approx))
    up_a[0::2] = approx
    up_d = np.zeros(2 * len(detail))
    up_d[0::2] = detail
    y = np.convolve(up_a, rec_lo, mode="full") + np.convolve(up_d, rec_hi, mode="full")
    return y[taps - 1 : taps - 1 + out_len]


def dwt(signal: np.ndarray, levels: int = DEFAULT_LEVELS) -> DwtCoeffs:
    """Multi-level db8 decomposition into detail bands D1..Dlevels + approx."""
    x = np.asarray(signal, dtype=np.float64)
    if len(x) < 2**levels:
        raise SignalTooShort(f"need at least {2**levels} samples, got {len(x)}")
    dec_lo, dec_hi, _, _ = _filter_bank()

    details = []
    lengths = []
    for _ in range(levels):
        lengths.append(len(x))
        x, d = _decompose_step(x, dec_lo, dec_hi)
        details.append(d)
    return DwtCoeffs(details, x, lengths)


def idwt(coeffs: DwtCoeffs) -> np.ndarray:
    """Invert `dwt` exactly (up to float rounding)."""
    _, _, rec_lo, rec_hi = _filter_bank()
    x = coeffs.approx
    for detail, out_len in zip(reversed(coeffs.details), reversed(coeffs.lengths)):
        x = _reconstruct_step(x, detail, out_len, rec_lo, rec_hi)
    return x


def _skew_kurtosis(c: np.ndarray) -> tuple[float, float]:
    """Biased skewness and excess kurtosis of c, NaN for both when its second
    central moment is within rounding of zero. Each moment is taken in the same
    float steps as the reference that tests/test_dwt.py compares against
    bit for bit, so the band statistics keep their pinned digests."""
    mean = np.mean(c, keepdims=True)
    d = c - mean
    sq = d**2
    m2 = np.mean(sq)
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return float("nan"), float("nan")
    with np.errstate(all="ignore"):  # a tiny m2 underflows to NaN or inf, quietly
        return float(np.mean(sq * d) / m2**1.5), float(np.mean(sq**2) / m2**2.0 - 3)


def band_stats(band: np.ndarray, total_energy: float | None = None) -> np.ndarray:
    """The 20 statistical / information-theoretic features of one band.

    `total_energy` feeds the energy-ratio feature; by default the band is
    compared against itself (ratio 1).
    """
    c = np.asarray(band, dtype=np.float64)
    if c.size == 0:
        raise EmptyBand("cannot summarize an empty band")

    energy = float(np.sum(c**2))
    sq = c**2
    prob = sq / (energy + ENTROPY_EPS)
    shannon = float(-np.sum(prob * np.log(prob + ENTROPY_EPS)))
    log_energy = float(np.sum(np.log(sq + ENTROPY_EPS)))
    max_abs = float(np.max(np.abs(c)))
    threshold_count = float(np.sum(np.abs(c) > 0.2 * max_abs)) if max_abs > 0 else 0.0
    zero_crossings = float(np.sum(c[:-1] * c[1:] < 0))
    if c.size >= 3:
        local_maxima = float(np.sum((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])))
    else:
        local_maxima = 0.0
    std = float(np.std(c))
    skew, kurt = _skew_kurtosis(c) if std > 0 else (0.0, 0.0)
    if total_energy is None:
        total_energy = energy
    ratio = energy / total_energy if total_energy > 0 else 0.0
    p25, p75, p5, p95 = np.percentile(c, [25, 75, 5, 95])

    return np.array(
        [
            float(np.mean(c)),
            float(np.median(c)),
            std,
            float(np.var(c)),
            skew,
            kurt,
            float(np.min(c)),
            float(np.max(c)),
            float(np.sqrt(np.mean(sq))),
            float(np.mean(np.abs(c - np.mean(c)))),
            float(p75 - p25), float(p5), float(p95),  # iqr, p5, p95
            energy,
            shannon,
            log_energy,
            threshold_count,
            zero_crossings,
            local_maxima,
            float(ratio),
        ]
    )


def dwt_feature_vector(signal: np.ndarray) -> np.ndarray:
    """120-entry baseline vector: 20 stats per detail band, D1 first."""
    coeffs = dwt(signal)
    total = float(sum(np.sum(d**2) for d in coeffs.details))
    return np.concatenate([band_stats(d, total_energy=total) for d in coeffs.details])
