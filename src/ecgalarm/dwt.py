"""Daubechies db8 wavelet decomposition and the 20-statistic band summary.

The pipeline uses one wavelet at one depth: db8 (8 vanishing moments, 16
taps) over 6 levels. Its low-pass taps are written out below;
tests/test_dwt.py derives them by spectral factorization of the Daubechies
half-band polynomial. Decomposition uses symmetric boundary extension
(expansive: each band keeps ceil((n + taps - 1) / 2) coefficients) and
reconstructs exactly.

Each step runs `_fir`, featurize's one valid-mode FIR path (the detector
filters with it too). It keeps np.convolve's two rules: up to 11 taps,
numpy's own loop, which adds the products in tap order from +0.0, no BLAS;
beyond, np.vecdot of each window with a contiguous reversed copy of the
taps, which sums through OpenBLAS `ddot` (a negative-stride view would sum
in numpy's loop instead, rounding otherwise). `ddot` picks its kernel by CPU.

`band_stats` sorts each band once: the median and the four percentiles
come from that sort, in the float steps of np.median and numpy's `linear`
np.percentile, so no call partitions the band again (nor imports
numpy.ma, as those calls do); a zero percentile between -0.0 and 0.0 is
the one case whose sign may differ. The mean, deviations and second central
moment are computed once and shared by the variance, standard deviation,
mean absolute deviation, skewness and kurtosis. Min and max stay np.min
and np.max: np.sort may leave -0.0 and 0.0 in either order, so the ends of
the sort can carry the wrong sign of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import EmptyBand, SignalTooShort

LEVELS = 6
ENTROPY_EPS = 1e-12
DWT_LAYOUT_VERSION = "dwt-stats-v1"

STAT_NAMES = (
    "mean", "median", "std", "variance", "skewness", "kurtosis", "min", "max",
    "rms", "mean_abs_dev", "iqr", "p5", "p95", "energy", "shannon_entropy",
    "log_energy_entropy", "threshold_count", "zero_crossings", "local_maxima",
    "energy_ratio",
)
N_BAND_STATS = len(STAT_NAMES)
DWT_LENGTH = N_BAND_STATS * LEVELS  # 120

# Orthonormal db8 low-pass decomposition filter (minimal phase) and its
# quadrature mirror; reconstruction uses both reversed.
DEC_LO = np.array([
    0.054415842243104, 0.31287159091429995, 0.67563073629729, 0.5853546836542075,
    -0.015829105256348203, -0.2840155429615464, 0.00047248457391282987,
    0.12874742662047756, -0.01736930100180822, -0.044088253930795095,
    0.013981027917398147, 0.008746094047405747, -0.0048703529934515715,
    -0.0003917403733769465, 0.0006754494064505688, -0.00011747678412476945,
])
DEC_HI = DEC_LO[::-1] * (-1.0) ** np.arange(len(DEC_LO))


@dataclass
class DwtCoeffs:
    details: list[np.ndarray]  # D1 .. D6
    approx: np.ndarray  # final approximation band
    lengths: list[int]  # input length at each level (for reconstruction)


def _fir(x: np.ndarray, kernel: np.ndarray, step: int = 1) -> np.ndarray:
    """np.convolve(x, kernel, "valid")[::step] bit for bit, computing only those
    outputs, by np.convolve's two rules (see the module docstring)."""
    windows = sliding_window_view(x, len(kernel))[::step]
    if len(kernel) > 11:  # np.convolve sums up to 11 taps in its own loop
        return np.vecdot(windows, kernel[::-1].copy())
    return sum(windows[:, j] * tap for j, tap in enumerate(kernel[::-1].tolist()))


def _decompose_step(x: np.ndarray):
    """The even outputs of np.convolve(ext, DEC_LO / DEC_HI, "valid")."""
    ext = np.pad(x, len(DEC_LO) - 1, mode="symmetric")
    return _fir(ext, DEC_LO, 2), _fir(ext, DEC_HI, 2)


def _reconstruct_step(approx: np.ndarray, detail: np.ndarray, out_len: int) -> np.ndarray:
    up = np.zeros((2, 2 * len(approx)))
    up[:, 0::2] = approx, detail
    y = np.convolve(up[0], DEC_LO[::-1]) + np.convolve(up[1], DEC_HI[::-1])
    return y[len(DEC_LO) - 1 :][:out_len]


def dwt(signal: np.ndarray) -> DwtCoeffs:
    """6-level db8 decomposition into detail bands D1..D6 + approx."""
    x = np.asarray(signal, dtype=np.float64)
    if len(x) < 2**LEVELS:
        raise SignalTooShort(f"need at least {2**LEVELS} samples, got {len(x)}")

    details = []
    lengths = []
    for _ in range(LEVELS):
        lengths.append(len(x))
        x, d = _decompose_step(x)
        details.append(d)
    return DwtCoeffs(details, x, lengths)


def idwt(coeffs: DwtCoeffs) -> np.ndarray:
    """Invert `dwt` exactly (up to float rounding)."""
    x = coeffs.approx
    for detail, out_len in zip(reversed(coeffs.details), reversed(coeffs.lengths)):
        x = _reconstruct_step(x, detail, out_len)
    return x


def _central_moments(c: np.ndarray):
    """The mean (as a 1-array), deviations d, their squares and the second
    central moment m2 of c, each computed once in np.var's float steps."""
    mean = np.mean(c, keepdims=True)
    d = c - mean
    sq = d**2
    return mean, d, sq, np.mean(sq)


def _skew_kurtosis(mean, d, sq, m2) -> tuple[float, float]:
    """Biased skewness and excess kurtosis from `_central_moments`, NaN for
    both when the second central moment is within rounding of zero. Each
    moment is taken in the same float steps as the reference that
    tests/test_dwt.py compares against bit for bit, so the band statistics
    keep their pinned digests."""
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return float("nan"), float("nan")
    with np.errstate(all="ignore"):  # a tiny m2 underflows to NaN or inf, quietly
        return float(np.mean(sq * d) / m2**1.5), float(np.mean(sq**2) / m2**2.0 - 3)


# np.percentile's fractions for p25, p75, p5 and p95, divided as it divides.
_QUANTILES = np.true_divide([25, 75, 5, 95], 100)


def _order_stats(s: np.ndarray) -> tuple[float, np.ndarray]:
    """np.median and np.percentile(.., [25, 75, 5, 95]) of the band whose
    ascending sort is s, bit for bit. The median is np.mean of the middle one
    or two, which sums from +0.0. A percentile is numpy's `linear` lerp
    between the neighbours of the virtual index (n - 1) * q, which clamps an
    index at n - 1 by taking the last value twice, at weight index + 1.
    Where -0.0 and 0.0 both neighbour that index, a zero percentile may take
    the other sign than np.percentile's, whose sign then depends on where
    its partition leaves them."""
    n = len(s)
    if n % 2:
        median = s[n // 2] + 0.0
    else:
        median = ((s[n // 2 - 1] + 0.0) + s[n // 2]) / 2.0
    virtual = (n - 1) * _QUANTILES
    below = np.floor(virtual)
    above = below + 1
    clamped = virtual >= n - 1
    below[clamped] = above[clamped] = -1
    a, b = s[below.astype(np.intp)], s[above.astype(np.intp)]
    weight = virtual - below
    diff = b - a
    pct = a + diff * weight
    np.subtract(b, diff * (1 - weight), out=pct, where=weight >= 0.5)
    return float(median), pct


def band_stats(band: np.ndarray, total_energy: float | None = None) -> np.ndarray:
    """The 20 statistical / information-theoretic features of one band.

    `total_energy` feeds the energy-ratio feature; by default the band is
    compared against itself (ratio 1).
    """
    c = np.asarray(band, dtype=np.float64)
    if c.size == 0:
        raise EmptyBand("cannot summarize an empty band")

    sq = c**2
    energy = float(np.sum(sq))
    prob = sq / (energy + ENTROPY_EPS)
    shannon = float(-np.sum(prob * np.log(prob + ENTROPY_EPS)))
    log_energy = float(np.sum(np.log(sq + ENTROPY_EPS)))
    mag = np.abs(c)
    max_abs = float(np.max(mag))
    threshold_count = float(np.sum(mag > 0.2 * max_abs)) if max_abs > 0 else 0.0
    zero_crossings = float(np.sum(c[:-1] * c[1:] < 0))
    if c.size >= 3:
        local_maxima = float(np.sum((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])))
    else:
        local_maxima = 0.0
    moments = _central_moments(c)
    mean, d, _, m2 = moments
    std = float(np.sqrt(m2))
    skew, kurt = _skew_kurtosis(*moments) if std > 0 else (0.0, 0.0)
    if total_energy is None:
        total_energy = energy
    ratio = energy / total_energy if total_energy > 0 else 0.0
    median, (p25, p75, p5, p95) = _order_stats(np.sort(c))

    return np.array(
        [
            float(mean[0]),
            median,
            std,
            float(m2),
            skew,
            kurt,
            float(np.min(c)),
            float(np.max(c)),
            float(np.sqrt(energy / c.size)),
            float(np.mean(np.abs(d))),
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
