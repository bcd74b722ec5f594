"""R-peak detection (Pan-Tompkins) and P/Q/S/T delineation at 250 Hz.

The detector follows the classic recipe: bandpass, five-point derivative,
squaring, 150 ms moving-window integration, adaptive signal/noise thresholds
on both the integrated and the filtered streams, a 200 ms refractory, T-wave
slope rejection, and 1.66xRR search-back. Filter recursions are the original
integer ones with delays rescaled from 200 Hz to 250 Hz; all group delays
are compensated so detected indices line up with the raw signal. The
candidate scan keeps its four signal and noise levels as plain floats, so
the noise path, taken by most local maxima, calls no function.

Delineation places Q/S at the signal minima and P/T at the maxima inside
fixed windows around each R, clipped to record bounds and to midpoints
between neighbouring R-peaks. It delineates all beats at once: one masked
(beats, window) gather per landmark, with +inf past each window's end, so
argmin picks the first of equal extremes, as a slice per beat would.
Landmark amplitudes are read from the raw (unfiltered) signal so downstream
morphology features stay physical.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError, EmptySignal

REFRACTORY_SAMPLES = 50  # 200 ms at 250 Hz
INTEGRATION_WINDOW = 38  # 150 ms at 250 Hz
SEARCHBACK_FACTOR = 1.66

# Delineation windows in ms relative to R.
Q_WINDOW_MS = 60.0
P_WINDOW_MS = 240.0
S_WINDOW_MS = 60.0
T_MIN_MS = 80.0
T_MAX_MS = 400.0

LANDMARKS = ("P", "Q", "R", "S", "T", "OnQRS", "OffQRS")


def _bandpass_kernel() -> tuple[np.ndarray, int]:
    """FIR bandpass kernel (~5-15 Hz at 250 Hz) and its group delay."""
    # Low-pass: (moving sum of 8)^2 -> triangular FIR, delay 7, gain 64.
    lp = np.convolve(np.ones(8), np.ones(8)) / 64.0
    # High-pass: 20-sample delay minus 40-wide moving average, delay ~20.
    hp = np.full(40, -1.0 / 40.0)
    hp[20] += 1.0
    return np.convolve(lp, hp), 27


def _filter_aligned(samples: np.ndarray, kernel: np.ndarray, delay: int) -> np.ndarray:
    """Convolve with edge padding and shift out the group delay."""
    pad = len(kernel)
    padded = np.pad(samples, pad, mode="edge")
    full = np.convolve(padded, kernel, mode="valid")  # length n + pad + 1
    return full[delay : delay + len(samples)]


def bandpass(samples: np.ndarray, fs: float = 250.0) -> np.ndarray:
    """Same-length QRS bandpass aligned with the input; ConfigError unless fs is 250 Hz."""
    if fs != 250.0:
        raise ConfigError(f"bandpass supports only fs = 250 Hz, got {fs}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise EmptySignal("bandpass needs a non-empty signal")
    kernel, delay = _bandpass_kernel()
    return _filter_aligned(samples, kernel, delay)


def _derivative(samples: np.ndarray) -> np.ndarray:
    # Five-point derivative, delay 2, compensated.
    kernel = np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0
    return _filter_aligned(samples, kernel, 2)


def _integrate(squared: np.ndarray) -> np.ndarray:
    # Causal moving average; its lag is intentional (threshold crossings
    # then sit near QRS onset, where the R search window is anchored).
    kernel = np.ones(INTEGRATION_WINDOW) / INTEGRATION_WINDOW
    return np.convolve(squared, kernel, mode="full")[: len(squared)]


def _trailing_max(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Max of x over the integration window ending at each index i, [i - 37, i],
    with x[0] repeated before the start. The detector passes absolute values;
    given both -0.0 and 0.0 in one window, either zero may come back."""
    padded = np.concatenate((np.full(INTEGRATION_WINDOW - 1, x[0]), x))
    return sliding_window_view(padded, INTEGRATION_WINDOW)[idx].max(axis=1)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    if x.size < 3:
        return np.empty(0, dtype=int)
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])
    return np.flatnonzero(interior) + 1


def detect_r_peaks(samples: np.ndarray, fs: float = 250.0) -> np.ndarray:
    """R-peak sample indices, empty for flatline input; ConfigError unless fs is 250 Hz."""
    if fs != 250.0:
        raise ConfigError(f"detect_r_peaks supports only fs = 250 Hz, got {fs}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return np.empty(0, dtype=int)

    filtered = bandpass(samples, fs)
    deriv = _derivative(filtered)
    integ = _integrate(deriv**2)
    abs_f = np.abs(filtered)
    n = samples.size

    candidates = _local_maxima(integ)
    if candidates.size == 0:
        return np.empty(0, dtype=int)

    # Signal and noise levels of the integrated (i) and filtered (f) streams,
    # from the first 2 s; each threshold is npk + 0.25 * (spk - npk).
    init = slice(0, min(500, n))
    spk_i, npk_i = float(np.max(integ[init])), float(np.mean(integ[init]))
    spk_f, npk_f = float(np.max(abs_f[init])), float(np.mean(abs_f[init]))

    r_peaks: list[int] = []
    qrs_integ_idx: list[int] = []  # integrator candidate index per accepted QRS
    qrs_slopes: list[float] = []
    rr_recent: list[float] = []
    rr_selected: list[float] = []
    # Strongest noise candidate since the last QRS: (integ idx, peak, fpeak, slope)
    best_noise: tuple[int, float, float, float] | None = None

    def rr_average() -> float:
        rr = (rr_selected or rr_recent)[-8:]  # integer-valued, so the sum is exact
        return sum(rr) / len(rr) if rr else float(fs)  # neutral prior: 60 bpm

    searchback_gap = SEARCHBACK_FACTOR * rr_average()  # moves only with the RR lists

    def accept_qrs(idx: int, peak: float, fpeak: float, slope: float,
                   searchback: bool = False) -> None:
        nonlocal best_noise, searchback_gap, spk_i, spk_f
        # R: the largest |filtered| near where integ last rose through the level.
        level = min((0.5 if searchback else 1.0) * (npk_i + 0.25 * (spk_i - npk_i)), peak)
        cross = idx
        while cross > 0 and integ[cross - 1] >= level:
            cross -= 1
        lo = max(0, cross - 10)
        r = lo + int(np.argmax(abs_f[lo:min(n, cross + 11)]))
        if r_peaks and r - r_peaks[-1] < REFRACTORY_SAMPLES:
            return
        if qrs_integ_idx:
            rr = float(idx - qrs_integ_idx[-1])
            rr_recent.append(rr)
            avg = rr_average()
            if 0.92 * avg <= rr <= 1.16 * avg:
                rr_selected.append(rr)
            searchback_gap = SEARCHBACK_FACTOR * rr_average()
        r_peaks.append(r)
        qrs_integ_idx.append(idx)
        qrs_slopes.append(slope)
        frac = 0.25 if searchback else 0.125
        spk_i = frac * peak + (1.0 - frac) * spk_i
        spk_f = frac * fpeak + (1.0 - frac) * spk_f
        if best_noise is not None and best_noise[0] <= idx:
            best_noise = None

    t_wave_gap = int(0.36 * fs)
    fpeaks, slopes = (_trailing_max(s, candidates).tolist() for s in (abs_f, np.abs(deriv)))
    for idx, peak, fpeak, slope in zip(candidates.tolist(), integ[candidates].tolist(),
                                       fpeaks, slopes):
        t_wave = False
        if qrs_integ_idx:
            # Search-back: a long gap since the last QRS means one was missed;
            # revisit the strongest rejected candidate at half threshold.
            if (idx - qrs_integ_idx[-1] > searchback_gap and best_noise is not None
                    and best_noise[1] > 0.5 * (npk_i + 0.25 * (spk_i - npk_i))):
                accept_qrs(*best_noise, searchback=True)
            if idx - qrs_integ_idx[-1] < REFRACTORY_SAMPLES:
                continue
            # T-wave rejection: close to the last QRS with a much weaker slope.
            t_wave = idx - qrs_integ_idx[-1] < t_wave_gap and slope < 0.5 * qrs_slopes[-1]

        if (not t_wave and peak > npk_i + 0.25 * (spk_i - npk_i)
                and fpeak > npk_f + 0.25 * (spk_f - npk_f)):
            accept_qrs(idx, peak, fpeak, slope)
            continue
        npk_i = 0.125 * peak + 0.875 * npk_i
        npk_f = 0.125 * fpeak + 0.875 * npk_f
        if not qrs_integ_idx or idx > qrs_integ_idx[-1] + REFRACTORY_SAMPLES:
            if best_noise is None or peak > best_noise[1]:
                best_noise = (idx, peak, fpeak, slope)

    # Enforce strict ordering and the refractory on the final index list.
    out: list[int] = []
    for r in sorted(set(r_peaks)):
        if out and r - out[-1] < REFRACTORY_SAMPLES:
            if abs_f[r] > abs_f[out[-1]]:
                out[-1] = r
            continue
        out.append(r)
    return np.asarray(out, dtype=int)


def _ms(ms: float, fs: float) -> int:
    return int(round(ms * fs / 1000.0))


def _first_min(samples: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign: float) -> np.ndarray:
    """Per beat, the index of the first minimum of sign * samples[lo:hi] (so
    sign -1 finds the first maximum), from one (beats, widest window) gather
    with +inf past the end of each window."""
    idx = lo[:, None] + np.arange((hi - lo).max(initial=1))
    window = sign * samples[np.minimum(idx, samples.size - 1)]
    window[idx >= hi[:, None]] = np.inf
    return lo + window.argmin(axis=1)


def delineate(samples: np.ndarray, fs: float, r_peaks: np.ndarray) -> np.ndarray:
    """Locate P/Q/S/T around each R-peak: an (N, 7, 2) float64 array holding
    the (x, y) of every landmark in LANDMARKS order, x as an absolute sample
    index and y in mV.

    Beats whose Q, S, P or T search window is clipped empty (record edges,
    stray peaks) are dropped. Every window is also clipped to the midpoints
    between adjacent R-peaks so neighbouring beats never share samples.
    """
    samples = np.asarray(samples, dtype=np.float64)
    r = np.asarray(r_peaks, dtype=int)
    n = samples.size
    w_q, w_p, w_s, w_t_min, w_t_max = (
        _ms(ms, fs) for ms in (Q_WINDOW_MS, P_WINDOW_MS, S_WINDOW_MS, T_MIN_MS, T_MAX_MS))

    left = np.concatenate(([0], (r[:-1] + r[1:] + 1) // 2)).clip(0)
    right = np.concatenate(((r[:-1] + r[1:]) // 2, [n - 1])).clip(max=n - 1)
    q_lo = np.maximum(r - w_q, left)  # Q: minimum on [r - 60ms, r)
    s_hi = np.minimum(r + w_s, right)  # S: minimum on (r, r + 60ms]
    p_lo = np.maximum(r - w_p, left)  # P: maximum on [r - 240ms, r - 60ms)
    # T: maximum on (r + 80ms, min(r + 400ms, r + 2/3 RR_next)]
    t_hi = np.minimum(r + w_t_max, right)
    t_hi[:-1] = np.minimum(t_hi[:-1], r[:-1] + (2 * (r[1:] - r[:-1])) // 3)
    keep = (q_lo < r) & (s_hi > r) & (p_lo < r - w_q) & (r + w_t_min < t_hi)
    r, q_lo, s_hi, p_lo, t_hi = (a[keep] for a in (r, q_lo, s_hi, p_lo, t_hi))

    qx = _first_min(samples, q_lo, r, 1.0)
    sx = _first_min(samples, r + 1, s_hi + 1, 1.0)
    px = _first_min(samples, p_lo, r - w_q, -1.0)
    tx = _first_min(samples, r + w_t_min + 1, t_hi + 1, -1.0)
    # Onset and offset halfway between, rounded half to even like round().
    x = np.stack([px, qx, r, sx, tx, np.rint((px + qx) / 2), np.rint((sx + tx) / 2)],
                 axis=1).astype(int)
    return np.stack([x, samples[x]], axis=-1, dtype=np.float64)


def segment_record(samples: np.ndarray, fs: float) -> np.ndarray:
    """Convenience: detect R-peaks then delineate."""
    return delineate(samples, fs, detect_r_peaks(samples, fs))
