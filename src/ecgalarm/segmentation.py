"""R-peak detection (Pan-Tompkins) and P/Q/S/T delineation at 250 Hz.

Every record reaching this module is sampled at 250 Hz (ingest skips any
other rate), so each window, delay and interval below is a fixed sample
count at that rate.

The detector follows the classic recipe: bandpass, five-point derivative,
squaring, 150 ms moving-window integration, adaptive signal/noise thresholds
on both the integrated and the filtered streams, a 200 ms refractory, T-wave
slope rejection, and 1.66xRR search-back. Filter recursions are the original
integer ones with delays rescaled from 200 Hz to 250 Hz; all group delays
are compensated so detected indices line up with the raw signal. OpenBLAS
`ddot` sums the 54-tap bandpass (`dwt._fir`), `_integrate` and the taps'
construction (np.convolve); the 5-tap derivative (`_fir`) adds in tap order.
The candidate scan keeps its four signal and noise levels as plain floats,
so the noise path, taken by most local maxima, calls no function.

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

from .dwt import _fir
from .exceptions import EmptySignal

REFRACTORY_SAMPLES = 50  # 200 ms at 250 Hz
INTEGRATION_WINDOW = 38  # 150 ms at 250 Hz
T_WAVE_GAP = 90  # 360 ms: a weak-slope candidate closer than this is a T wave
RR_PRIOR = 250.0  # 1 s: the RR average before any QRS, 60 bpm
SEARCHBACK_FACTOR = 1.66

# Delineation windows in samples relative to R.
Q_WINDOW = 15  # 60 ms
P_WINDOW = 60  # 240 ms
S_WINDOW = 15  # 60 ms
T_MIN = 20  # 80 ms
T_MAX = 100  # 400 ms

LANDMARKS = ("P", "Q", "R", "S", "T", "OnQRS", "OffQRS")


# Bandpass (~5-15 Hz, delay 27): a triangular low-pass, (moving sum of 8)^2 / 64
# (delay 7), times a 20-sample delay minus a 40-wide moving average (delay ~20).
_BANDPASS_TAPS = np.convolve(np.convolve(np.ones(8), np.ones(8)) / 64.0,
                             np.where(np.arange(40) == 20, 1.0 - 1.0 / 40.0, -1.0 / 40.0))
_DERIVATIVE_TAPS = np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0  # five-point, delay 2


def _filter_aligned(samples: np.ndarray, kernel: np.ndarray, delay: int) -> np.ndarray:
    """Same-length filter output with the group delay shifted out: output i
    sums kernel[k] * samples[i + delay - 1 - k], edge samples past the ends."""
    padded = np.pad(samples, (len(kernel) - delay, delay - 1), mode="edge")
    return _fir(padded, kernel)


def bandpass(samples: np.ndarray) -> np.ndarray:
    """Same-length QRS bandpass aligned with the input."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise EmptySignal("bandpass needs a non-empty signal")
    return _filter_aligned(samples, _BANDPASS_TAPS, 27)


def _derivative(samples: np.ndarray) -> np.ndarray:
    return _filter_aligned(samples, _DERIVATIVE_TAPS, 2)


def _integrate(squared: np.ndarray) -> np.ndarray:
    # Causal moving average; its lag is intentional (threshold crossings
    # then sit near QRS onset, where the R search window is anchored).
    kernel = np.ones(INTEGRATION_WINDOW) / INTEGRATION_WINDOW
    return np.convolve(squared, kernel, mode="full")[: len(squared)]


def _trailing_max(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Max of x over the integration window ending at each index i, [i - 37, i],
    with x[0] repeated before the start, read at the indices idx. By doubling:
    after the maxima with the signal shifted by 1, 2, 4, 8 and 16 samples,
    entry j covers 32 samples from j, and one more 6 samples on covers 38. The
    detector passes absolute values; given both -0.0 and 0.0 in one window,
    either zero may come back."""
    m = np.concatenate((np.full(INTEGRATION_WINDOW - 1, x[0]), x))
    for shift in (1, 2, 4, 8, 16, INTEGRATION_WINDOW - 32):
        m = np.maximum(m[:-shift], m[shift:])
    return m[idx]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])
    return np.flatnonzero(interior) + 1


def detect_r_peaks(samples: np.ndarray) -> np.ndarray:
    """R-peak sample indices, empty for flatline input."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return np.empty(0, dtype=int)

    filtered = bandpass(samples)
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
    # The last accepted QRS: its integrator candidate index (-1 before the
    # first; candidates start at 1) and its slope.
    last_qrs, last_slope = -1, 0.0
    rr_recent: list[float] = []
    rr_selected: list[float] = []
    # Strongest noise candidate since the last QRS: (integ idx, peak, fpeak, slope)
    best_noise: tuple[int, float, float, float] | None = None

    def rr_average() -> float:
        rr = (rr_selected or rr_recent)[-8:]  # integer-valued, so the sum is exact
        return sum(rr) / len(rr) if rr else RR_PRIOR

    searchback_gap = SEARCHBACK_FACTOR * rr_average()  # moves only with the RR lists

    def accept_qrs(idx: int, peak: float, fpeak: float, slope: float,
                   searchback: bool = False) -> None:
        nonlocal best_noise, searchback_gap, spk_i, spk_f, last_qrs, last_slope
        # R: the largest |filtered| near where integ last rose through the level.
        level = min((0.5 if searchback else 1.0) * (npk_i + 0.25 * (spk_i - npk_i)), peak)
        cross = idx
        while cross > 0 and integ[cross - 1] >= level:
            cross -= 1
        lo = max(0, cross - 10)
        r = lo + int(abs_f[lo:min(n, cross + 11)].argmax())
        if r_peaks and r - r_peaks[-1] < REFRACTORY_SAMPLES:
            return
        if last_qrs >= 0:
            rr = float(idx - last_qrs)
            rr_recent.append(rr)
            avg = rr_average()
            if 0.92 * avg <= rr <= 1.16 * avg:
                rr_selected.append(rr)
            searchback_gap = SEARCHBACK_FACTOR * rr_average()
        r_peaks.append(r)
        last_qrs, last_slope = idx, slope
        frac = 0.25 if searchback else 0.125
        spk_i = frac * peak + (1.0 - frac) * spk_i
        spk_f = frac * fpeak + (1.0 - frac) * spk_f
        if best_noise is not None and best_noise[0] <= idx:
            best_noise = None

    fpeaks, slopes = (_trailing_max(s, candidates).tolist() for s in (abs_f, np.abs(deriv)))
    for idx, peak, fpeak, slope in zip(candidates.tolist(), integ[candidates].tolist(),
                                       fpeaks, slopes):
        t_wave = False
        if last_qrs >= 0:
            gap = idx - last_qrs  # the noise path below reads it too
            # Search-back: a long gap since the last QRS means one was missed;
            # revisit the strongest rejected candidate at half threshold.
            if (gap > searchback_gap and best_noise is not None
                    and best_noise[1] > 0.5 * (npk_i + 0.25 * (spk_i - npk_i))):
                accept_qrs(*best_noise, searchback=True)
                gap = idx - last_qrs
            if gap < REFRACTORY_SAMPLES:
                continue
            # T-wave rejection: close to the last QRS with a much weaker slope.
            t_wave = gap < T_WAVE_GAP and slope < 0.5 * last_slope

        if (not t_wave and peak > npk_i + 0.25 * (spk_i - npk_i)
                and fpeak > npk_f + 0.25 * (spk_f - npk_f)):
            accept_qrs(idx, peak, fpeak, slope)
            continue
        npk_i = 0.125 * peak + 0.875 * npk_i
        npk_f = 0.125 * fpeak + 0.875 * npk_f
        if last_qrs < 0 or gap > REFRACTORY_SAMPLES:
            if best_noise is None or peak > best_noise[1]:
                best_noise = (idx, peak, fpeak, slope)

    # accept_qrs keeps only an R at least REFRACTORY_SAMPLES past the last,
    # so the list is already strictly increasing.
    return np.asarray(r_peaks, dtype=int)


def _first_min(samples: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign: float) -> np.ndarray:
    """Per beat, the index of the first minimum of sign * samples[lo:hi] (so
    sign -1 finds the first maximum), from one (beats, widest window) gather
    with +inf past the end of each window."""
    idx = lo[:, None] + np.arange((hi - lo).max(initial=1))
    window = sign * samples[np.minimum(idx, samples.size - 1)]
    window[idx >= hi[:, None]] = np.inf
    return lo + window.argmin(axis=1)


def delineate(samples: np.ndarray, r_peaks: np.ndarray) -> np.ndarray:
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

    left = np.concatenate(([0], (r[:-1] + r[1:] + 1) // 2)).clip(0)
    right = np.concatenate(((r[:-1] + r[1:]) // 2, [n - 1])).clip(max=n - 1)
    q_lo = np.maximum(r - Q_WINDOW, left)  # Q: minimum on [r - 60ms, r)
    s_hi = np.minimum(r + S_WINDOW, right)  # S: minimum on (r, r + 60ms]
    p_lo = np.maximum(r - P_WINDOW, left)  # P: maximum on [r - 240ms, r - 60ms)
    # T: maximum on (r + 80ms, min(r + 400ms, r + 2/3 RR_next)]
    t_hi = np.minimum(r + T_MAX, right)
    t_hi[:-1] = np.minimum(t_hi[:-1], r[:-1] + (2 * (r[1:] - r[:-1])) // 3)
    keep = (q_lo < r) & (s_hi > r) & (p_lo < r - Q_WINDOW) & (r + T_MIN < t_hi)
    r, q_lo, s_hi, p_lo, t_hi = (a[keep] for a in (r, q_lo, s_hi, p_lo, t_hi))

    qx = _first_min(samples, q_lo, r, 1.0)
    sx = _first_min(samples, r + 1, s_hi + 1, 1.0)
    px = _first_min(samples, p_lo, r - Q_WINDOW, -1.0)
    tx = _first_min(samples, r + T_MIN + 1, t_hi + 1, -1.0)
    # Onset and offset halfway between, rounded half to even like round().
    x = np.stack([px, qx, r, sx, tx, np.rint((px + qx) / 2), np.rint((sx + tx) / 2)],
                 axis=1).astype(int)
    return np.stack([x, samples[x]], axis=-1, dtype=np.float64)


def segment_record(samples: np.ndarray) -> np.ndarray:
    """Convenience: detect R-peaks then delineate."""
    return delineate(samples, detect_r_peaks(samples))
