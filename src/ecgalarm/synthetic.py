"""Synthetic ECG generator with ground-truth landmarks.

Each cardiac cycle is a sum of five Gaussian bumps (P, Q, R, S, T) at
configurable offsets, amplitudes, and widths, so every landmark location is
known by construction. Used as the independent oracle for the detector and
delineator tests and by the demo scripts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (offset_ms relative to R, amplitude_mV, width_ms). Offsets keep each wave
# inside the delineation search window it is supposed to land in.
DEFAULT_WAVES = {
    "P": (-160.0, 0.20, 18.0),
    "Q": (-28.0, -0.25, 9.0),
    "R": (0.0, 1.20, 11.0),
    "S": (28.0, -0.30, 9.0),
    "T": (200.0, 0.40, 28.0),
}
# Half-width of the span, in standard deviations, each Gaussian wave is added on.
WAVE_REACH = 40.0


@dataclass
class SyntheticEcg:
    samples: np.ndarray
    fs: float
    r_locations: np.ndarray  # ground-truth R indices
    landmarks: dict[str, np.ndarray]  # ground-truth index per wave, per beat


def synthetic_ecg(
    duration_s: float,
    bpm: float,
    fs: float = 250.0,
    snr_db: float | None = None,
    seed: int = 0,
    waves: dict[str, tuple[float, float, float]] | None = None,
    drop_beats: tuple[int, ...] = (),
) -> SyntheticEcg:
    """Build a synthetic ECG of `duration_s` seconds at `bpm` beats/minute.

    `snr_db` adds white Gaussian noise at the given signal-to-noise ratio
    (None = clean). `drop_beats` deletes the given beat indices, leaving a
    gap (for search-back tests). Ground truth excludes dropped beats.
    """
    waves = dict(DEFAULT_WAVES if waves is None else waves)
    n = int(round(duration_s * fs))
    t = np.arange(n)
    signal = np.zeros(n, dtype=np.float64)

    rr = 60.0 / bpm * fs
    margin = 0.3 * fs  # keep full cycles away from the record edges
    r_centers = np.arange(margin, n - margin, rr)

    kept_r = []
    kept_marks: dict[str, list[int]] = {w: [] for w in waves}
    for beat_idx, r_center in enumerate(r_centers):
        if beat_idx in drop_beats:
            continue
        kept_r.append(int(round(r_center)))
        for name, (off_ms, amp, width_ms) in waves.items():
            center = r_center + off_ms * fs / 1000.0
            sigma = width_ms * fs / 1000.0
            # exp is exactly 0 beyond ~38.6 sigma, so adding the wave only
            # within 40 sigma of its centre leaves every sample's bits as the
            # whole-record sum would (the signal never holds -0.0).
            lo = max(int(np.ceil(center - WAVE_REACH * sigma)), 0)
            hi = min(int(np.floor(center + WAVE_REACH * sigma)) + 1, n)
            signal[lo:hi] += amp * np.exp(-((t[lo:hi] - center) ** 2) / (2.0 * sigma**2))
            kept_marks[name].append(int(round(center)))

    if snr_db is not None:
        rng = np.random.default_rng(seed)
        rms = np.sqrt(np.mean(signal**2))
        noise_std = rms / (10.0 ** (snr_db / 20.0))
        signal = signal + rng.normal(0.0, noise_std, size=n)

    return SyntheticEcg(
        samples=signal,
        fs=fs,
        r_locations=np.asarray(kept_r, dtype=int),
        landmarks={w: np.asarray(v, dtype=int) for w, v in kept_marks.items()},
    )
