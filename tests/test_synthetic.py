"""The windowed wave sum of `synthetic_ecg` against the whole-record formula.

Each Gaussian wave is added only within `WAVE_REACH` standard deviations of
its centre. Beyond ~38.6 sigma `exp` is exactly 0, so the windowed sum must
give the same bytes as adding every wave over every sample.
"""

import numpy as np
import pytest

from ecgalarm.synthetic import DEFAULT_WAVES, synthetic_ecg


def whole_record_ecg(duration_s, bpm, fs=250.0, snr_db=None, seed=0, drop_beats=()):
    """The generator's formula with every wave evaluated over the whole record."""
    n = int(round(duration_s * fs))
    t = np.arange(n)
    signal = np.zeros(n, dtype=np.float64)
    rr = 60.0 / bpm * fs
    margin = 0.3 * fs
    for beat_idx, r_center in enumerate(np.arange(margin, n - margin, rr)):
        if beat_idx in drop_beats:
            continue
        for off_ms, amp, width_ms in DEFAULT_WAVES.values():
            center = r_center + off_ms * fs / 1000.0
            sigma = width_ms * fs / 1000.0
            signal += amp * np.exp(-((t - center) ** 2) / (2.0 * sigma**2))
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        rms = np.sqrt(np.mean(signal**2))
        signal = signal + rng.normal(0.0, rms / (10.0 ** (snr_db / 20.0)), size=n)
    return signal


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(duration_s=300, bpm=25),
        dict(duration_s=300, bpm=75, snr_db=10.0, seed=2),
        dict(duration_s=120, bpm=150, snr_db=20.0, seed=3, drop_beats=(10, 11, 40)),
        dict(duration_s=120, bpm=190, snr_db=15.0, seed=4),
        dict(duration_s=2.0, bpm=60, fs=500.0),  # waves reach past both record edges
    ],
    ids=["25bpm", "75bpm_snr10", "150bpm_dropped", "190bpm", "short_500hz"],
)
def test_windowed_sum_matches_whole_record_formula(kwargs):
    got = synthetic_ecg(**kwargs).samples
    want = whole_record_ecg(**kwargs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
