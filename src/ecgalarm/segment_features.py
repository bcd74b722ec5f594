"""Per-segment morphology features and the last-segments baseline vector.

Each usable beat yields 84 time-domain features in a fixed canonical order:

* 14 landmark coordinates: (x, y) of P, Q, R, S, T plus OnQRS/OffQRS, with
  every x expressed relative to the Q-wave location (so the Qx column is 0)
* 21 within-segment pairwise x-intervals over the seven landmarks
* 21 within-segment pairwise y-differences
* 7 + 7 next-segment same-landmark x-intervals / y-differences
  (e.g. the RR interval and R-R amplitude columns)
* 7 + 7 next-but-one x-intervals / y-differences (RR2 interval etc.)

x is in samples at 250 Hz, y in mV. The last two beats of a record
have no next / next-but-one partner and are excluded rather than padded, so
a record with N beats yields max(0, N - 2) rows.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .record_io import TARGET_FS
from .segmentation import LANDMARKS

N_SEGMENT_FEATURES = 84
LLF_SEGMENTS = 7
LLF_LENGTH = N_SEGMENT_FEATURES * LLF_SEGMENTS  # 588


# Coordinate column prefix per landmark where it is not the landmark name.
_COORD_PREFIX = {"OnQRS": "OnQRS_", "OffQRS": "OFFQRS_"}


def _build_feature_names() -> list[str]:
    coord_names = [f"{_COORD_PREFIX.get(m, m)}{axis}" for m in LANDMARKS for axis in "xy"]

    pair_x = [f"dx_{a}_{b}" for a, b in combinations(LANDMARKS, 2)]
    pair_y = [f"dy_{a}_{b}" for a, b in combinations(LANDMARKS, 2)]

    next_x = [f"{m}{m}_interval" for m in LANDMARKS]
    next_y = [f"{m}-{m}_amplitude" for m in LANDMARKS]
    next2_x = [f"{m}{m}2_interval" for m in LANDMARKS]
    next2_y = [f"{m}-{m}2_amplitude" for m in LANDMARKS]
    return coord_names + pair_x + pair_y + next_x + next_y + next2_x + next2_y


FEATURE_NAMES = _build_feature_names()
assert len(FEATURE_NAMES) == N_SEGMENT_FEATURES

_PAIR_A, _PAIR_B = np.array(list(combinations(range(len(LANDMARKS)), 2))).T  # 21 pairs
_Q = LANDMARKS.index("Q")
_R = LANDMARKS.index("R")


def segment_features(marks: np.ndarray) -> np.ndarray:
    """The (max(0, N - 2), 84) feature matrix of one record's (N, 7, 2)
    landmark array, as returned by `delineate`."""
    x, y = marks[..., 0], marks[..., 1]
    n = max(0, len(marks) - 2)
    coords = np.stack([x - x[:, _Q : _Q + 1], y], axis=-1).reshape(-1, 2 * len(LANDMARKS))
    return np.hstack([
        coords[:n],
        x[:n, _PAIR_B] - x[:n, _PAIR_A],
        y[:n, _PAIR_B] - y[:n, _PAIR_A],
        x[1 : n + 1] - x[:n],
        y[1 : n + 1] - y[:n],
        x[2:] - x[:n],
        y[2:] - y[:n],
    ])


def heart_rate(marks: np.ndarray) -> float:
    """Mean heart rate in bpm over the landmark array; 0 when under 2 beats."""
    if len(marks) < 2:
        return 0.0
    return float(60.0 * TARGET_FS / np.mean(np.diff(marks[:, _R, 0])))


def llf_tail(rows: np.ndarray) -> np.ndarray:
    """Concatenate the last 7 feature rows (oldest first), zero-padded on the left."""
    tail = np.zeros((LLF_SEGMENTS, N_SEGMENT_FEATURES))
    last = rows[-LLF_SEGMENTS:]
    tail[LLF_SEGMENTS - len(last) :] = last
    return tail.reshape(-1)
