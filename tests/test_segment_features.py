import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgalarm.segment_features import (
    FEATURE_NAMES,
    LLF_LENGTH,
    N_SEGMENT_FEATURES,
    heart_rate,
    llf_tail,
    segment_features,
)
from ecgalarm.segmentation import LANDMARKS, segment_record
from ecgalarm.synthetic import synthetic_ecg

# Offsets from R and heights (mV) of P, Q, R, S, T, OnQRS, OffQRS; the onset
# and offset sit at the P-Q and S-T midpoints.
OFFSETS = np.array([-50, -8, 0, 8, 50, -29, 29])
HEIGHTS = np.array([0.1, -0.2, 1.0, -0.3, 0.4, 0.05, 0.02])


def make_marks(r_positions):
    """(N, 7, 2) landmark array of identical beats with R at `r_positions`."""
    x = np.add.outer(np.asarray(r_positions, dtype=np.float64), OFFSETS)
    return np.stack([x, np.broadcast_to(HEIGHTS, x.shape)], axis=-1)


def col(name):
    return FEATURE_NAMES.index(name)


class TestLayout:
    def test_84_columns_and_names(self):
        assert len(FEATURE_NAMES) == N_SEGMENT_FEATURES == 84
        assert len(set(FEATURE_NAMES)) == 84

    def test_named_table_features_present_once(self):
        for name in [
            "Px", "Py", "Qx", "Qy", "Rx", "Ry", "Sx", "Sy", "Tx", "Ty",
            "OnQRS_x", "OnQRS_y", "OFFQRS_x", "OFFQRS_y",
            "RR_interval", "RR2_interval", "PP_interval",
            "R-R_amplitude", "R-R2_amplitude",
        ]:
            assert FEATURE_NAMES.count(name) == 1


class TestSegmentFeatures:
    def test_usable_rows_excludes_last_two(self):
        matrix = segment_features(make_marks([100, 300, 500, 700, 900]))
        assert matrix.shape == (3, 84)

    def test_qx_column_is_zero(self):
        matrix = segment_features(make_marks([100, 300, 500]))
        assert np.all(matrix[:, col("Qx")] == 0)

    def test_identical_beats_200_apart(self):
        matrix = segment_features(make_marks([200, 400, 600, 800]))
        assert np.all(matrix[:, col("RR_interval")] == 200)
        assert np.all(matrix[:, col("R-R_amplitude")] == 0)
        assert np.all(matrix[:, col("RR2_interval")] == 400)
        assert np.all(matrix[:, col("R-R2_amplitude")] == 0)
        assert np.all(matrix[:, col("PP_interval")] == 200)

    def test_onqrs_is_pq_midpoint(self):
        marks = make_marks([100, 300, 500])
        marks[:, 5, 0] = np.round((marks[:, 0, 0] + marks[:, 1, 0]) / 2)
        matrix = segment_features(marks)
        # relative to Q: P=-42, Q=0 in this fixture -> midpoint -21
        p_rel = matrix[0, col("Px")]
        assert matrix[0, col("OnQRS_x")] == round(p_rel / 2)

    def test_x_relative_to_q(self):
        row = segment_features(make_marks([100, 300, 500]))[0]
        assert row[col("Px")] == -42  # P offset -50 minus Q offset -8
        assert row[col("Rx")] == 8
        assert row[col("Sx")] == 16
        assert row[col("Tx")] == 58

    def test_translation_invariance(self):
        a = segment_features(make_marks([100, 350, 600, 850]))
        b = segment_features(make_marks([1100, 1350, 1600, 1850]))
        np.testing.assert_array_equal(a, b)

    def test_amplitude_scaling_affects_only_y_columns(self):
        ecg = synthetic_ecg(60, 75, snr_db=25, seed=13)
        m1 = segment_features(segment_record(ecg.samples))
        m2 = segment_features(segment_record(2.0 * ecg.samples))
        y_mask = np.array(
            [n.endswith("y") or n.startswith("dy") or "amplitude" in n
             for n in FEATURE_NAMES]
        )
        assert y_mask.sum() == 42
        np.testing.assert_allclose(m2[:, ~y_mask], m1[:, ~y_mask])
        np.testing.assert_allclose(m2[:, y_mask], 2.0 * m1[:, y_mask], atol=1e-12)

    def test_no_nan_inf(self):
        ecg = synthetic_ecg(120, 80, snr_db=15, seed=21)
        matrix = segment_features(segment_record(ecg.samples))
        assert np.all(np.isfinite(matrix))

    def test_no_beats_gives_empty_matrix(self):
        # max(0, N - 2) rows at N = 0 too, as for one beat.
        assert segment_features(make_marks([])).shape == (0, N_SEGMENT_FEATURES)


# Coordinate names spell the offset landmark "OFFQRS"; LANDMARKS spells it "OffQRS".
_SPELLING = {"OFFQRS": "OffQRS"}


def column_by_name(name, marks, i):
    """Feature `name` of row i, computed from what the name says."""
    def at(row, mark, axis):
        return float(marks[row, LANDMARKS.index(_SPELLING.get(mark, mark)), "xy".index(axis)])

    if m := re.fullmatch(r"d([xy])_(\w+)_(\w+)", name):  # dx_A_B: B minus A
        axis, a, b = m.groups()
        return at(i, b, axis) - at(i, a, axis)
    if m := re.fullmatch(r"(\w+)\1(2?)_interval", name):  # RR_interval, RR2_interval
        mark, two = m.groups()
        return at(i + 1 + len(two), mark, "x") - at(i, mark, "x")
    if m := re.fullmatch(r"(\w+)-\1(2?)_amplitude", name):  # R-R_amplitude, R-R2_amplitude
        mark, two = m.groups()
        return at(i + 1 + len(two), mark, "y") - at(i, mark, "y")
    if m := re.fullmatch(r"([A-Za-z]+?)_?([xy])", name):  # Px, OnQRS_y: x relative to Q
        mark, axis = m.groups()
        return at(i, mark, axis) - (at(i, "Q", "x") if axis == "x" else 0.0)
    raise AssertionError(f"no definition for feature name {name!r}")


@st.composite
def landmark_arrays(draw):
    """(N, 7, 2) arrays with integer x (samples) and finite y (mV)."""
    n = draw(st.integers(1, 10))
    x = draw(arrays(np.int64, (n, len(LANDMARKS)), elements=st.integers(-10**6, 10**6)))
    y = draw(arrays(np.float64, (n, len(LANDMARKS)),
                    elements=st.floats(-10.0, 10.0, allow_nan=False)))
    return np.stack([x, y], axis=-1, dtype=np.float64)


class TestFeatureDefinitions:
    @settings(deadline=None)
    @given(landmark_arrays())
    def test_every_column_matches_its_name(self, marks):
        matrix = segment_features(marks)
        assert matrix.shape == (max(0, len(marks) - 2), N_SEGMENT_FEATURES)
        for i in range(len(matrix)):
            for j, name in enumerate(FEATURE_NAMES):
                assert matrix[i, j] == column_by_name(name, marks, i), (i, name)

    @settings(deadline=None)
    @given(landmark_arrays(), st.integers(-10**6, 10**6))
    def test_integer_x_shift_leaves_matrix_identical(self, marks, shift):
        shifted = marks.copy()
        shifted[..., 0] += shift
        np.testing.assert_array_equal(segment_features(shifted), segment_features(marks))


class TestHeartRate:
    def test_60bpm(self):
        marks = make_marks(list(range(100, 100 + 250 * 10, 250)))
        assert heart_rate(marks) == pytest.approx(60.0)

    def test_120bpm(self):
        marks = make_marks(list(range(100, 100 + 125 * 10, 125)))
        assert heart_rate(marks) == pytest.approx(120.0)

    def test_single_beat_sentinel(self):
        assert heart_rate(make_marks([500])) == 0.0
        assert heart_rate(make_marks([])) == 0.0


class TestLlfTail:
    def _rows(self, n_rows):
        return np.arange(n_rows * 84, dtype=np.float64).reshape(n_rows, 84)

    def test_ten_rows_takes_last_seven(self):
        rows = self._rows(10)
        vec = llf_tail(rows)
        assert len(vec) == LLF_LENGTH == 588
        np.testing.assert_array_equal(vec, rows[3:].reshape(-1))

    def test_three_rows_left_padded(self):
        rows = self._rows(3)
        vec = llf_tail(rows)
        assert len(vec) == 588
        np.testing.assert_array_equal(vec[: 4 * 84], np.zeros(4 * 84))
        np.testing.assert_array_equal(vec[4 * 84 :], rows.reshape(-1))

    def test_zero_rows_all_zero(self):
        np.testing.assert_array_equal(llf_tail(self._rows(0)), np.zeros(588))
