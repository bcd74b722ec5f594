import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter1d

from ecgalarm.exceptions import EmptySignal
from ecgalarm.record_io import encode_signal, parse_header, read_signal
from ecgalarm.segmentation import (
    INTEGRATION_WINDOW,
    LANDMARKS,
    P_WINDOW,
    Q_WINDOW,
    REFRACTORY_SAMPLES,
    RR_PRIOR,
    S_WINDOW,
    SEARCHBACK_FACTOR,
    T_MAX,
    T_MIN,
    T_WAVE_GAP,
    _derivative,
    _integrate,
    _local_maxima,
    _trailing_max,
    bandpass,
    delineate,
    detect_r_peaks,
    segment_record,
)
from ecgalarm.synthetic import DEFAULT_WAVES, synthetic_ecg

FS = 250.0


def _rms(x):
    return np.sqrt(np.mean(np.asarray(x) ** 2))


def _recall(detected, truth, tol):
    if len(truth) == 0:
        return 1.0
    hits = sum(1 for t in truth if len(detected) and np.min(np.abs(detected - t)) <= tol)
    return hits / len(truth)


class TestBandpass:
    def test_constant_rejected(self):
        out = bandpass(np.full(2000, 3.3))
        assert np.max(np.abs(out)) < 1e-12

    def test_output_length(self):
        x = np.random.default_rng(0).normal(size=1234)
        assert len(bandpass(x)) == 1234

    def test_50hz_attenuated(self):
        # Oracle: numerically measured magnitude response on a pure tone.
        t = np.arange(5000) / FS
        x = np.sin(2 * np.pi * 50.0 * t)
        y = bandpass(x)
        assert _rms(y[200:-200]) < 0.1 * _rms(x[200:-200])

    def test_10hz_passed(self):
        t = np.arange(5000) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = bandpass(x)
        assert _rms(y[200:-200]) > 0.5 * _rms(x[200:-200])

    def test_peak_alignment_within_2_samples(self):
        t = np.arange(5000) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = bandpass(x)
        i = 2000 + int(np.argmax(x[2000:2100]))
        j_all = np.flatnonzero(
            (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
        ) + 1
        assert np.min(np.abs(j_all - i)) <= 2

    def test_empty_raises(self):
        with pytest.raises(EmptySignal):
            bandpass(np.array([]))


class TestDetectRPeaks:
    def test_flatline_empty(self):
        assert len(detect_r_peaks(np.zeros(int(300 * FS)))) == 0

    def test_empty_signal_empty(self):
        # bandpass would raise EmptySignal; the detector answers first.
        peaks = detect_r_peaks(np.array([]))
        assert peaks.shape == (0,) and peaks.dtype == np.int64

    @pytest.mark.parametrize("t_offset_ms, beats", [(260.0, 60), (300.0, 118)])
    def test_t_wave_gap(self, t_offset_ms, beats):
        # A tall, wide T wave whose candidate follows the QRS's within the
        # 360 ms gap has under half its slope and is rejected; 40 ms later it
        # is past the gap and counted as a beat.
        waves = dict(DEFAULT_WAVES, T=(t_offset_ms, 0.8, 30.0))
        ecg = synthetic_ecg(60, 60, snr_db=30, seed=1, waves=waves)
        assert len(detect_r_peaks(ecg.samples)) == beats

    @pytest.mark.parametrize("bpm, found", [(73.5, False), (71.4, True)])
    def test_first_searchback_gap(self, bpm, found):
        # Until the first RR interval is known, search-back waits
        # SEARCHBACK_FACTOR * RR_PRIOR = 415 samples after the first QRS. The
        # second beat, at 45% amplitude, is under the threshold but over half
        # of it. The third beat comes 408 samples after the first (73.5 bpm),
        # inside that gap, and the second is lost; at 420 samples (71.4 bpm)
        # it is past the gap and search-back recovers the second.
        strong = synthetic_ecg(6, bpm, drop_beats=(1,))
        weak_waves = {name: (offset, 0.45 * amp, width)
                      for name, (offset, amp, width) in DEFAULT_WAVES.items()}
        weak = synthetic_ecg(6, bpm, waves=weak_waves, drop_beats=(0, *range(2, 10)))
        peaks = detect_r_peaks(strong.samples + weak.samples)
        assert len(peaks) == len(strong.r_locations) + found
        assert np.any(np.abs(peaks - weak.r_locations[0]) <= 5) == found

    def test_synthetic_60bpm_count_and_accuracy(self):
        ecg = synthetic_ecg(300, 60, snr_db=20, seed=11)
        peaks = detect_r_peaks(ecg.samples)
        assert 299 <= len(peaks) <= 301
        assert _recall(peaks, ecg.r_locations, tol=12) >= 0.99

    def test_searchback_recovers_deleted_beat(self):
        ecg = synthetic_ecg(300, 60, drop_beats=(150,))
        peaks = detect_r_peaks(ecg.samples)
        hits = sum(1 for t in ecg.r_locations if np.min(np.abs(peaks - t)) <= 12)
        assert hits >= 298

    def test_refractory_and_ordering(self):
        ecg = synthetic_ecg(120, 180, snr_db=15, seed=5)
        peaks = detect_r_peaks(ecg.samples)
        assert np.all(np.diff(peaks) >= REFRACTORY_SAMPLES)
        assert np.all(np.diff(peaks) > 0)

    def test_determinism(self):
        ecg = synthetic_ecg(60, 90, snr_db=15, seed=2)
        a = detect_r_peaks(ecg.samples)
        b = detect_r_peaks(ecg.samples)
        np.testing.assert_array_equal(a, b)

    def test_amplitude_scale_covariance(self):
        ecg = synthetic_ecg(60, 80, snr_db=20, seed=3)
        base = detect_r_peaks(ecg.samples)
        for c in (0.2, 5.0, 40.0):
            np.testing.assert_array_equal(detect_r_peaks(c * ecg.samples), base)


@st.composite
def _signal_and_indices(draw):
    """A nonnegative signal of 1-120 samples (under and over one window) and a
    sorted set of distinct indices into it, possibly empty, as the detector
    passes. Nonnegative: the detector takes maxima of absolute values, and
    the max of -0.0 and 0.0 may be either zero."""
    x = draw(arrays(np.float64, st.integers(1, 120), elements=st.floats(0.0, 1e6),
                    fill=st.nothing()))
    return x, np.flatnonzero(draw(arrays(np.bool_, len(x))))


class TestTrailingMax:
    @given(arrays(np.float64, st.integers(1, 120),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_equals_window_slice_max(self, x):
        got = _trailing_max(x, np.arange(len(x)))
        assert got.shape == x.shape
        for i in range(len(x)):
            assert got[i] == np.max(x[max(0, i - INTEGRATION_WINDOW + 1) : i + 1])

    @given(_signal_and_indices())
    @example((np.arange(5.0), np.empty(0, dtype=int)))
    def test_equals_scipy_filter_at_indices(self, case):
        # scipy's filter is the reference: the detector took its maxima
        # from it before, and the detector's outputs are pinned.
        x, idx = case
        want = maximum_filter1d(x, INTEGRATION_WINDOW, mode="nearest",
                                origin=(INTEGRATION_WINDOW - 1) // 2)[idx]
        got = _trailing_max(x, idx)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestDetectorRecallProperty:
    """Recall within 20 ms stays >= 0.95 on 60-s records at 40-190 bpm under
    amplitude scaling, linear baseline wander and noise down to 10 dB SNR."""

    @settings(max_examples=30)
    @given(
        bpm=st.floats(40.0, 190.0),
        scale=st.floats(0.1, 10.0),
        drift_mv=st.floats(-5.0, 5.0),
        snr_db=st.one_of(st.none(), st.floats(10.0, 40.0)),
        seed=st.integers(0, 2**16),
    )
    def test_recall(self, bpm, scale, drift_mv, snr_db, seed):
        ecg = synthetic_ecg(60, bpm, snr_db=snr_db, seed=seed)
        wander = np.linspace(0.0, drift_mv, len(ecg.samples))
        peaks = detect_r_peaks(scale * ecg.samples + wander)
        assert _recall(peaks, ecg.r_locations, tol=5) >= 0.95



class _Thresholds:
    """Adaptive signal/noise levels for one detection stream."""

    def __init__(self, signal_level, noise_level):
        self.spk = signal_level
        self.npk = noise_level

    @property
    def threshold(self):
        return self.npk + 0.25 * (self.spk - self.npk)

    def mark_signal(self, peak, searchback=False):
        frac = 0.25 if searchback else 0.125
        self.spk = frac * peak + (1.0 - frac) * self.spk

    def mark_noise(self, peak):
        self.npk = 0.125 * peak + 0.875 * self.npk


def _detect_loop(samples):
    """The detector's candidate scan with its levels held in `_Thresholds`
    objects and the noise path through a `mark_noise` closure: the scan
    `detect_r_peaks` ran before its levels became plain floats, and its
    reference."""
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

    init = slice(0, min(500, n))
    thr_i = _Thresholds(float(np.max(integ[init])), float(np.mean(integ[init])))
    thr_f = _Thresholds(float(np.max(abs_f[init])), float(np.mean(abs_f[init])))

    r_peaks, qrs_integ_idx, qrs_slopes, rr_recent, rr_selected = [], [], [], [], []
    best_noise = None

    def refine_r(cross_idx):
        lo = max(0, cross_idx - 10)
        hi = min(n, cross_idx + 11)
        return lo + int(np.argmax(abs_f[lo:hi]))

    def crossing_before(idx, level):
        j = idx
        while j > 0 and integ[j - 1] >= level:
            j -= 1
        return j

    def rr_average():
        rr = (rr_selected or rr_recent)[-8:]
        return sum(rr) / len(rr) if rr else RR_PRIOR

    searchback_gap = SEARCHBACK_FACTOR * rr_average()

    def record_rr(new_idx):
        nonlocal searchback_gap
        if qrs_integ_idx:
            rr = float(new_idx - qrs_integ_idx[-1])
            rr_recent.append(rr)
            avg = rr_average()
            if 0.92 * avg <= rr <= 1.16 * avg:
                rr_selected.append(rr)
            searchback_gap = SEARCHBACK_FACTOR * rr_average()

    def accept_qrs(idx, peak, fpeak, slope, searchback=False):
        nonlocal best_noise
        level = 0.5 * thr_i.threshold if searchback else thr_i.threshold
        cross = crossing_before(idx, min(level, peak))
        r = refine_r(cross)
        if r_peaks and r - r_peaks[-1] < REFRACTORY_SAMPLES:
            return
        record_rr(idx)
        r_peaks.append(r)
        qrs_integ_idx.append(idx)
        qrs_slopes.append(slope)
        thr_i.mark_signal(peak, searchback)
        thr_f.mark_signal(fpeak, searchback)
        if best_noise is not None and best_noise[0] <= idx:
            best_noise = None

    def mark_noise(idx, peak, fpeak, slope):
        nonlocal best_noise
        thr_i.mark_noise(peak)
        thr_f.mark_noise(fpeak)
        if not qrs_integ_idx or idx > qrs_integ_idx[-1] + REFRACTORY_SAMPLES:
            if best_noise is None or peak > best_noise[1]:
                best_noise = (idx, peak, fpeak, slope)

    fpeaks, slopes = (_trailing_max(s, candidates).tolist() for s in (abs_f, np.abs(deriv)))
    for idx, peak, fpeak, slope in zip(candidates.tolist(), integ[candidates].tolist(),
                                       fpeaks, slopes):
        if qrs_integ_idx and idx - qrs_integ_idx[-1] > searchback_gap:
            if best_noise is not None and best_noise[1] > 0.5 * thr_i.threshold:
                accept_qrs(*best_noise, searchback=True)
        if qrs_integ_idx and idx - qrs_integ_idx[-1] < REFRACTORY_SAMPLES:
            continue
        if qrs_integ_idx and idx - qrs_integ_idx[-1] < T_WAVE_GAP:
            if qrs_slopes and slope < 0.5 * qrs_slopes[-1]:
                mark_noise(idx, peak, fpeak, slope)
                continue
        if peak > thr_i.threshold and fpeak > thr_f.threshold:
            accept_qrs(idx, peak, fpeak, slope)
        else:
            mark_noise(idx, peak, fpeak, slope)

    out = []
    for r in sorted(set(r_peaks)):
        if out and r - out[-1] < REFRACTORY_SAMPLES:
            if abs_f[r] > abs_f[out[-1]]:
                out[-1] = r
            continue
        out.append(r)
    return np.asarray(out, dtype=int)


def _as_ingested(samples, gain=200.0):
    """The samples after a round trip through a format-16 lead II record."""
    adc = np.clip(np.round(samples * gain), -32768, 32767).astype(np.int16)
    header = parse_header(f"q 1 250 {adc.size}\nq.mat 16 {gain:g}(0) 16 0 0 0 0 II\n")
    return read_signal(header, encode_signal([adc]), 0)


@st.composite
def _detector_inputs(draw):
    """A synthetic ECG of 0.1-120 s (so some are shorter than the 500-sample
    threshold warm-up) at 40-200 bpm and 5-30 dB SNR with some beats
    dropped, so search-back runs; some round-tripped through WFDB encoding;
    or a flat signal of any level."""
    if draw(st.integers(0, 9)) == 0:
        return np.full(draw(st.integers(1, 3000)), draw(st.floats(-10.0, 10.0)))
    short = draw(st.integers(0, 4)) == 4
    duration = draw(st.sampled_from([0.1, 1.9]) if short else st.floats(10.0, 120.0))
    bpm = draw(st.floats(40.0, 200.0))
    beats = int(duration * bpm / 60.0)
    ecg = synthetic_ecg(duration, bpm, snr_db=draw(st.floats(5.0, 30.0)),
                        seed=draw(st.integers(0, 2**16)),
                        drop_beats=tuple(draw(st.lists(st.integers(0, beats), min_size=1,
                                                               max_size=8))))
    return _as_ingested(ecg.samples) if draw(st.booleans()) else ecg.samples


@pytest.mark.pins_numpy_simd
class TestDetectorEqualsLoop:
    @settings(max_examples=150)
    @given(_detector_inputs())
    @example(np.zeros(75000))
    @example(np.full(499, 0.3))
    @example(synthetic_ecg(300, 60, drop_beats=(150, 151, 152)).samples)
    def test_same_bytes(self, samples):
        got = detect_r_peaks(samples)
        want = _detect_loop(samples)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _delineate_loop(samples, r_peaks):
    """Per-beat delineation, one slice argmin/argmax per landmark: the loop
    `delineate` ran before it gathered all beats at once, and its reference.
    That loop sliced the Q window before it checked the S window, so a peak
    15 or more samples past the end raised ValueError on an empty slice;
    here all four drop conditions come first, as in `delineate`."""
    samples = np.asarray(samples, dtype=np.float64)
    r_peaks = np.asarray(r_peaks, dtype=int)
    n = samples.size
    beats = []
    for k, r in enumerate(r_peaks):
        left = 0 if k == 0 else (r_peaks[k - 1] + r + 1) // 2
        right = n - 1 if k == len(r_peaks) - 1 else (r + r_peaks[k + 1]) // 2
        q_lo = max(r - Q_WINDOW, left, 0)
        s_hi = min(r + S_WINDOW, right, n - 1)
        p_lo = max(r - P_WINDOW, left, 0)
        p_hi = r - Q_WINDOW
        t_hi = min(r + T_MAX, right, n - 1)
        if k < len(r_peaks) - 1:
            t_hi = min(t_hi, r + (2 * (r_peaks[k + 1] - r)) // 3)
        t_lo = r + T_MIN
        if q_lo >= r or s_hi <= r or p_lo >= p_hi or t_lo >= t_hi:
            continue
        qx = q_lo + int(np.argmin(samples[q_lo:r]))
        sx = r + 1 + int(np.argmin(samples[r + 1 : s_hi + 1]))
        px = p_lo + int(np.argmax(samples[p_lo:p_hi]))
        tx = t_lo + 1 + int(np.argmax(samples[t_lo + 1 : t_hi + 1]))
        beats.append((px, qx, r, sx, tx, round((px + qx) / 2), round((sx + tx) / 2)))
    x = np.array(beats, dtype=int).reshape(-1, len(LANDMARKS))
    return np.stack([x, samples[x]], axis=-1, dtype=np.float64)


@st.composite
def _signal_and_peaks(draw):
    """A signal of 1-3000 samples on a coarse grid of values, so windows hold
    ties, and an int array of peaks: either any ints (unsorted, duplicated,
    negative, past the end, adjacent or empty), or mostly rising steps of
    one beat with some steps back, so that many beats keep all windows."""
    n = draw(st.integers(1, 3000))
    levels = draw(st.sampled_from([2, 5, 1000]))
    samples = draw(arrays(np.int64, n, elements=st.integers(0, levels - 1))) / 4.0
    if draw(st.booleans()):
        peaks = draw(st.lists(st.integers(-200, n + 200), max_size=40))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        steps = np.where(rng.random(n // 100) < 0.8, rng.integers(30, 200, n // 100),
                         rng.integers(-50, 30, n // 100))
        peaks = np.cumsum([rng.integers(-50, 100), *steps])
    return samples, np.array(peaks, dtype=int)


def _waves_x(marks):
    """Integer P, Q, R, S, T positions per beat, one row per beat."""
    return marks[:, :5, 0].astype(int)


@pytest.mark.pins_numpy_simd
class TestDelineate:
    def test_landmark_accuracy_on_synthetic(self):
        ecg = synthetic_ecg(300, 60, snr_db=20, seed=4)
        peaks = detect_r_peaks(ecg.samples)
        marks = delineate(ecg.samples, peaks)
        assert len(marks) >= 295
        good = 0
        for beat in _waves_x(marks):
            ti = int(np.argmin(np.abs(ecg.landmarks["R"] - beat[2])))
            errs = [abs(x - ecg.landmarks[wave][ti]) for x, wave in zip(beat, LANDMARKS)]
            if max(errs) <= 5:  # 20 ms at 250 Hz
                good += 1
        assert good / len(marks) >= 0.95

    def test_single_edge_peak_dropped(self):
        samples = np.zeros(int(5 * FS))
        samples[10] = 1.0
        marks = delineate(samples, np.array([10]))
        assert len(marks) == 0

    def test_empty_peaks_empty_sequence(self):
        marks = delineate(np.zeros(1000), np.array([], dtype=int))
        assert marks.shape == (0, 7, 2)

    def test_window_bounds_property(self):
        ecg = synthetic_ecg(120, 75, snr_db=18, seed=9)
        marks = segment_record(ecg.samples)
        for px, qx, r, sx, tx, on_x, off_x in marks[..., 0].astype(int):
            assert r - 60 <= px < r - 15
            assert r - 15 <= qx < r
            assert r < sx <= r + 15
            assert r + 20 < tx <= r + 100
            assert px < qx <= r <= sx < tx
            assert on_x == round((px + qx) / 2)
            assert off_x == round((sx + tx) / 2)

    @settings(max_examples=300)
    @given(_signal_and_peaks())
    @example((np.zeros(1), np.empty(0, dtype=int)))
    @example((np.zeros(500), np.arange(0, 500, 7)))
    @example((np.arange(800.0) % 3, np.array([400, 400, 100, 700, 100, -5, 900])))
    def test_equals_per_beat_loop(self, case):
        samples, peaks = case
        got = delineate(samples, peaks)
        want = _delineate_loop(samples, peaks)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_peak_past_the_end_dropped(self):
        # Its Q window lies past the last sample; the loop raised ValueError.
        marks = delineate(np.zeros(1000), np.array([500, 1100]))
        assert marks[:, 2, 0].tolist() == [500]

    def test_y_values_from_raw_signal(self):
        ecg = synthetic_ecg(60, 70, snr_db=25, seed=6)
        marks = segment_record(ecg.samples)
        assert marks.dtype == np.float64
        np.testing.assert_array_equal(marks[..., 1], ecg.samples[marks[..., 0].astype(int)])

    def test_scaling_leaves_x_scales_y(self):
        ecg = synthetic_ecg(60, 70, snr_db=22, seed=8)
        m1 = segment_record(ecg.samples)
        m3 = segment_record(3.0 * ecg.samples)
        assert m1.shape == m3.shape
        np.testing.assert_array_equal(m1[..., 0], m3[..., 0])
        np.testing.assert_allclose(m3[..., 1], 3.0 * m1[..., 1], rtol=1e-6)


# 2-min records from 40 to 180 bpm and from 5 to 26 dB SNR.
SCALE_RECORDS = [(40, 5), (60, 26), (80, 12), (100, 20), (120, 8), (140, 15), (160, 22), (180, 10)]


class TestPowerOfTwoScale:
    """Scaling a record by a power of two is exact in IEEE arithmetic, the
    filters are linear and each threshold is an affine mix of the levels,
    so the detector finds the same peaks bit for bit, and delineate the
    same landmarks with every amplitude scaled exactly. Unlike a comparison
    with an older implementation, this holds across a deliberate change of
    the pinned digests."""

    @pytest.mark.parametrize("bpm, snr_db", SCALE_RECORDS)
    def test_detector_and_delineate(self, bpm, snr_db):
        samples = synthetic_ecg(120, bpm, snr_db=snr_db, seed=bpm).samples
        peaks = detect_r_peaks(samples)
        marks = delineate(samples, peaks)
        assert len(marks) > 0
        for s in (2.0**-6, 0.25, 2.0, 8.0, 2.0**6):
            scaled = detect_r_peaks(s * samples)
            assert scaled.tolist() == peaks.tolist()
            got = delineate(s * samples, scaled)
            assert got[..., 0].tobytes() == marks[..., 0].tobytes()
            assert got[..., 1].tobytes() == (s * marks[..., 1]).tobytes()


class TestRobustness:
    def test_inverted_qrs_detected(self):
        # Negative QRS polarity (common in ventricular rhythms): detection
        # works on |filtered|, so recall should not collapse.
        waves = {
            "P": (-160.0, 0.15, 18.0),
            "Q": (-28.0, 0.2, 9.0),
            "R": (0.0, -1.2, 11.0),
            "S": (28.0, 0.25, 9.0),
            "T": (200.0, -0.35, 28.0),
        }
        ecg = synthetic_ecg(120, 80, snr_db=20, seed=2, waves=waves)
        peaks = detect_r_peaks(ecg.samples)
        assert _recall(peaks, ecg.r_locations, tol=12) >= 0.95

    def test_absent_p_wave_still_delineates(self):
        # No P bump at all: a landmark is still emitted inside the P window
        # (clustering separates such beats downstream; no "wave absent" state).
        waves = {
            "P": (-160.0, 0.0, 18.0),
            "Q": (-28.0, -0.25, 9.0),
            "R": (0.0, 1.2, 11.0),
            "S": (28.0, -0.3, 9.0),
            "T": (200.0, 0.4, 28.0),
        }
        ecg = synthetic_ecg(60, 70, snr_db=25, seed=3, waves=waves)
        marks = segment_record(ecg.samples)
        assert len(marks) > 30
        for px, _, r, _, _ in _waves_x(marks):
            assert r - 60 <= px < r - 15

    def test_pure_noise_does_not_crash(self):
        rng = np.random.default_rng(4)
        noise = rng.normal(0, 0.05, int(60 * FS))
        peaks = detect_r_peaks(noise)
        assert np.all(np.diff(peaks) >= REFRACTORY_SAMPLES)
        marks = delineate(noise, peaks)
        assert len(marks) <= len(peaks)

    def test_baseline_wander_rejected(self):
        ecg = synthetic_ecg(120, 75, seed=5)
        t = np.arange(len(ecg.samples)) / FS
        wander = 0.8 * np.sin(2 * np.pi * 0.3 * t)  # 0.3 Hz drift
        peaks_clean = detect_r_peaks(ecg.samples)
        peaks_wander = detect_r_peaks(ecg.samples + wander)
        assert _recall(peaks_wander, ecg.r_locations, tol=12) >= 0.99
        assert abs(len(peaks_wander) - len(peaks_clean)) <= 2
