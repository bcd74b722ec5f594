import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ecgalarm.dwt import (
    DEC_HI,
    DEC_LO,
    DWT_LENGTH,
    STAT_NAMES,
    _central_moments,
    _decompose_step,
    _order_stats,
    _skew_kurtosis,
    band_stats,
    dwt,
    dwt_feature_vector,
    idwt,
)
from ecgalarm.exceptions import EmptyBand, SignalTooShort


def reference(p):
    """Orthonormal Daubechies low-pass decomposition filter with p vanishing
    moments (2p taps), via spectral factorization of the binomial half-band
    polynomial; minimal-phase root selection."""
    roots_y = np.roots([comb(p - 1 + k, k) for k in range(p - 1, -1, -1)])
    roots_z = []
    for y in roots_y:
        # y = (2 - z - 1/z) / 4  =>  z^2 - (2 - 4y) z + 1 = 0
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        roots_z += [z for z in ((b + disc) / 2.0, (b - disc) / 2.0) if abs(z) < 1.0]
    # (1 + z)^p factor contributes the vanishing moments.
    h = np.real(np.poly(roots_z + [-1.0] * p))
    return h * np.sqrt(2.0) / h.sum()


class TestFilters:
    def test_db8_is_16_taps(self):
        assert DEC_LO.shape == DEC_HI.shape == (16,)

    @pytest.mark.pins_openblas
    def test_literals_match_reference(self):
        # Not bit for bit: np.roots runs LAPACK, whose kernels differ per CPU.
        np.testing.assert_allclose(DEC_LO, reference(8), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_literals_match_reference_under_openblas_kernel(self, coretype, kernel_rerun):
        kernel_rerun(f"openblas-{coretype}").assert_passed(
            "tests/test_dwt.py::TestFilters::test_literals_match_reference")

    def test_orthonormality(self):
        # Oracle: sum h = sqrt(2), sum h^2 = 1, even shifts orthogonal.
        for h in (DEC_LO, reference(8)):
            assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
            assert (h**2).sum() == pytest.approx(1.0, abs=1e-12)
            for k in range(1, 8):
                assert np.dot(h[2 * k :], h[: -2 * k]) == pytest.approx(0.0, abs=1e-12)

    def test_db2_matches_reference_values(self):
        np.testing.assert_allclose(
            reference(2),
            [0.4829629131445341, 0.8365163037378079, 0.2241438680420134, -0.1294095225512604],
            atol=1e-12,
        )


class TestDwt:
    def test_constant_annihilated(self):
        coeffs = dwt(np.full(2000, 5.0))
        for band in coeffs.details:
            assert np.max(np.abs(band)) < 1e-8

    @pytest.mark.parametrize("n", [4096, 75000, 75001])
    def test_roundtrip(self, n):
        x = np.random.default_rng(n).normal(size=n)
        coeffs = dwt(x)
        assert np.max(np.abs(idwt(coeffs) - x)) < 1e-8

    def test_band_lengths_follow_formula(self):
        n = 75000
        coeffs = dwt(np.zeros(n))
        taps = 16
        expected = n
        for band in coeffs.details:
            expected = -(-(expected + taps - 1) // 2)  # ceil
            assert len(band) == expected

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            dwt(np.zeros(63))

    def test_deterministic(self):
        x = np.random.default_rng(3).normal(size=500)
        a = dwt(x)
        b = dwt(x)
        for band_a, band_b in zip(a.details, b.details):
            np.testing.assert_array_equal(band_a, band_b)


def _convolve_step(x):
    """`_decompose_step` as full convolutions that drop the odd outputs: the
    bits the decimated step must keep."""
    ext = np.pad(x, len(DEC_LO) - 1, mode="symmetric")
    return (np.convolve(ext, DEC_LO, mode="valid")[0::2],
            np.convolve(ext, DEC_HI, mode="valid")[0::2])


class TestDecomposeStep:
    @pytest.mark.pins_openblas
    def test_bits_equal_full_convolution(self):
        # Seeded signals of 1-3000 samples at scales 1e-3 to 1e3, raw or
        # quantized to ADC steps of 1/200 mV as records are. np.convolve and
        # np.vecdot both sum through OpenBLAS ddot, whose kernel is picked by
        # CPU; the two must agree under each kernel.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=int(rng.integers(1, 3001))) * 10.0 ** int(rng.integers(-3, 4))
            if seed % 2:
                x = np.round(x * 200) / 200
            got, want = _decompose_step(x), _convolve_step(x)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], seed

    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_bits_equal_under_openblas_kernel(self, coretype, kernel_rerun):
        kernel_rerun(f"openblas-{coretype}").assert_passed(
            "tests/test_dwt.py::TestDecomposeStep::test_bits_equal_full_convolution")


class TestBandStats:
    def test_uniform_band(self):
        stats = band_stats(np.array([1.0, 1.0, 1.0, 1.0]))
        named = dict(zip(STAT_NAMES, stats))
        assert named["mean"] == 1.0
        assert named["std"] == 0.0
        assert named["shannon_entropy"] == pytest.approx(np.log(4.0), abs=1e-9)

    def test_single_spike(self):
        stats = dict(zip(STAT_NAMES, band_stats(np.array([0.0, 0.0, 0.0, 5.0]))))
        assert stats["zero_crossings"] == 0.0
        assert stats["max"] == 5.0
        assert stats["energy"] == 25.0

    def test_alternating(self):
        stats = dict(zip(STAT_NAMES, band_stats(np.array([-1.0, 1.0, -1.0, 1.0]))))
        assert stats["zero_crossings"] == 3.0
        assert stats["mean"] == 0.0
        assert stats["rms"] == 1.0

    def test_empty_band_raises(self):
        with pytest.raises(EmptyBand):
            band_stats(np.array([]))

    def test_constant_band_finite(self):
        assert np.all(np.isfinite(band_stats(np.zeros(10))))

    def test_energy_ratio(self):
        stats = dict(zip(STAT_NAMES, band_stats(np.array([3.0, 4.0]), total_energy=50.0)))
        assert stats["energy_ratio"] == pytest.approx(0.5)


@st.composite
def _bands(draw):
    """Bands of 1-3 or up to 64 coefficients. Either raw or rounded (ties),
    around zero or a large offset, with a spread down to below the offset's
    ulp, so near-constant bands reach the second-moment-is-zero branch; or
    drawn from signed zeros, ties, subnormals and values near +-1e308, whose
    differences overflow."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 64)))
    if draw(st.booleans()):
        extremes = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                                    1e308, -1e308, 1.7976931348623157e308])
        return draw(arrays(np.float64, n, elements=extremes))
    x = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        x = np.round(x, decimals)
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e9]))
    spread = draw(st.sampled_from([1.0, 1e-3, 1e-9, 1e-14]))
    return offset + spread * x


def _bits(v):
    return np.float64(v).tobytes()


class TestSkewKurtosis:
    # scipy.stats is the reference the pinned dwt digests were recorded with.
    @settings(max_examples=400)
    @given(_bands())
    @example(np.array([2.5]))
    @example(np.full(5, 1e9))
    @example(np.array([1e9, 1e9 + 2.0**-23, 1e9]))
    def test_bits_equal_scipy(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's precision-loss note
            want = (stats.skew(c), stats.kurtosis(c))
        with np.errstate(all="ignore"):  # sums near +-1e308 overflow
            got = _skew_kurtosis(*_central_moments(c))
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    def test_near_constant_band_is_nan(self):
        skew, kurt = _skew_kurtosis(*_central_moments(np.array([1e9, 1e9 + 2.0**-23, 1e9])))
        assert np.isnan(skew) and np.isnan(kurt)


# Each band statistic that numpy computes in one call, as that call.
_NUMPY_STATS = {
    "mean": np.mean,
    "median": np.median,
    "std": np.std,
    "variance": np.var,
    "mean_abs_dev": lambda c: np.mean(np.abs(c - np.mean(c))),
    "iqr": lambda c: np.percentile(c, 75) - np.percentile(c, 25),
    "p5": lambda c: np.percentile(c, 5),
    "p95": lambda c: np.percentile(c, 95),
    "p25": lambda c: np.percentile(c, 25),
    "p75": lambda c: np.percentile(c, 75),
}
_PERCENTILES = ("iqr", "p5", "p95", "p25", "p75")


@pytest.mark.pins_numpy_simd
class TestBandStatsNumpyBits:
    # band_stats takes the order statistics from one sort and the moments
    # from one set of deviations; each keeps the bits of numpy's own call.
    # One exception: np.percentile lerps between values its partition leaves
    # at two indices, and where -0.0 and 0.0 both fill the neighbourhood,
    # which of them lands where is unspecified (np.percentile already differs
    # between [0.0, -0.0 x 10] and its reverse). A zero percentile may then
    # carry either sign. The median adds +0.0, so it has no such case.
    @settings(max_examples=400)
    @given(_bands())
    @example(np.array([-0.0]))  # numpy clamps the index at n - 1: -0.0, not 0.0
    @example(np.array([-0.0, -0.0, 1.0, -0.0]))
    @example(np.array([-1e308, 1e308]))
    def test_equal_separate_numpy_calls(self, c):
        with np.errstate(all="ignore"):  # differences near +-1e308 overflow
            got = dict(zip(STAT_NAMES, band_stats(c)))
            got["p25"], got["p75"] = _order_stats(np.sort(c))[1][:2]
            want = {name: call(c) for name, call in _NUMPY_STATS.items()}
        both_zeros = len(set(np.signbit(c[c == 0]))) == 2
        for name in _NUMPY_STATS:
            if name in _PERCENTILES and both_zeros and got[name] == want[name] == 0:
                continue
            assert _bits(got[name]) == _bits(want[name]), name


def test_numpy_bits_without_avx512(kernel_rerun):
    kernel_rerun("avx512-off").assert_passed("tests/test_dwt.py::TestBandStatsNumpyBits")


class TestFeatureVector:
    def test_length_120_and_finite(self):
        x = np.random.default_rng(1).normal(size=75000)
        vec = dwt_feature_vector(x)
        assert len(vec) == DWT_LENGTH == 120
        assert np.all(np.isfinite(vec))

    def test_energy_ratios_sum_to_one(self):
        x = np.random.default_rng(2).normal(size=4096)
        vec = dwt_feature_vector(x)
        ratio_idx = STAT_NAMES.index("energy_ratio")
        ratios = vec[ratio_idx::20]
        assert ratios.sum() == pytest.approx(1.0, abs=1e-9)
