import numpy as np
import pytest

from ecgalarm.dwt import STAT_NAMES
from ecgalarm.exceptions import NonFiniteSignal
from ecgalarm.pipeline import featurize_record
from ecgalarm.synthetic import synthetic_ecg


class TestNonFiniteSignal:
    # A bad sample used to pass through: an inf at sample 3000 of this record
    # cut the beats found from 75 to 15, a NaN there wrote NaN into 84 of
    # the 120 DWT entries.
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_first_bad_sample_named(self, value):
        samples = synthetic_ecg(60, 75, snr_db=20, seed=1).samples.copy()
        samples[[3000, 9000]] = value
        with pytest.raises(NonFiniteSignal, match=f"^sample 3000 is {value}$"):
            featurize_record("r1", samples, "VTA")

    def test_finite_record_unaffected(self):
        samples = synthetic_ecg(60, 75, snr_db=20, seed=1).samples
        assert featurize_record("r1", samples, "VTA").n_beats == 75


class TestFlatline:
    # A constant record's detail bands each hold one value: every
    # coefficient is the same dot product of the filter with a constant
    # window. So each band's std is 0, and band_stats gives skewness and
    # kurtosis 0 where _skew_kurtosis would give NaN; the DWT row is finite.
    @pytest.mark.parametrize("level", [0.0, 0.5, -1.37, 2047 / 200])
    def test_dc_level_gives_finite_dwt_row(self, level):
        dwt = featurize_record("r1", np.full(75000, level), "ASY").dwt
        assert np.isfinite(dwt).all()
        for stat in ("std", "skewness", "kurtosis"):
            assert dwt[STAT_NAMES.index(stat)::len(STAT_NAMES)].tolist() == [0.0] * 6
