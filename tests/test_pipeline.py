import numpy as np
import pytest

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
