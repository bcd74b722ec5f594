"""Byte-identity oracle for the featurize path.

The digests below were computed from the detector and k-means as they were
before their per-candidate and per-iteration work was vectorized; any drift
in R-peak indices or in a feature array fails here. The records cover slow
and fast rhythms, a noisy record (10 dB SNR) and one with dropped beats,
where the detector's search-back runs.
"""

import hashlib

import numpy as np
import pytest

from ecgalarm.pipeline import featurize_record
from ecgalarm.segmentation import detect_r_peaks
from ecgalarm.synthetic import synthetic_ecg

FS = 250.0

# 5-min synthetic_ecg records: name -> keyword arguments.
RECORDS = {
    "bpm40": dict(bpm=40, snr_db=20.0, seed=1),
    "bpm75_snr10": dict(bpm=75, snr_db=10.0, seed=2),
    "bpm150_dropped": dict(bpm=150, snr_db=20.0, seed=3, drop_beats=(100, 101, 400)),
    "bpm190": dict(bpm=190, snr_db=15.0, seed=4),
}

DIGESTS = {
    "bpm40": {
        "r_peaks": "b429959a12dd43a8d19bb933ffd454886d055a49ad0c2736565a32c91d78bd68",
        "llf": "6c2b17b68d382281e23a1a778179e0a1c402be2ac7facb3ff1040d40302805f5",
        "hlf_cityblock": "e250b6fe3489b69d50f28608bd0b93fe10b8e4139028b4aa8b745224d519586a",
        "hlf_euclidean": "e8e4b1131f692500ed2714eba5c29c76ae87d5b2f26536c62cc493e94aff080e",
        "dwt": "4df02abd0a4c816dd4f494fd00268096a99f3b5198893551c5c5cb3b206cce98",
        "heart_rate": "ca6c6055f8cfc7446fd7ad85197112c4c22e2ba69fb93846160c15066d20bd54",
        "n_beats": "b7eb91408f885cfdf186e9927f0a5d1e1024235fc062b412153ec4a24156ff7a",
    },
    "bpm75_snr10": {
        "r_peaks": "c5f350936e86aa3a6014cab437dd53c5548f74b7905ef3a93bc0d10d7553f3cc",
        "llf": "07a2d15bcf224c1ec135f70df1e6eddc6650ef1f422c02ed777f8887e30c2546",
        "hlf_cityblock": "ffc8e73c1c7c6382dca06d017f0705b5e9187532bf37f91f0dd8c52eff8c6786",
        "hlf_euclidean": "5a5d27f280e20c7201c2b7ef7b8761b71692dd281bf0aa98a09f09b563f46dcd",
        "dwt": "fb43ab3e07b62535ae40d43cb93a7eacca2ea47a9c739a6c113782cf4051830c",
        "heart_rate": "306eaafe9ac9ec27b99935046f9b9e14b48ccacafec2c0b40a5b56a41dcaa0de",
        "n_beats": "512b8c9d137648a744f8b5d0f0302c824440509ee5670301112c045d7ade81db",
    },
    "bpm150_dropped": {
        "r_peaks": "9927a971d89d379f4511fe2d307d9fbedea32c81d798372f24be78c743e4860a",
        "llf": "87facb1c76e21bc6095f0416ff44631a1cec12b8d9521c2b3baa21b35e570ee4",
        "hlf_cityblock": "a33e3d51dd7a08d5e246c5ba27ca557533664114b56f613077b01d47ec99697e",
        "hlf_euclidean": "cacbab03c49c96867d936892449c999336b7cef9c34d880c56dc12b749be106d",
        "dwt": "d1070946d12afc6ea6cbf9dbb549ac6e313fba53e4e1b1767ed8ca7792e3d116",
        "heart_rate": "5733120850b78d9c5ab3809fe4a89b08a0b2dd7c1dd5349e934e97b52b49e216",
        "n_beats": "350b758f23a2e887c187ad6f9252afc5fac4e8888662eed72bed273385d6c069",
    },
    "bpm190": {
        "r_peaks": "950fa2d7ba36965e04734fccb91fafc5a284e61b1e4cbcc4672e7a97d7ae9673",
        "llf": "f96df2941b1c55395048ef3027010cd8532c8406605f97bf38f5d652adedcead",
        "hlf_cityblock": "097304a041146d90f7d2e1015f95912e5d6454900028afd6c8fca0ddb7dcae0d",
        "hlf_euclidean": "27629c4f2775499130c100416010b4c0808577764d873e7d2feabd88475aae49",
        "dwt": "0013abcd083bc5f35bf9621f634a16b49f8b80f0ed7a245c1d9728cabf75c1ac",
        "heart_rate": "f83a734488c6eebb5d9749e134b90e7e9a8e18a8baca83bd958d6e97b288360e",
        "n_beats": "5c10f6d1fc071e0f1293b11f1b7e54cf50f9d0648397b8b528c6daed93b8b3eb",
    },
}


def _digest(value) -> str:
    """sha256 over dtype, shape and raw bytes."""
    a = np.ascontiguousarray(np.asarray(value))
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_featurize_bytes_unchanged(name):
    ecg = synthetic_ecg(300, **RECORDS[name])
    got = {"r_peaks": _digest(detect_r_peaks(ecg.samples, FS))}
    feats = featurize_record(name, ecg.samples, FS, "VTA", 1, seed=7)
    for field in ("llf", "hlf_cityblock", "hlf_euclidean", "dwt", "heart_rate", "n_beats"):
        got[field] = _digest(getattr(feats, field))
    assert got == DIGESTS[name]
