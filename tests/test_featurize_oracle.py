"""Byte-identity oracle for the featurize path.

The digests below were computed from the detector and k-means as they were
before their per-candidate and per-iteration work was vectorized; any drift
in R-peak indices or in a feature array fails here. The records cover slow
and fast rhythms, a noisy record (10 dB SNR) and one with dropped beats,
where the detector's search-back runs.

`QUANTIZED_DIGESTS` pin the same records after WFDB encoding, as ingest
sees them: 16-bit ADC values at 200 units per mV. Their input digest is
pinned on its own, so a change in the generator's float bits shows up as an
input change; the outputs were recorded before delineation and k-means
worked on whole arrays.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ecgalarm.pipeline import featurize_record
from ecgalarm.record_io import encode_signal, parse_header, read_signal
from ecgalarm.segmentation import detect_r_peaks
from ecgalarm.synthetic import synthetic_ecg

GAIN = 200.0  # ADC units per mV

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


QUANTIZED_DIGESTS = {
    "bpm40": {
        "input": "caa148a3e7b2fc8d0ebe09c348d05207a68776c03a9442ad2d7b04816d1b156e",
        "r_peaks": "b429959a12dd43a8d19bb933ffd454886d055a49ad0c2736565a32c91d78bd68",
        "llf": "786b2a996b1c6694ac4d1dd3c651527509fa1a9b0155f3893f1b36b221ed389b",
        "hlf_cityblock": "ff7c8a76a0872d71f0313f4b9e47126d15be5f0e32b1716a6e3c85105cc8de51",
        "hlf_euclidean": "9abb141ece5e0cde1660c53dc20d591bd21a9b30060787fb66de83faf8d4afdc",
        "dwt": "cde12982e51ce9f276380419c53ad5d65ae1de161ce397ac90cf177b55f088ea",
        "heart_rate": "ca6c6055f8cfc7446fd7ad85197112c4c22e2ba69fb93846160c15066d20bd54",
        "n_beats": "b7eb91408f885cfdf186e9927f0a5d1e1024235fc062b412153ec4a24156ff7a",
    },
    "bpm75_snr10": {
        "input": "b768625bd1b0cc615ee61c45e9229b02bdf25d0be31e7b34540a340cb87a9715",
        "r_peaks": "c5f350936e86aa3a6014cab437dd53c5548f74b7905ef3a93bc0d10d7553f3cc",
        "llf": "ceb648e8843a28cd084a29d33b349c51790c59435a1db5346f70a8ed6285f4be",
        "hlf_cityblock": "e21128279036ae30e37de62f6c67f3ebf940a880e9820403f19bd7690300abe8",
        "hlf_euclidean": "0b75495990c18a1968eb8b2f222f2a04fb416c632be93208638766a2ae75ee73",
        "dwt": "48cdab1b8ab1f21cdb3ebfdc6d24573d4ff14b1a470c94ff58230d558959ed9d",
        "heart_rate": "306eaafe9ac9ec27b99935046f9b9e14b48ccacafec2c0b40a5b56a41dcaa0de",
        "n_beats": "512b8c9d137648a744f8b5d0f0302c824440509ee5670301112c045d7ade81db",
    },
    "bpm150_dropped": {
        "input": "750ccfba30413c2d67ddca34939fd78cbafe607cbbf43bfa9fdebe31b0402757",
        "r_peaks": "9927a971d89d379f4511fe2d307d9fbedea32c81d798372f24be78c743e4860a",
        "llf": "7b22765fb0190ff8d41d4a664c2c3705807832d6eee37d62ffa32c5181f01400",
        "hlf_cityblock": "48766ede3179fcd223495ab8820e5b4833b3c4fd1532e55306d67769c5e5eb67",
        "hlf_euclidean": "2c39dc75ec8b20ff9d250f674c9161461c69d3e1cf62cb679edc62c3ef9611b1",
        "dwt": "eb46d55bed69e5e8e043d9d73c1f4298e46920026c9b6b68deb156e4646f8ae2",
        "heart_rate": "5733120850b78d9c5ab3809fe4a89b08a0b2dd7c1dd5349e934e97b52b49e216",
        "n_beats": "350b758f23a2e887c187ad6f9252afc5fac4e8888662eed72bed273385d6c069",
    },
    "bpm190": {
        "input": "4b4b50bafa2194adb929d37e91299febb20cf5a96e6f580ab6cf1c218a2cf883",
        "r_peaks": "83f23b11c67e16b196dd7697ba0b199f5f65a59a4e0f4ada1f6c154efda7b507",
        "llf": "244de702b0594af7e3411fae5cae70bb8b69be4c4a53fc7d73842bd70b54f6b8",
        "hlf_cityblock": "419260a399f3f9bd724493106a58dda1b74be582dc9d5468fb9e9aad1948f812",
        "hlf_euclidean": "08f3d4a3f0a90ad4b56b0723e6d7b5eaec4f3b214d8a883b7ccc59c0352d1844",
        "dwt": "2be4170cbf842ddb0b1f76abc7f2cf29a05db624a8402a175bd624c454a57a6c",
        "heart_rate": "f83a734488c6eebb5d9749e134b90e7e9a8e18a8baca83bd958d6e97b288360e",
        "n_beats": "5c10f6d1fc071e0f1293b11f1b7e54cf50f9d0648397b8b528c6daed93b8b3eb",
    },
}


def _digest(value) -> str:
    """sha256 over dtype, shape and raw bytes."""
    a = np.ascontiguousarray(np.asarray(value))
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _as_ingested(samples: np.ndarray) -> np.ndarray:
    """The samples after a round trip through a format-16 lead II record."""
    adc = np.clip(np.round(samples * GAIN), -32768, 32767).astype(np.int16)
    header = parse_header(f"q 1 250 {adc.size}\nq.mat 16 {GAIN:g}(0) 16 0 0 0 0 II\n")
    return read_signal(header, encode_signal([adc]), 0)


def _output_digests(name: str, samples: np.ndarray) -> dict:
    got = {"r_peaks": _digest(detect_r_peaks(samples))}
    feats = featurize_record(name, samples, "VTA", 1, seed=7)
    for field in ("llf", "hlf_cityblock", "hlf_euclidean", "dwt", "heart_rate", "n_beats"):
        got[field] = _digest(getattr(feats, field))
    return got


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_featurize_bytes_unchanged(name):
    ecg = synthetic_ecg(300, **RECORDS[name])
    assert _output_digests(name, ecg.samples) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_quantized_input_bytes_unchanged(name):
    samples = _as_ingested(synthetic_ecg(300, **RECORDS[name]).samples)
    assert _digest(samples) == QUANTIZED_DIGESTS[name]["input"]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_quantized_featurize_bytes_unchanged(name):
    samples = _as_ingested(synthetic_ecg(300, **RECORDS[name]).samples)
    want = {k: v for k, v in QUANTIZED_DIGESTS[name].items() if k != "input"}
    assert _output_digests(name, samples) == want


def test_quantized_delineate_and_lloyd_without_avx512(without_avx512):
    # The quantized cases, delineation, the detector's scan, the cluster
    # medians and Lloyd hold their bits whichever SIMD kernels numpy
    # dispatches to.
    tests = Path(__file__).parent
    done = without_avx512(f"{__file__}::test_quantized_input_bytes_unchanged",
                          f"{__file__}::test_quantized_featurize_bytes_unchanged",
                          f"{tests / 'test_segmentation.py'}::TestDelineate",
                          f"{tests / 'test_segmentation.py'}::TestDetectorEqualsLoop",
                          f"{tests / 'test_clustering.py'}::TestMedians",
                          f"{tests / 'test_clustering.py'}::TestLloydTraceProperty")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "22 passed" in done.stdout
