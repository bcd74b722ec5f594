"""Per-record feature extraction: one record in, all four feature vectors out.

Kept separate from the CLI so worker processes can import it and tests can
drive the exact code path the commands use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import kmeans, record_seed
from .dwt import dwt_feature_vector
from .exceptions import NonFiniteSignal
from .feature_synthesis import HLF_CLUSTERS, HLF_METRICS, synthesize
from .segment_features import heart_rate, llf_tail, segment_features
from .segmentation import segment_record


@dataclass
class RecordFeatures:
    record_name: str
    n_beats: int
    heart_rate: float
    llf: np.ndarray  # 588
    hlf_cityblock: np.ndarray  # 31
    hlf_euclidean: np.ndarray  # 31
    dwt: np.ndarray  # 120


def featurize_record(
    record_name: str,
    samples: np.ndarray,
    alarm_type: str,
    seed: int = 0,
) -> RecordFeatures:
    """Run segmentation, clustering, and all feature banks for one record.

    Records where nothing can be delineated (flatline, too few beats) fall
    back to the documented sentinels: zero heart rate, zero LLF, and the
    padded high-level vector. NonFiniteSignal names the first NaN or
    infinite sample: the detector and the DWT statistics would carry it on
    silently.
    """
    samples = np.asarray(samples, dtype=np.float64)
    finite = np.isfinite(samples)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteSignal(f"sample {first} is {samples[first]}")
    marks = segment_record(samples)
    hr = heart_rate(marks)
    rows = segment_features(marks)

    hlf = {}
    for bank, metric in HLF_METRICS.items():
        if len(rows) > 0:
            clustering = kmeans(rows, k=HLF_CLUSTERS, metric=metric,
                                seed=record_seed(seed, record_name))
        else:
            clustering = None
        hlf[bank] = synthesize(clustering, hr, alarm_type)

    return RecordFeatures(
        record_name=record_name,
        n_beats=len(marks),
        heart_rate=hr,
        llf=llf_tail(rows),
        dwt=dwt_feature_vector(samples),
        **hlf,
    )


def _featurize_task(args) -> tuple[str, RecordFeatures | None, str]:
    """Pool-friendly wrapper: returns (record, features-or-None, error)."""
    record_name, cache_path, alarm_type, seed = args
    try:
        samples = np.load(cache_path)
        feats = featurize_record(record_name, samples, alarm_type, seed)
        return record_name, feats, ""
    except Exception as exc:  # per-record failures must not kill the batch
        return record_name, None, f"{type(exc).__name__}: {exc}"
