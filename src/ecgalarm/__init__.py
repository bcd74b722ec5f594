"""Single-lead ECG false-alarm classification.

Pipeline: WFDB ingestion -> Pan-Tompkins segmentation -> 84 per-segment
features -> per-patient k-means -> 31 high-level features -> boosted trees,
with DWT and raw time-domain baselines and a cross-validated experiment
matrix. See the demos/ directory for narrative walkthroughs of each stage.
"""

from .clustering import Clustering, kmeans, record_seed
from .dwt import band_stats, dwt, dwt_feature_vector, idwt
from .ensemble import BoostedEnsemble, DecisionTree, fit_adaboost, fit_rusboost, fit_tree
from .evaluation import (
    FeatureTable,
    confusion_metrics,
    roc_auc,
    run_matrix,
    stratified_folds,
)
from .feature_synthesis import normalize_centroid, synthesize
from .pipeline import RecordFeatures, featurize_record
from .record_io import (
    ALARM_TYPES,
    FALSE_ALARM,
    TRUE_ALARM,
    EcgRecord,
    RecordHeader,
    load_any,
    load_labels,
    parse_header,
    read_signal,
)
from .segment_features import FEATURE_NAMES, heart_rate, llf_tail, segment_features
from .segmentation import LANDMARKS, bandpass, delineate, detect_r_peaks, segment_record
from .synthetic import SyntheticEcg, synthetic_ecg

__version__ = "0.1.0"
