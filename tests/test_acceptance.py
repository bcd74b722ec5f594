"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured numbers (run with `pytest -s` to see them all).

Criteria 1-3 need the real challenge training set; they run only when
ECGALARM_DATA_DIR and ECGALARM_LABELS point at the data (directory of
.hea/.mat files and the reformatted answers CSV `record,label`). Everything
else runs on synthetic data in seconds.
"""

import json
import os
from itertools import product

import numpy as np
import pytest

from ecgalarm.cli import main as cli_main
from ecgalarm.clustering import kmeans
from ecgalarm.evaluation import roc_auc, stratified_folds
from ecgalarm.pipeline import featurize_record
from ecgalarm.record_io import TRUE_ALARM
from ecgalarm.segmentation import delineate, detect_r_peaks
from ecgalarm.synthetic import synthetic_ecg
from ecgalarm.tables import read_manifest

DATA_DIR = os.environ.get("ECGALARM_DATA_DIR")
LABELS = os.environ.get("ECGALARM_LABELS")
needs_dataset = pytest.mark.skipif(
    not (DATA_DIR and LABELS),
    reason="set ECGALARM_DATA_DIR and ECGALARM_LABELS to run dataset-scale criteria",
)

EXPECTED_TYPE_COUNTS = {
    "ASY": (116, 94, 22),
    "EBR": (86, 41, 45),
    "VFB": (57, 51, 6),
    "ETC": (131, 8, 123),
    "VTA": (331, 245, 86),
}
TARGET_HLF_CITYBLOCK_METRICS = {
    "accuracy": 0.818, "specificity": 0.83, "sensitivity": 0.81, "auc": 0.85,
}
TOLERANCE = 0.06


@pytest.fixture(scope="module")
def challenge_run(tmp_path_factory):
    """Full pipeline on the real training set (only with the dataset present)."""
    out = tmp_path_factory.mktemp("challenge")
    workers = os.environ.get("ECGALARM_WORKERS", "8")
    code = cli_main([
        "all", "--data-dir", DATA_DIR, "--labels", LABELS, "--out", str(out),
        "--seed", "0", "--folds", "5", "--workers", workers,
        "--scenarios", "DWT,HLF_cityblock",
    ])
    assert code == 0
    return out


@needs_dataset
class TestCriterion1DatasetReproduction:
    def test_hlf_cityblock_boosted_trees_in_band(self, challenge_run):
        report = json.loads((challenge_run / "report.json").read_text())
        cell = report["cells"]["HLF_cityblock/BoostedTrees"]
        for metric, target in TARGET_HLF_CITYBLOCK_METRICS.items():
            assert abs(cell[metric] - target) <= TOLERANCE, (
                f"{metric}: got {cell[metric]:.3f}, target {target}+-{TOLERANCE}"
            )
        print(
            "ACCEPTANCE 1: PASS - HLF_cityblock/BoostedTrees "
            + " ".join(f"{m}={cell[m]:.3f}" for m in TARGET_HLF_CITYBLOCK_METRICS)
        )


@needs_dataset
class TestCriterion2OrderingReproduction:
    def test_hlf_beats_dwt(self, challenge_run):
        report = json.loads((challenge_run / "report.json").read_text())
        hlf_bt = report["cells"]["HLF_cityblock/BoostedTrees"]
        dwt_bt = report["cells"]["DWT/BoostedTrees"]
        assert hlf_bt["accuracy"] >= dwt_bt["accuracy"] + 0.03
        hlf_rus = report["cells"]["HLF_cityblock/RUSBoostedTrees"]
        dwt_rus = report["cells"]["DWT/RUSBoostedTrees"]
        assert hlf_rus["specificity"] > dwt_rus["specificity"]
        print(
            f"ACCEPTANCE 2: PASS - BT accuracy {hlf_bt['accuracy']:.3f} vs "
            f"{dwt_bt['accuracy']:.3f}; RUS specificity {hlf_rus['specificity']:.3f} "
            f"vs {dwt_rus['specificity']:.3f}"
        )


@needs_dataset
class TestCriterion3DatasetStatistics:
    def test_per_type_counts_exact(self, challenge_run):
        rows = read_manifest(challenge_run)
        usable = [r for r in rows if not r["skipped_reason"]]
        assert len(usable) == 721
        for alarm, (n_patients, n_false, n_true) in EXPECTED_TYPE_COUNTS.items():
            members = [r for r in usable if r["alarm_type"] == alarm]
            trues = sum(1 for r in members if r["label"] == "true")
            assert len(members) == n_patients, f"{alarm} patients"
            assert trues == n_true, f"{alarm} true alarms"
            assert len(members) - trues == n_false, f"{alarm} false alarms"
        print("ACCEPTANCE 3: PASS - 721 records, per-type counts exact")


class TestCriterion4DetectorProperties:
    def test_rpeak_recall_all_rates(self):
        worst = 1.0
        for bpm in (60, 120, 180):
            ecg = synthetic_ecg(300, bpm, snr_db=20, seed=bpm)
            peaks = detect_r_peaks(ecg.samples)
            hits = sum(
                1 for t in ecg.r_locations
                if len(peaks) and np.min(np.abs(peaks - t)) <= 12  # 50 ms
            )
            recall = hits / len(ecg.r_locations)
            worst = min(worst, recall)
            assert recall >= 0.99, f"{bpm} bpm recall {recall:.4f}"
        print(f"ACCEPTANCE 4a: PASS - R-peak recall >= 99% at 60/120/180 bpm (worst {worst:.4f})")

    def test_delineation_error_bound(self):
        ecg = synthetic_ecg(300, 60, snr_db=20, seed=1)
        peaks = detect_r_peaks(ecg.samples)
        marks = delineate(ecg.samples, peaks)
        assert len(marks) > 0
        good = 0
        for beat in marks[:, :5, 0]:  # P, Q, R, S, T positions
            ti = int(np.argmin(np.abs(ecg.landmarks["R"] - beat[2])))
            errs = [abs(x - ecg.landmarks[wave][ti]) for x, wave in zip(beat, "PQRST")]
            if max(errs) <= 5:  # 20 ms
                good += 1
        frac = good / len(marks)
        assert frac >= 0.95
        print(f"ACCEPTANCE 4b: PASS - delineation within 20 ms for {frac:.1%} of beats")


class TestCriterion5NumericalProperties:
    def test_dwt_roundtrip(self):
        from ecgalarm.dwt import dwt, idwt

        worst = 0.0
        for n in (4096, 75000, 75001):
            x = np.random.default_rng(n).normal(size=n)
            err = float(np.max(np.abs(idwt(dwt(x)) - x)))
            worst = max(worst, err)
            assert err < 1e-8
        print(f"ACCEPTANCE 5a: PASS - DWT round-trip max error {worst:.2e}")

    def test_kmeans_objective_monotone_100(self):
        for s in range(100):
            X = np.random.default_rng(s).normal(size=(20, 4))
            trace = kmeans(X, 3, "cityblock" if s % 2 else "sqeuclidean", seed=s).objective_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        print("ACCEPTANCE 5b: PASS - k-means objective non-increasing on 100 instances")

    def test_kmeans_matches_bruteforce(self):
        def brute(X, metric):
            best = np.inf
            for bits in product([0, 1], repeat=len(X)):
                if len(set(bits)) < 2:
                    continue
                cost = 0.0
                for c in (0, 1):
                    members = X[np.array(bits) == c]
                    if metric == "cityblock":
                        center = np.median(members, axis=0)
                        cost += np.sum(np.abs(members - center))
                    else:
                        center = np.mean(members, axis=0)
                        cost += np.sum((members - center) ** 2)
                best = min(best, cost)
            return best

        matches = 0
        for s in range(100):
            rng = np.random.default_rng(5000 + s)
            X = rng.normal(size=(int(rng.integers(4, 9)), 2))
            metric = "cityblock" if s % 2 else "sqeuclidean"
            got = kmeans(X, 2, metric, seed=s, restarts=10).objective
            if got <= brute(X, metric) + 1e-9:
                matches += 1
        assert matches >= 95
        print(f"ACCEPTANCE 5c: PASS - k-means optimal on {matches}/100 small instances")

    def test_adaboost_hand_computed_round(self):
        from ecgalarm.ensemble import fit_adaboost

        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, 1, -1, -1])
        model = fit_adaboost(X, y, rounds=1, learning_rate=1.0, max_splits=1)
        expected = 0.5 * np.log(3.0)
        assert abs(model.alphas[0] - expected) <= 1e-12
        print(f"ACCEPTANCE 5d: PASS - AdaBoost alpha = ln(3)/2 within 1e-12")

    def test_auc_trapezoid_equals_mann_whitney_100(self):
        # roc_auc raises internally if the two computations diverge > 1e-12.
        count = 0
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(8, 50))
            y = np.where(rng.random(n) > 0.5, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            roc_auc(y, np.round(rng.normal(size=n), 1))
            count += 1
        assert count >= 90
        print(f"ACCEPTANCE 5e: PASS - AUC trapezoid == Mann-Whitney on {count} vectors")


class TestCriterion6DimensionalContracts:
    def test_feature_vector_lengths(self):
        ecg = synthetic_ecg(60, 75, snr_db=20, seed=3)
        feats = featurize_record("r1", ecg.samples, "VTA", TRUE_ALARM, seed=5)

        from ecgalarm.segment_features import segment_features
        from ecgalarm.segmentation import segment_record

        matrix = segment_features(segment_record(ecg.samples))
        assert matrix.shape[1] == 84
        assert len(feats.llf) == 588
        assert len(feats.hlf_cityblock) == 31
        assert len(feats.hlf_euclidean) == 31
        assert len(feats.dwt) == 120
        combined = np.concatenate([feats.dwt, feats.hlf_cityblock])
        assert len(combined) == 151
        sizes = feats.hlf_cityblock[6:11]
        assert np.all(np.diff(sizes) >= 0), "cluster-size block must be non-decreasing"
        print("ACCEPTANCE 6: PASS - dimensions 84/588/31/120/151, sizes non-decreasing")


class TestCriterion7Determinism:
    def test_end_to_end_byte_identical(self, fixture_dataset, tmp_path):
        data_dir, labels = fixture_dataset
        digests = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            code = cli_main([
                "all", "--data-dir", str(data_dir), "--labels", str(labels),
                "--out", str(out), "--seed", "123", "--folds", "4",
                "--scenarios", "DWT,HLF_cityblock",
            ])
            assert code == 0
            blob = b"".join(
                (out / rel).read_bytes()
                for rel in sorted(
                    p.relative_to(out).as_posix()
                    for p in out.rglob("*")
                    if p.is_file() and p.suffix in (".csv", ".json", ".md")
                )
            )
            digests.append(blob)
        assert digests[0] == digests[1]
        print("ACCEPTANCE 7: PASS - two identical-config runs byte-identical")
