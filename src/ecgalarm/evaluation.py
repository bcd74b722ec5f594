"""Stratified cross-validation, classification metrics, and the experiment
matrix over the six feature scenarios and two boosting algorithms.

Folds are stratified on (alarm type x label). `CLASSIFIERS` maps each
booster's name to its fit; `_fold_scores` fits one (scenario, classifier,
fold) task through it on the other folds' rows and returns its held-out
scores; `run_cell` pools them, so each record is scored once, and takes
accuracy / sensitivity / specificity / AUC and the per-fold rows from the
pool. The positive class is the true alarm, so specificity reads as the
fraction of false alarms correctly suppressed. A rate over an empty class (a
fold without positives) is undefined: None, written as JSON null, since
strict JSON has no NaN.

The ROC takes one step per run of equal scores in one stable descending
sort: the run's first score is its threshold, so a zero keeps that score's
sign, and the cumulative counts at its last index give its rates. The
trapezoids add strictly left to right by ``np.cumsum`` (``sum`` compensates
from Python 3.12 on), and must agree with the Mann-Whitney AUC to 1e-12.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .clustering import record_seed
from .ensemble import (
    DEFAULT_LEARNING_RATE,
    DEFAULT_MAX_SPLITS,
    DEFAULT_ROUNDS,
    DEFAULT_TARGET_RATIO,
    fit_adaboost,
    fit_rusboost,
)
from .exceptions import ConfigError, EmptyInput, NoWeakLearner, SingleClassError, UndefinedAuc
from .record_io import TRUE_ALARM

# Booster name -> its fit on a fold's training rows, looked up here at each call.
CLASSIFIERS = {
    "BoostedTrees": lambda X, y, seed: fit_adaboost(X, y),
    "RUSBoostedTrees": lambda X, y, seed: fit_rusboost(X, y, seed=seed),
}
# Scenario -> the feature banks whose columns it concatenates, in order.
SCENARIOS = {
    "LLF": ("llf",),
    "DWT": ("dwt",),
    "HLF_cityblock": ("hlf_cityblock",),
    "HLF_euclidean": ("hlf_euclidean",),
    "DWT+HLF_cityblock": ("dwt", "hlf_cityblock"),
    "DWT+HLF_euclidean": ("dwt", "hlf_euclidean"),
}
METRIC_ROWS = ("accuracy", "specificity", "sensitivity", "auc")


def stratified_folds(
    records: list[tuple[str, int]], k: int, seed: int = 0
) -> np.ndarray:
    """Fold index per record, stratified on (alarm_type, label).

    Each stratum is shuffled with the seeded generator and dealt round-robin,
    so per-stratum fold sizes differ by at most one.
    """
    n = len(records)
    if k < 2:
        raise ConfigError("need at least 2 folds")
    if k > n:
        raise ConfigError(f"cannot make {k} folds from {n} records")

    strata: dict[tuple[str, int], list[int]] = {}
    for i, (alarm, label) in enumerate(records):
        strata.setdefault((alarm, label), []).append(i)

    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=int)
    offset = 0  # carries across strata so tiny strata still spread over folds
    for key in sorted(strata):
        members = np.array(strata[key])
        rng.shuffle(members)
        for pos, idx in enumerate(members):
            folds[idx] = (offset + pos) % k
        offset = (offset + len(members)) % k
    return folds


@dataclass
class ConfusionMetrics:
    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / (self.tp + self.tn + self.fp + self.fn)

    @property
    def sensitivity(self) -> float | None:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    @property
    def specificity(self) -> float | None:
        denom = self.tn + self.fp
        return self.tn / denom if denom else None


def confusion_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMetrics:
    """Confusion counts and derived rates; positive class = true alarm."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise EmptyInput("no predictions to score")
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    pos = y_true == TRUE_ALARM
    pred_pos = y_pred == TRUE_ALARM
    return ConfusionMetrics(
        tp=int(np.sum(pos & pred_pos)),
        fn=int(np.sum(pos & ~pred_pos)),
        tn=int(np.sum(~pos & ~pred_pos)),
        fp=int(np.sum(~pos & pred_pos)),
    )


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, tied values sharing the mean of their ranks. Every
    rank is a half-integer, so the floats are exact."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc(y_true: np.ndarray, scores: np.ndarray):
    """AUC and the ROC's (fpr, tpr, threshold) points, from +inf down."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    pos = y_true == TRUE_ALARM
    n_pos = int(pos.sum())
    n_neg = int(len(y_true) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAuc("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]
    tp = np.cumsum(pos[order])[ends - 1]
    fpr = np.r_[0.0, (ends - tp) / n_neg]
    tpr = np.r_[0.0, tp / n_pos]
    points = list(zip(fpr.tolist(), tpr.tolist(), np.r_[np.inf, s[starts]].tolist()))
    auc_trap = float(np.cumsum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)[-1])

    ranks = _midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    auc_mw = u / (n_pos * n_neg)
    if abs(auc_trap - auc_mw) > 1e-12:
        raise AssertionError(
            f"trapezoid AUC {auc_trap!r} disagrees with Mann-Whitney {auc_mw!r}"
        )
    return auc_trap, points


@dataclass
class FeatureTable:
    """Aligned per-record design matrix for one scenario."""

    records: list[str]
    y: np.ndarray  # +-1 labels
    X: np.ndarray


def _fold_scores(table: FeatureTable, folds: np.ndarray, scenario: str, classifier: str,
                 fold: int, seed: int) -> np.ndarray:
    """Held-out scores of one fold, by a model fitted on the other folds' rows.
    A fit's SingleClassError or NoWeakLearner is re-raised with the cell, the
    fold and the fold's training class counts in front of its message."""
    train = folds != fold
    X_train, y_train = table.X[train], table.y[train]
    try:
        model = CLASSIFIERS[classifier](X_train, y_train,
                                        record_seed(seed, f"{scenario}|{classifier}|{fold}"))
    except (SingleClassError, NoWeakLearner) as error:
        n_true = int(np.sum(y_train == TRUE_ALARM))
        raise type(error)(f"{scenario}/{classifier} fold {fold} ({n_true} true, "
                          f"{len(y_train) - n_true} false in training): {error}") from error
    return model.score_batch(table.X[~train])


def run_cell(
    table: FeatureTable, folds: np.ndarray, scenario: str, classifier: str, seed: int
) -> dict:
    """Cross-validated evaluation of one (scenario, classifier) cell, as its
    report.json entry: every fold's held-out scores, pooled, then reduced."""
    fold_ids = sorted(set(folds.tolist()))
    scores = np.zeros(len(table.records))
    for fold in fold_ids:
        scores[folds == fold] = _fold_scores(table, folds, scenario, classifier, fold, seed)

    pred = np.where(scores >= 0, 1, -1)
    per_fold = []
    for fold in fold_ids:
        held = folds == fold
        fold_conf = confusion_metrics(table.y[held], pred[held])
        per_fold.append(
            {
                "fold": fold,
                "n_test": int(held.sum()),
                "accuracy": fold_conf.accuracy,
                "sensitivity": fold_conf.sensitivity,
                "specificity": fold_conf.specificity,
            }
        )
    confusion = confusion_metrics(table.y, pred)
    auc, points = roc_auc(table.y, scores)
    return {
        "scenario": scenario,
        "classifier": classifier,
        "accuracy": confusion.accuracy,
        "sensitivity": confusion.sensitivity,
        "specificity": confusion.specificity,
        "auc": auc,
        "confusion": asdict(confusion),
        "per_fold": per_fold,
        "roc_points": [list(pt) for pt in points],
    }


def run_matrix(
    tables: dict[str, FeatureTable],
    manifest: dict[str, tuple[str, int]],
    folds: int = 5,
    seed: int = 0,
) -> dict:
    """Evaluate every scenario of `tables`, in its order, under both CLASSIFIERS
    on shared folds. The tables list the same records, and `manifest` maps
    each to its (alarm type, label); `cli._load_tables` checks both."""
    records = next(iter(tables.values())).records
    fold_of = stratified_folds([manifest[name] for name in records], folds, seed)
    return {
        "config": {
            "folds": folds,
            "seed": seed,
            "scenarios": list(tables),
            "classifiers": list(CLASSIFIERS),
            "n_records": len(records),
            "rounds": DEFAULT_ROUNDS,
            "learning_rate": DEFAULT_LEARNING_RATE,
            "max_splits": DEFAULT_MAX_SPLITS,
            "target_ratio": DEFAULT_TARGET_RATIO,
        },
        "cells": {
            f"{scenario}/{classifier}": run_cell(table, fold_of, scenario, classifier, seed)
            for scenario, table in tables.items()
            for classifier in CLASSIFIERS
        },
    }


def render_markdown(report: dict) -> str:
    """Markdown tables, one per classifier: metric rows x scenario columns."""
    scenarios = report["config"]["scenarios"]
    classifiers = report["config"]["classifiers"]
    lines = []
    for classifier in classifiers:
        lines.append(f"## {classifier}")
        lines.append("")
        lines.append("| Metric | " + " | ".join(scenarios) + " |")
        lines.append("|---" * (len(scenarios) + 1) + "|")
        cells = [report["cells"][f"{scenario}/{classifier}"] for scenario in scenarios]
        for metric in METRIC_ROWS:
            row = [metric.capitalize()] + [f"{cell[metric]:.3f}" for cell in cells]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)
