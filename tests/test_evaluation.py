import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ecgalarm.clustering import record_seed
from ecgalarm.ensemble import DEFAULT_ROUNDS, fit_adaboost, fit_rusboost
from ecgalarm.evaluation import (
    CLASSIFIERS,
    FeatureTable,
    _fold_scores,
    _midranks,
    confusion_metrics,
    render_markdown,
    roc_auc,
    run_cell,
    run_matrix,
    stratified_folds,
)
from ecgalarm.exceptions import (
    ConfigError,
    EmptyInput,
    NoWeakLearner,
    SingleClassError,
    UndefinedAuc,
)
from ecgalarm.record_io import ALARM_TYPES, FALSE_ALARM, TRUE_ALARM


class TestStratifiedFolds:
    def test_one_record_per_stratum(self):
        records = [(a, lab) for a in ALARM_TYPES for lab in (TRUE_ALARM, FALSE_ALARM)]
        folds = stratified_folds(records, 5, seed=1)
        counts = np.bincount(folds, minlength=5)
        assert np.all(counts == 2)

    def test_challenge_shaped_counts(self):
        # Per-type (false, true) counts as in the challenge training set.
        plan = {
            "ASY": (94, 22), "EBR": (41, 45), "VFB": (51, 6),
            "ETC": (8, 123), "VTA": (245, 86),
        }
        records = []
        for alarm, (n_false, n_true) in plan.items():
            records += [(alarm, FALSE_ALARM)] * n_false + [(alarm, TRUE_ALARM)] * n_true
        assert len(records) == 721
        folds = stratified_folds(records, 5, seed=0)
        vfb_true = [i for i, r in enumerate(records) if r == ("VFB", TRUE_ALARM)]
        per_fold = np.bincount(folds[vfb_true], minlength=5)
        assert np.all(per_fold >= 1)
        # per-stratum fold sizes differ by at most one
        for alarm, (n_false, n_true) in plan.items():
            for label, expect in ((FALSE_ALARM, n_false), (TRUE_ALARM, n_true)):
                idx = [i for i, r in enumerate(records) if r == (alarm, label)]
                sizes = np.bincount(folds[idx], minlength=5)
                assert sizes.max() - sizes.min() <= 1

    def test_seed_determinism(self):
        records = [("ASY", TRUE_ALARM)] * 10 + [("VTA", FALSE_ALARM)] * 15
        a = stratified_folds(records, 5, seed=3)
        b = stratified_folds(records, 5, seed=3)
        c = stratified_folds(records, 5, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_partition_properties(self):
        records = [("ETC", TRUE_ALARM)] * 13 + [("EBR", FALSE_ALARM)] * 8
        folds = stratified_folds(records, 4, seed=9)
        assert len(folds) == 21
        assert set(folds.tolist()) == {0, 1, 2, 3}

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            stratified_folds([("ASY", TRUE_ALARM)] * 3, 5, seed=0)


class TestConfusionMetrics:
    def test_perfect(self):
        y = np.array([1, 1, -1, -1])
        m = confusion_metrics(y, y)
        assert (m.accuracy, m.sensitivity, m.specificity) == (1.0, 1.0, 1.0)

    def test_mixed_confusion_counts(self):
        y_true = np.array([1] * 100 + [-1] * 100)
        y_pred = np.array([1] * 81 + [-1] * 19 + [-1] * 83 + [1] * 17)
        m = confusion_metrics(y_true, y_pred)
        assert m.tp == 81 and m.fn == 19 and m.tn == 83 and m.fp == 17
        assert m.sensitivity == pytest.approx(0.81)
        assert m.specificity == pytest.approx(0.83)
        assert m.accuracy == pytest.approx(0.82)

    def test_all_negative_predictions(self):
        y_true = np.array([1, -1, 1, -1])
        y_pred = np.full(4, -1)
        assert confusion_metrics(y_true, y_pred).sensitivity == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            confusion_metrics(np.array([]), np.array([]))

    def test_rate_over_empty_class_is_none(self):
        # No positives: sensitivity is undefined; no negatives: specificity.
        only_false = confusion_metrics(np.full(3, -1), np.array([1, -1, -1]))
        assert only_false.sensitivity is None and only_false.specificity == 2 / 3
        only_true = confusion_metrics(np.ones(3, dtype=int), np.array([1, 1, -1]))
        assert only_true.specificity is None and only_true.sensitivity == 2 / 3


def _roc_loop(y_true, scores):
    """The ROC scan roc_auc ran before it took its steps from cumulative
    counts: one pass per run of equal scores, trapezoids added one by one.
    Kept as the reference whose points and AUC roc_auc must equal bit for bit."""
    pos = np.asarray(y_true) == TRUE_ALARM
    n_pos = int(pos.sum())
    n_neg = int(len(pos) - n_pos)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = pos[order]

    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        tp += int(p[i:j].sum())
        fp += (j - i) - int(p[i:j].sum())
        points.append((fp / n_neg, tp / n_pos, float(s[i])))
        i = j

    auc = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points[:-1], points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return auc, points


@st.composite
def _tied_scores(draw):
    """Labels with both classes and scores with heavy ties: rounded normals,
    a small integer grid, one value throughout, or signed zeros among a few
    values."""
    n = draw(st.integers(2, 800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "grid", "equal", "zeros"]))
    if kind == "normal":
        scores = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    elif kind == "grid":
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
    elif kind == "equal":
        scores = np.full(n, draw(st.sampled_from([-0.0, 0.0, -1.5, 2.0])))
    else:
        scores = rng.choice([-0.0, 0.0, -0.5, 1.0], size=n, p=[0.4, 0.4, 0.1, 0.1])
    y = np.where(rng.random(n) < draw(st.floats(0.05, 0.95)), TRUE_ALARM, FALSE_ALARM)
    y[rng.choice(n, size=2, replace=False)] = [TRUE_ALARM, FALSE_ALARM]
    return y, scores


class TestRocAuc:
    def test_perfect_ordering(self):
        y = np.array([1, 1, -1, -1])
        auc, points = roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1]))
        assert auc == 1.0
        assert points[0] == (0.0, 0.0, float("inf"))
        assert points[-1][:2] == (1.0, 1.0)

    def test_all_tied_scores(self):
        y = np.array([1, -1, 1, -1])
        auc, points = roc_auc(y, np.zeros(4))
        assert auc == 0.5
        assert len(points) == 2  # one tied group

    def test_four_point_example(self):
        # Oracle: 4 positive-negative pairs, 3 ordered correctly -> 0.75.
        y = np.array([1, -1, 1, -1])
        auc, _ = roc_auc(y, np.array([0.9, 0.8, 0.3, 0.1]))
        assert auc == pytest.approx(0.75, abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAuc):
            roc_auc(np.array([1, 1]), np.array([0.5, 0.2]))

    def test_trapezoid_equals_mann_whitney_100_random(self):
        # The implementation asserts the equivalence internally; this drives
        # it across 100 random score vectors with heavy ties.
        rng = np.random.default_rng(0)
        for i in range(100):
            n = int(rng.integers(10, 60))
            y = np.where(rng.random(n) > 0.5, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
            auc, _ = roc_auc(y, scores)
            assert 0.0 <= auc <= 1.0

    @given(_tied_scores())
    def test_bits_equal_scan(self, case):
        # Points (thresholds' signs of zero included) and AUC, by repr.
        y, scores = case
        assert repr(roc_auc(y, scores)) == repr(_roc_loop(y, scores))

    @given(st.one_of(
        arrays(np.float64, st.integers(0, 80), elements=st.floats(-1e6, 1e6)),
        # few distinct values: long tie runs, and -0.0 tied with 0.0
        arrays(np.float64, st.integers(0, 80),
               elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0])),
    ))
    def test_midranks_bits_equal_scipy_rankdata(self, x):
        want = stats.rankdata(x)
        got = _midranks(x)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _toy_tables(n=40, seed=0, dim_a=6, dim_b=4):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) > 0.45, TRUE_ALARM, FALSE_ALARM)
    if len(np.unique(y)) < 2:
        y[0] = TRUE_ALARM
        y[1] = FALSE_ALARM
    X_a = rng.normal(size=(n, dim_a)) + 0.8 * y[:, None]
    X_b = rng.normal(size=(n, dim_b))
    records = [f"r{i:03d}" for i in range(n)]
    manifest = {r: (ALARM_TYPES[i % 5], int(y[i])) for i, r in enumerate(records)}
    return (
        {"A": FeatureTable(records, y, X_a), "B": FeatureTable(records, y, X_b)},
        manifest,
    )


class TestRunCell:
    def test_pooled_counts_cover_dataset(self):
        tables, manifest = _toy_tables()
        table = tables["A"]
        meta = [manifest[r] for r in table.records]
        folds = stratified_folds(meta, 4, seed=1)
        cell = run_cell(table, folds, "A", "BoostedTrees", 1)
        assert sum(cell["confusion"].values()) == len(table.records)
        assert len(cell["per_fold"]) == 4

    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_fold_scores_reproducible_from_train_only(self, classifier):
        # No leakage: the fold-0 scores equal, bit for bit, those of a model
        # fitted on the training rows alone, RUSBoost's seeded from the cell
        # and fold by `record_seed`; perturbing the held-out rows does not
        # change that model's normalization.
        tables, manifest = _toy_tables(seed=3)
        table = tables["A"]
        meta = [manifest[r] for r in table.records]
        folds = stratified_folds(meta, 4, seed=2)

        def fit(X, y):
            if classifier == "BoostedTrees":
                return fit_adaboost(X, y)
            return fit_rusboost(X, y, seed=record_seed(2, "A|RUSBoostedTrees|0"))

        test = np.flatnonzero(folds == 0)
        train = np.flatnonzero(folds != 0)
        model = fit(table.X[train], table.y[train])
        scores = model.score_batch(table.X[test])
        assert _fold_scores(table, folds, "A", classifier, 0, 2).tobytes() == scores.tobytes()
        cell = run_cell(table, folds, "A", classifier, 2)
        fold0 = next(f for f in cell["per_fold"] if f["fold"] == 0)
        pred = np.where(scores >= 0, 1, -1)
        assert fold0["accuracy"] == confusion_metrics(table.y[test], pred).accuracy
        # normalization comes from training rows only
        np.testing.assert_array_equal(model.col_min, table.X[train].min(axis=0))
        np.testing.assert_array_equal(model.col_max, table.X[train].max(axis=0))
        perturbed = table.X.copy()
        perturbed[test] *= 100.0
        model2 = fit(perturbed[train], table.y[train])
        np.testing.assert_array_equal(model.col_min, model2.col_min)
        np.testing.assert_array_equal(model.col_max, model2.col_max)

    def test_single_class_fold_names_its_cell(self):
        # The one true alarm sits in fold 0, so fold 0 trains on false alarms.
        table = _toy_tables(seed=4)[0]["A"]
        y = np.full(len(table.records), FALSE_ALARM)
        y[0] = TRUE_ALARM
        folds = np.arange(len(y)) % 4
        with pytest.raises(SingleClassError) as info:
            run_cell(FeatureTable(table.records, y, table.X), folds, "A", "BoostedTrees", 0)
        assert str(info.value) == ("A/BoostedTrees fold 0 (0 true, 30 false in training): "
                                   "training labels contain a single class")

    def test_no_weak_learner_names_its_cell(self):
        # Two true alarms, both in training: RUSBoost's first round fits its
        # tree on them and two false alarms. A constant column cannot split
        # those four rows, so the one leaf weighs both classes alike, calls
        # every alarm true and misses the other 26 false alarms as well.
        table = _toy_tables(seed=4)[0]["A"]
        y = np.full(len(table.records), FALSE_ALARM)
        y[[1, 2]] = TRUE_ALARM
        X = np.ones((len(y), 1))
        folds = np.arange(len(y)) % 4
        with pytest.raises(NoWeakLearner) as info:
            run_cell(FeatureTable(table.records, y, X), folds, "A", "RUSBoostedTrees", 0)
        assert str(info.value) == ("A/RUSBoostedTrees fold 0 (2 true, 28 false in training): "
                                   "boosting round 0 has weighted error 0.933 >= 0.5")


class TestRunMatrix:
    def test_report_structure_and_determinism(self):
        tables, manifest = _toy_tables(seed=5)
        r1 = run_matrix(tables, manifest, folds=4, seed=7)
        r2 = run_matrix(tables, manifest, folds=4, seed=7)
        assert r1 == r2
        assert r1["config"]["scenarios"] == ["A", "B"]  # the order of `tables`
        assert r1["config"]["rounds"] == DEFAULT_ROUNDS
        assert set(r1["cells"]) == {
            "A/BoostedTrees", "A/RUSBoostedTrees",
            "B/BoostedTrees", "B/RUSBoostedTrees",
        }
        for cell in r1["cells"].values():
            for metric in ("accuracy", "sensitivity", "specificity", "auc"):
                assert 0.0 <= cell[metric] <= 1.0

    def test_fold_without_positives_writes_null_not_nan(self):
        # Two true alarms of one stratum (ASY) are dealt to two of four folds;
        # the other two folds have no positives, so sensitivity is undefined.
        tables, manifest = _toy_tables(seed=2)
        table = tables["A"]
        y = np.full(len(table.records), FALSE_ALARM)
        y[[0, 5]] = TRUE_ALARM
        table = FeatureTable(table.records, y, table.X + 3.0 * y[:, None])
        manifest = {r: (manifest[r][0], int(label)) for r, label in zip(table.records, y)}
        report = run_matrix({"A": table}, manifest, folds=4, seed=0)
        for cell in report["cells"].values():
            assert sum(f["sensitivity"] is None for f in cell["per_fold"]) == 2
        constants = []
        parsed = json.loads(json.dumps(report, sort_keys=True, indent=1),
                            parse_constant=lambda c: constants.append(c) or float(c))
        # The only non-finite values are each cell's first ROC threshold, +inf.
        assert constants == ["Infinity", "Infinity"]
        for cell in parsed["cells"].values():
            assert cell["roc_points"][0][2] == float("inf")

    def test_markdown_render(self):
        tables, manifest = _toy_tables(seed=8)
        report = run_matrix({"A": tables["A"]}, manifest, folds=4, seed=1)
        text = render_markdown(report)
        assert "## BoostedTrees" in text
        assert "| Accuracy |" in text


def _oracle_table(n=200, seed=0):
    """Seeded rows of every kind of column the split search must keep apart:
    three label-shifted normals, a whole-number column and its duplicate, a
    constant, and a label-correlated column of neighbouring doubles
    (`np.nextafter` steps above 0.3) that also holds 0.0 and 1.0, so the
    ensembles' min-max normalization leaves its bits as they are."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.35, TRUE_ALARM, FALSE_ALARM)
    pos = y == TRUE_ALARM
    shifted = rng.normal(size=(n, 3)) + 0.5 * y[:, None]
    whole = rng.integers(0, 6, n) + pos
    ladder = [0.3]
    for _ in range(9):
        ladder.append(np.nextafter(ladder[-1], 1.0))
    near = np.array(ladder)[rng.integers(0, 6, n) + 4 * pos]
    near[rng.choice(n, 12, replace=False)] = [0.0] * 6 + [1.0] * 6
    X = np.column_stack([shifted, whole, whole, np.full(n, 2.5), near])
    return X, y, [(ALARM_TYPES[i % 5], int(label)) for i, label in enumerate(y)]


@pytest.mark.pins_numpy_simd
class TestRoundZeroOracle:
    # One boosting round of each booster per fold, as `_fold_scores` seeds
    # them. Round 0 weighs every row alike, so its tree and the ensemble's
    # predictions (the sign of alpha times the tree's vote) pass through no
    # np.log or np.exp; nothing here pins an alpha, a score or a later round.
    DIGEST = "550ba56eb4ea7983b59708ef20e0c37afa8759c843514bbd0fb69ae70e0d9902"

    def test_trees_and_predictions_pinned(self):
        X, y, meta = _oracle_table()
        seed = 7
        folds = stratified_folds(meta, 5, seed)
        digest = hashlib.sha256()
        boosters_differ = False
        for fold in range(5):
            train = folds != fold
            rus_seed = record_seed(seed, f"HLF_cityblock|RUSBoostedTrees|{fold}")
            trees = []
            for model in (fit_adaboost(X[train], y[train], rounds=1),
                          fit_rusboost(X[train], y[train], rounds=1, seed=rus_seed)):
                assert (model.col_min[-1], model.col_max[-1]) == (0.0, 1.0)
                tree = model.trees[0]
                arrays = (tree.feature, tree.threshold, tree.left, tree.right,
                          tree.leaf_w_pos, tree.leaf_w_neg)
                trees.append(b"".join(a.tobytes() for a in arrays))
                digest.update(trees[-1])
                digest.update(model.predict(X[~train]).tobytes())
            boosters_differ |= trees[0] != trees[1]
        assert boosters_differ
        assert digest.hexdigest() == self.DIGEST


def test_round_zero_oracle_without_avx512(kernel_rerun):
    kernel_rerun("avx512-off").assert_passed("tests/test_evaluation.py::TestRoundZeroOracle")
