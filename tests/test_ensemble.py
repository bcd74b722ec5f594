import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgalarm.ensemble import (
    BoostedEnsemble,
    _best_split,
    fit_adaboost,
    fit_rusboost,
    fit_tree,
)
from ecgalarm.exceptions import DimensionError, NoWeakLearner, SingleClassError


class TestFitTree:
    def test_separable_1d_threshold(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        w = np.full(4, 0.25)
        tree = fit_tree(X, y, w, max_splits=1)
        assert tree.n_splits == 1
        assert tree.threshold[0] == 1.5
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_all_one_class_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = fit_tree(X, y, np.full(3, 1 / 3), max_splits=5)
        assert tree.n_splits == 0
        np.testing.assert_array_equal(tree.predict(X), [1, 1, 1])

    def test_xor_with_three_splits(self):
        # Oracle: depth-2 tree shatters XOR; checked by hand enumeration.
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([1, -1, -1, 1])
        tree = fit_tree(X, y, np.full(4, 0.25), max_splits=3)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_thresholds_are_midpoints(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = np.where(X[:, 1] > 0.2, 1, -1)
        tree = fit_tree(X, y, np.full(50, 1 / 50), max_splits=10)
        for node in range(len(tree.feature)):
            if tree.feature[node] < 0:
                continue
            vals = np.unique(X[:, tree.feature[node]])
            mids = (vals[:-1] + vals[1:]) / 2.0
            assert np.any(np.isclose(mids, tree.threshold[node]))

    def test_split_budget_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 5))
        y = np.where(rng.random(200) > 0.5, 1, -1)
        tree = fit_tree(X, y, np.full(200, 1 / 200), max_splits=7)
        assert tree.n_splits <= 7


def _brute_split(X, w_pos, w_neg, rows):
    """Reference scan: every feature, every midpoint between distinct adjacent
    values of the node's rows; the first strict maximum wins, so ties go to
    the lowest feature, then the lowest threshold."""

    def mass(p, n):
        return 2.0 * p * n / (p + n) if p + n > 0 else 0.0

    p, n = float(w_pos[rows].sum()), float(w_neg[rows].sum())
    parent = mass(p, n)
    if parent <= 0 or len(rows) < 2:
        return None
    best = None
    for f in range(X.shape[1]):
        col = X[rows, f]
        vals = np.unique(col)
        for lo, hi in zip(vals[:-1], vals[1:]):
            left = rows[col <= lo]
            lp, ln = float(w_pos[left].sum()), float(w_neg[left].sum())
            gain = parent - mass(lp, ln) - mass(p - lp, n - ln)
            if best is None or gain > best[0]:
                best = (gain, f, float(0.5 * (lo + hi)))
    return best


@st.composite
def _weighted_nodes(draw):
    """A small table with many tied values, +-1 labels, weights that are
    multiples of 1/64 (some zero, so every class sum is exact) and the
    ascending rows of one node."""
    n = draw(st.integers(1, 12))
    f = draw(st.integers(1, 4))
    X = draw(arrays(np.int64, (n, f), elements=st.integers(-3, 3))) / 2.0
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    w = draw(arrays(np.int64, n, elements=st.integers(0, 8))) / 64.0
    rows = np.flatnonzero(draw(arrays(np.bool_, n)))
    return X, np.where(y > 0, w, 0.0), np.where(y < 0, w, 0.0), rows


# sha256 of the trees `fit_tree` grows on 40 seeded tables. Rounding to 0-2
# decimals makes tied values common. Plain fits call no `np.exp`, whose last
# bits depend on the SIMD level; the digest is the same with numpy's AVX-512
# dispatch disabled.
FIT_TREE_DIGEST = "f234f549a754fc4a8f6767fda8de508172559c671063bc9550636e1710c420f7"


class TestSplitSearch:
    @given(_weighted_nodes())
    def test_best_split_matches_brute_force(self, node):
        X, w_pos, w_neg, rows = node
        order = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
        vals = np.take_along_axis(X.T, order, axis=1)
        got = _best_split(w_pos, w_neg, rows, order, vals)
        assert got == _brute_split(X, w_pos, w_neg, rows)

    def test_fit_tree_bytes_pinned(self):
        h = hashlib.sha256()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, f = int(rng.integers(20, 401)), int(rng.integers(1, 41))
            X = np.round(rng.normal(size=(n, f)), int(rng.integers(0, 3)))
            y = np.where(rng.random(n) < 0.4, 1, -1)
            tree = fit_tree(X, y, rng.random(n), max_splits=20)
            for a in (tree.feature, tree.left, tree.right):
                h.update(np.asarray(a, dtype="<i8").tobytes())
            for a in (tree.threshold, tree.leaf_w_neg, tree.leaf_w_pos):
                h.update(np.asarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == FIT_TREE_DIGEST


class TestAdaboost:
    def test_separable_blobs_zero_error_fast(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
        y = np.array([-1] * 20 + [1] * 20)
        model = fit_adaboost(X, y, rounds=10, learning_rate=1.0, max_splits=1)
        assert len(model.trees) <= 3
        np.testing.assert_array_equal(model.predict(X), y)

    def test_hand_computed_round(self):
        # Fixture where the best stump misclassifies exactly one of four
        # uniformly weighted points: eps = 1/4, alpha = ln(3)/2, and the
        # missed point's weight renormalizes to 1/2 (worked by hand).
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, 1, -1, -1])
        w = np.full(4, 0.25)
        tree = fit_tree(X, y, w, max_splits=1)
        pred = tree.predict(X)
        eps = w[pred != y].sum()
        assert eps == pytest.approx(0.25, abs=1e-15)

        alpha = 0.5 * np.log((1 - eps) / eps)
        assert alpha == pytest.approx(0.5 * np.log(3.0), abs=1e-12)

        w2 = w * np.exp(-alpha * y * pred)
        w2 /= w2.sum()
        missed = int(np.flatnonzero(pred != y)[0])
        assert w2[missed] == pytest.approx(0.5, abs=1e-12)

        model = fit_adaboost(X, y, rounds=1, learning_rate=1.0, max_splits=1)
        assert model.alphas[0] == pytest.approx(0.5 * np.log(3.0), abs=1e-12)

    def test_single_class_raises(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClassError):
            fit_adaboost(X, np.ones(4, dtype=int))

    def test_chance_first_round_raises(self):
        # A constant column cannot split, so round 0's single leaf has weighted
        # error 0.5 on balanced labels; an empty ensemble would score 0 and
        # call every alarm true.
        X = np.ones((10, 1))
        y = np.array([1, -1] * 5)
        with pytest.raises(NoWeakLearner):
            fit_adaboost(X, y)

    def test_weighted_error_below_half_each_round(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=80) > 0, 1, -1)
        model = fit_adaboost(X, y, rounds=15, learning_rate=1.0, max_splits=2)
        # replay boosting to observe the per-round weighted errors
        scale = np.where(model.col_max - model.col_min > 0, model.col_max - model.col_min, 1.0)
        Xn = (X - model.col_min) / scale
        w = np.full(len(X), 1.0 / len(X))
        for tree, alpha in zip(model.trees, model.alphas):
            pred = tree.predict(Xn)
            eps = w[pred != y].sum()
            assert eps < 0.5
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)
            w = w * np.exp(-(alpha) * y * pred)
            w /= w.sum()

    def test_exponential_loss_monotone_lr1(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = np.where(X[:, 0] - X[:, 1] > 0, 1, -1)
        model = fit_adaboost(X, y, rounds=10, learning_rate=1.0, max_splits=1)
        scale = np.where(model.col_max - model.col_min > 0, model.col_max - model.col_min, 1.0)
        Xn = (X - model.col_min) / scale
        score = np.zeros(len(X))
        losses = [float(np.sum(np.exp(-y * score)))]
        for tree, alpha in zip(model.trees, model.alphas):
            score = score + alpha * tree.predict(Xn)
            losses.append(float(np.sum(np.exp(-y * score))))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 6))
        y = np.where(X[:, 2] > 0, 1, -1)
        a = fit_adaboost(X, y, rounds=8)
        b = fit_adaboost(X, y, rounds=8)
        assert a.alphas == b.alphas
        for ta, tb in zip(a.trees, b.trees):
            np.testing.assert_array_equal(ta.feature, tb.feature)
            np.testing.assert_array_equal(ta.threshold, tb.threshold)


class TestRusboost:
    def _imbalanced(self, seed=0, n_neg=90, n_pos=10):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [rng.normal(0, 1.0, (n_neg, 3)), rng.normal(2.5, 1.0, (n_pos, 3))]
        )
        y = np.array([-1] * n_neg + [1] * n_pos)
        return X, y

    def test_subset_balance_contract(self, monkeypatch):
        import ecgalarm.ensemble as ens

        X, y = self._imbalanced()
        seen = []
        original = ens.fit_tree

        def spy(Xs, ys, ws, *args, **kwargs):
            seen.append((int(np.sum(ys > 0)), int(np.sum(ys < 0))))
            return original(Xs, ys, ws, *args, **kwargs)

        monkeypatch.setattr(ens, "fit_tree", spy)
        ens.fit_rusboost(X, y, rounds=5, seed=1)
        assert seen, "no boosting rounds ran"
        for n_pos, n_neg in seen:
            assert n_pos == 10 and n_neg == 10

    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_round_order_is_stable_argsort(self, fit, monkeypatch):
        # The order each round takes from the fit-wide presort must be the
        # stable argsort of that round's table, so its tree equals a fit
        # that sorts afresh.
        import ecgalarm.ensemble as ens

        X, y = self._imbalanced(seed=4)
        X = np.round(X, 1)  # tied values
        original = ens.fit_tree
        rounds = []

        def spy(Xs, ys, ws, max_splits, order):
            rounds.append(np.array_equal(order, np.argsort(Xs.T, axis=1, kind="stable")))
            return original(Xs, ys, ws, max_splits, order)

        monkeypatch.setattr(ens, "fit_tree", spy)
        fit(X, y, rounds=5)
        assert rounds and all(rounds)

    def test_balanced_input_matches_adaboost(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(-1, 0.8, (25, 3)), rng.normal(1, 0.8, (25, 3))])
        y = np.array([-1] * 25 + [1] * 25)
        ada = fit_adaboost(X, y, rounds=6, learning_rate=0.5, max_splits=2)
        rus = fit_rusboost(X, y, rounds=6, learning_rate=0.5, max_splits=2, seed=3)
        # Equal class counts force the subset to be the full set every round.
        assert rus.alphas == ada.alphas
        np.testing.assert_array_equal(rus.predict(X), ada.predict(X))

    def test_minority_recall_vs_adaboost(self):
        # Empirical comparison harness: resampling should help minority
        # recall on imbalanced data in most seeded trials.
        wins = 0
        trials = 20
        for seed in range(trials):
            X, y = self._imbalanced(seed=100 + seed, n_neg=120, n_pos=12)
            rng = np.random.default_rng(seed)
            test_idx = rng.permutation(len(y))[:40]
            train_idx = np.setdiff1d(np.arange(len(y)), test_idx)
            if len(np.unique(y[train_idx])) < 2 or np.sum(y[test_idx] > 0) == 0:
                wins += 1
                continue
            ada = fit_adaboost(X[train_idx], y[train_idx], rounds=10, max_splits=1)
            rus = fit_rusboost(X[train_idx], y[train_idx], rounds=10, max_splits=1, seed=seed)
            pos = y[test_idx] > 0
            ada_recall = np.mean(ada.predict(X[test_idx])[pos] == 1)
            rus_recall = np.mean(rus.predict(X[test_idx])[pos] == 1)
            if rus_recall >= ada_recall:
                wins += 1
        assert wins >= 0.8 * trials

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            fit_rusboost(np.zeros((5, 2)), np.full(5, -1))

    def test_determinism_given_seed(self):
        X, y = self._imbalanced(seed=9)
        a = fit_rusboost(X, y, rounds=5, seed=77)
        b = fit_rusboost(X, y, rounds=5, seed=77)
        assert a.alphas == b.alphas
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


class TestScoring:
    def test_empty_ensemble_scores_zero(self):
        model = BoostedEnsemble(trees=[], alphas=[], col_min=np.zeros(3), col_max=np.ones(3))
        np.testing.assert_array_equal(model.score_batch(np.zeros((1, 3))), [0.0])

    def test_single_tree_score(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([-1, 1])
        model = fit_adaboost(X, y, rounds=1, learning_rate=1.0, max_splits=1)
        assert len(model.trees) == 1
        # perfect round: alpha is the capped value
        assert model.score_batch(np.array([[1.0]])) == pytest.approx([model.alphas[0]])

    def test_score_magnitude_grows_with_agreement(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1, -1, 1, 1])
        model = fit_adaboost(X, y, rounds=1, learning_rate=1.0, max_splits=1)
        base = abs(model.score_batch(np.array([[3.0]]))[0])
        model.trees.append(model.trees[0])
        model.alphas.append(0.5)
        assert abs(model.score_batch(np.array([[3.0]]))[0]) > base

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = fit_adaboost(X, np.array([-1, 1]), rounds=1)
        with pytest.raises(DimensionError):
            model.score_batch(np.zeros((1, 3)))

    def test_normalization_stats_are_train_minmax(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4)) * 10
        y = np.where(X[:, 0] > 0, 1, -1)
        model = fit_adaboost(X, y, rounds=3)
        np.testing.assert_array_equal(model.col_min, X.min(axis=0))
        np.testing.assert_array_equal(model.col_max, X.max(axis=0))

