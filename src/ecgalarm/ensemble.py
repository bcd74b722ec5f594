"""Shallow CART trees boosted with AdaBoost.M1 and RUSBoost, from scratch.

Trees grow best-first on weighted Gini decrease up to a split budget, with
thresholds at midpoints of adjacent observed values (ties resolved toward
the lowest feature index, then the lowest threshold, so fits are fully
deterministic). The ensembles store per-column min-max normalization fitted
on their training data and apply it internally when scoring. Defaults follow
the common "Boosted Trees" / "RUSBoosted Trees" presets: 30 rounds, learning
rate 0.1, 20 splits, 1:1 resampling.

Each fit sorts once: ``_boost`` argsorts every column stably, and each round
and each child node filter that order. Node rows stay ascending, so a stable
filter of a stable order is the node's own stable argsort: each node sums the
same weights in the same sequence, and trees are bit-identical to resorting.

A split marks each entry of the node's (features, rows) order by its side;
``np.flatnonzero`` of the mask lists, feature by feature, the entries of one
side in sorted order, and ``take`` copies them and their values into the
child. The children of the split that uses up the budget keep only their
rows. The split search runs its passes in place, in scratch buffers
allocated once per tree: fresh temporaries the size of a large node are
mapped from the system and page-faulted anew on every search. In place,
each gain is still ``(parent - left) - right`` with each mass
``2*p*n / (p+n)``: the same IEEE operations on the same numbers in the same
order, so the bits hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NoWeakLearner, SingleClassError

DEFAULT_ROUNDS = 30
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_MAX_SPLITS = 20
DEFAULT_TARGET_RATIO = 1.0
_EPS_PERFECT = 1e-10  # stand-in error when a round classifies perfectly


def _gini_mass(w_pos, w_neg, out, total):
    """Weighted Gini impurity times node weight, 2*p*n/(p+n), 0 when empty,
    into `out` (which may be `w_pos`); `total` is scratch. Weights are
    nonnegative, so where p+n is 0 the product 2*p*n already is 0."""
    total = np.add(w_pos, w_neg, out=total)
    mass = np.multiply(2.0, w_pos, out=out)
    mass *= w_neg
    return np.divide(mass, total, out=mass, where=total > 0)


def _best_split(w_pos, w_neg, rows, order, vals, work):
    """Best (gain, feature, threshold) over a node's rows; None if no split helps.
    `rows` ascend; row f of `order` sorts them by feature f, and of `vals` their
    values. `work` is four float buffers of at least `order.size` each."""
    p, n = float(w_pos[rows].sum()), float(w_neg[rows].sum())
    parent = 2.0 * p * n / (p + n) if p + n > 0 else 0.0
    if parent <= 0 or len(rows) < 2:
        return None

    # Column i splits after the i-th sorted row. The last column leaves the
    # right side empty and is masked below; keeping it keeps every pass
    # contiguous. Indices are valid, so mode="clip" only skips take's copy.
    tmp, cum_p, cum_n, gains = (buf[: order.size].reshape(order.shape) for buf in work)
    np.cumsum(w_pos.take(order, out=tmp, mode="clip"), axis=1, out=cum_p)
    np.cumsum(w_neg.take(order, out=tmp, mode="clip"), axis=1, out=cum_n)
    _gini_mass(cum_p, cum_n, out=gains, total=tmp)
    np.subtract(parent, gains, out=gains)  # (parent - left) - right
    right_p = np.subtract(cum_p[:, -1:], cum_p, out=tmp)
    right_n = np.subtract(cum_n[:, -1:], cum_n, out=cum_p)
    gains -= _gini_mass(right_p, right_n, out=right_p, total=cum_n)
    ties = np.empty(order.shape, dtype=bool)  # ties can't split
    np.equal(vals[:, :-1], vals[:, 1:], out=ties[:, :-1])
    ties[:, -1] = True
    np.putmask(gains, ties, -np.inf)

    # Gini gain is never negative, so any valid threshold is splittable;
    # zero-gain splits are allowed (an impure node may need two levels, as
    # with XOR patterns) and the budget bounds growth. The flat argmax takes
    # the first among equals: lowest feature, then lowest threshold.
    f, i = divmod(int(gains.argmax()), gains.shape[1])
    if gains[f, i] == -np.inf:
        return None
    return float(gains[f, i]), f, float(0.5 * (vals[f, i] + vals[f, i + 1]))


@dataclass
class DecisionTree:
    """Flat-array binary CART tree; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_w_neg: np.ndarray
    leaf_w_pos: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=int)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                break
            idx = np.flatnonzero(internal)
            f = self.feature[node[idx]]
            go_left = X[idx, f] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
        return np.where(self.leaf_w_pos[node] >= self.leaf_w_neg[node], 1, -1)

    @property
    def n_splits(self) -> int:
        return int(np.sum(self.feature >= 0))


def fit_tree(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, max_splits: int = DEFAULT_MAX_SPLITS,
    order: np.ndarray | None = None,
) -> DecisionTree:
    """Grow a tree best-first by weighted Gini decrease up to `max_splits`.
    `order` is X's stable argsort per column, as (features, rows); None sorts here."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    w = np.asarray(w, dtype=np.float64)
    if not (w >= 0).all() or w.sum() <= 0:
        raise ValueError("sample weights must be nonnegative and sum to a positive value")
    w_pos = np.where(y > 0, w, 0.0)
    w_neg = np.where(y < 0, w, 0.0)
    order = np.argsort(X.T, axis=1, kind="stable") if order is None else order

    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    # Per leaf: its rows ascending, their per-feature order and sorted values.
    nodes = {0: (np.arange(len(X)), order, np.take_along_axis(X.T, order, axis=1))}
    work = np.empty((4, X.size))  # the searches' scratch, allocated once per tree
    # Candidate splits per leaf, refreshed as leaves appear.
    candidates = {0: _best_split(w_pos, w_neg, *nodes[0], work)}

    n_splits = 0
    while n_splits < max_splits:
        best_leaf = None
        for leaf in sorted(candidates):
            cand = candidates[leaf]
            if cand is None:
                continue
            if best_leaf is None or cand[0] > candidates[best_leaf][0]:
                best_leaf = leaf
        if best_leaf is None:
            break
        gain, f, thr = candidates.pop(best_leaf)
        rows, order, vals = nodes.pop(best_leaf)
        n_splits += 1
        side = X[:, f] <= thr
        to_left = side.take(order)
        for mask, sel in ((side[rows], to_left), (~side[rows], ~to_left)):
            child = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            if n_splits == max_splits:  # the children of the last split stay leaves
                nodes[child] = (rows[mask], None, None)
                continue
            at = np.flatnonzero(sel)
            shape = (len(order), len(at) // len(order))
            nodes[child] = (rows[mask], order.take(at).reshape(shape), vals.take(at).reshape(shape))
            candidates[child] = _best_split(w_pos, w_neg, *nodes[child], work)
        feature[best_leaf] = f
        threshold[best_leaf] = thr
        left[best_leaf] = len(feature) - 2
        right[best_leaf] = len(feature) - 1

    n_nodes = len(feature)
    leaf_w_pos = np.zeros(n_nodes)
    leaf_w_neg = np.zeros(n_nodes)
    for node, (rows, _, _) in nodes.items():
        leaf_w_pos[node] = w_pos[rows].sum()
        leaf_w_neg[node] = w_neg[rows].sum()
    return DecisionTree(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        leaf_w_neg=leaf_w_neg,
        leaf_w_pos=leaf_w_pos,
    )


@dataclass
class BoostedEnsemble:
    trees: list[DecisionTree]
    alphas: list[float]
    col_min: np.ndarray
    col_max: np.ndarray

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        scale = self.col_max - self.col_min
        scale = np.where(scale > 0, scale, 1.0)
        return (X - self.col_min) / scale

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.col_min):
            raise DimensionError(
                f"expected {len(self.col_min)} features, got {X.shape[1]}"
            )
        Xn = self._normalize(X)
        scores = np.zeros(len(X))
        for tree, alpha in zip(self.trees, self.alphas):
            scores += alpha * tree.predict(Xn)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.score_batch(X) >= 0, 1, -1)


def _boost(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int,
    learning_rate: float,
    max_splits: int,
    subset_fn,
) -> BoostedEnsemble:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise SingleClassError("training labels contain a single class")

    model = BoostedEnsemble(trees=[], alphas=[], col_min=X.min(axis=0), col_max=X.max(axis=0))
    Xn = model._normalize(X)

    n = len(X)
    w = np.full(n, 1.0 / n)
    presorted = np.argsort(Xn.T, axis=1, kind="stable")

    for t in range(rounds):
        rows = subset_fn(t, w)
        # The presort restricted to this round's rows, as indices into them.
        local = np.full(n, -1)
        local[rows] = np.arange(len(rows))
        kept = local.take(presorted)
        order = kept.take(np.flatnonzero(kept >= 0)).reshape(len(presorted), len(rows))
        tree = fit_tree(Xn[rows], y[rows], w[rows] / w[rows].sum(), max_splits, order=order)
        pred = tree.predict(Xn)
        miss = pred != y
        eps = float(w[miss].sum())
        if eps >= 0.5:
            if not model.trees:
                raise NoWeakLearner(f"boosting round 0 has weighted error {eps:.3f} >= 0.5")
            break  # discard this round
        if eps == 0.0:
            model.alphas.append(learning_rate * 0.5 * np.log((1 - _EPS_PERFECT) / _EPS_PERFECT))
            model.trees.append(tree)
            break
        alpha = learning_rate * 0.5 * np.log((1.0 - eps) / eps)
        model.trees.append(tree)
        model.alphas.append(alpha)
        w = w * np.exp(-alpha * y * pred)
        w = w / w.sum()

    return model


def fit_adaboost(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int = DEFAULT_ROUNDS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    max_splits: int = DEFAULT_MAX_SPLITS,
) -> BoostedEnsemble:
    """AdaBoost.M1 with shallow CART weak learners.

    Boosting stops at the first round whose weighted error is >= 0.5; if that
    is round 0 it raises NoWeakLearner instead of returning an empty ensemble.
    """
    n = len(X)
    all_rows = np.arange(n)
    return _boost(X, y, rounds, learning_rate, max_splits, subset_fn=lambda t, w: all_rows)


def fit_rusboost(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int = DEFAULT_ROUNDS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    max_splits: int = DEFAULT_MAX_SPLITS,
    seed: int = 0,
) -> BoostedEnsemble:
    """RUSBoost: each round trains on all minority plus a random majority
    subsample (minority:majority = DEFAULT_TARGET_RATIO); errors and weight
    updates stay on the full weighted set. Raises NoWeakLearner as
    fit_adaboost does."""
    y = np.asarray(y, dtype=int)
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    n_keep = min(len(majority), int(round(len(minority) / DEFAULT_TARGET_RATIO)))
    rng = np.random.default_rng(seed)

    def subset(t: int, w: np.ndarray) -> np.ndarray:
        sampled = rng.choice(majority, size=n_keep, replace=False)
        return np.sort(np.concatenate([minority, sampled]))

    return _boost(X, y, rounds, learning_rate, max_splits, subset_fn=subset)
