"""Shallow CART trees boosted with AdaBoost.M1 and RUSBoost, from scratch.

Trees grow best-first on weighted Gini decrease up to a split budget, with
thresholds at midpoints of adjacent observed values (ties resolved toward
the lowest feature index, then the lowest threshold, so fits are fully
deterministic). For adjacent sorted values ``a < b`` the threshold is
``a / 2 + b / 2``, or ``a`` when that rounds to ``b`` (scikit-learn's
``BestSplitter`` rule): ``X[:, f] <= threshold`` then sends left exactly the
rows the split scored, also when ``a`` and ``b`` are neighbouring doubles.
The ensembles store per-column min-max normalization fitted on their
training data and apply it internally when scoring. Defaults follow the
common "Boosted Trees" / "RUSBoosted Trees" presets: 30 rounds, learning
rate 0.1, 20 splits, 1:1 resampling.

Each fit does its per-fit work once: ``_boost`` stores the normalised table
column by column (Fortran order, so a split's test reads one contiguous
column), argsorts every column stably, takes the sorted values, and
allocates the split searches' scratch buffers. A round picks its rows as
one boolean mask over the table: every row for AdaBoost, the minority rows
and a draw of the majority for RUSBoost. Each node is filtered the same
way when it is searched: its row mask (the round's for the root, its side
of the split for a child), taken over its parent's (features, rows) order
or the presort, marks the entries of its rows; ``np.flatnonzero`` lists
them, feature by feature, in sorted order, and ``take`` copies them and
their values into the node. Node rows stay ascending, so a stable filter
of a stable order is the node's own stable argsort: each node sums the same
weights in the same sequence, and trees are bit-identical to resorting.

The search's prefix sums run in one complex lane: each row's positive and
negative weight are the real and imaginary part of one complex128, so one
``take`` and one complex ``np.add.accumulate`` sum both classes along each
feature. Complex addition is two IEEE additions, in the same row order as
two float lanes, so every prefix sum keeps its bits; numpy's accumulate is
bound by the latency of each step, and a complex step carries both lanes.
One ``np.copyto`` from the transposed float view then lays the sums out as
(class, feature, row) floats, and the complex buffer is the right sides'
scratch after that. A node's class totals stay on the float stack, as
``w.take(rows, axis=1).sum(axis=1)``: numpy sums a complex array in other
pairwise blocks, which changes the bits.

The search runs its passes in place, in the fit's buffers: fresh
temporaries the size of a large node are mapped from the system and
page-faulted anew on every search. In place, each gain is still
``(parent - left) - right`` with each mass ``2*p*n / (p+n)``: the same
IEEE operations on the same numbers in the same order, so the bits hold.
The tie mask and the argmax run over the node's flat (features, rows)
run, as one numpy loop each: most nodes have a few dozen rows, and a 2-D
pass would run one short inner loop per feature.

The best-first search is lazy. Each new leaf sums its class totals once;
these are its weights if it stays a leaf, and its Gini mass ``parent``
bounds its best gain. It goes on a heap as ``(-parent, leaf)`` with its
parent's order and values and its row mask, and is filtered and searched
only when that entry comes off the heap; its real ``(-gain, leaf)`` then
goes back on. The bound holds in floats: with left and right masses at
least 0, ``(parent - left) - right`` never exceeds ``parent``. Under the
heap's (key, leaf) order a bound comes off before an equal real gain only
when its leaf is lower; its real gain, at most the bound, then goes back
on, and if it equals the other gain, its lower leaf wins the tie, as it
does when every leaf is searched. So the leaf split next is the one with
the highest gain, the lowest among equals, as if every leaf were searched
when it was made; leaves that never reach the top are never searched. The
children of the split that uses up the budget, and leaves of weight 0 or
of one row, are never queued.

Each leaf keeps one ascending array, the rows that reach it, and sums the
weights of those the round fitted. Every row of the table goes down the
same ``X[:, f] <= threshold`` tests that ``predict`` makes, so the grower
returns each row's +-1 from its leaf, by the rule ``predict`` applies there,
and no round calls ``predict``.
``score_batch`` routes all of an ensemble's trees at once (``_route``), so
each tree level costs one set of numpy calls for every tree, and sums the
trees' votes one tree at a time in fit order, as a loop over ``predict``
does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NoWeakLearner, SingleClassError, check_finite

DEFAULT_ROUNDS = 30
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_MAX_SPLITS = 20
DEFAULT_TARGET_RATIO = 1.0
_EPS_PERFECT = 1e-10  # stand-in error when a round classifies perfectly


def _gini_mass(w_pos, w_neg, out, total):
    """Weighted Gini impurity times node weight, 2*p*n/(p+n), 0 when empty,
    into `out` (which may be `w_pos`); `total` is scratch. Weights are
    nonnegative, so where p+n is 0 the product 2*p*n already is 0, and 0
    divided by the least subnormal stays 0; every positive p+n is at least
    that subnormal, so the clamp leaves it as it is."""
    total = np.add(w_pos, w_neg, out=total)
    np.maximum(total, 5e-324, out=total)
    mass = np.multiply(2.0, w_pos, out=out)
    mass *= w_neg
    return np.divide(mass, total, out=mass)


def _prefix_sums(wz, order, z, cum):
    """Both classes' prefix sums along each row of `order` into `cum`, as
    (class, feature, row) floats. `wz` holds each row of X's (positive,
    negative) weight as one complex; `z` is a complex buffer of `order`'s
    shape, which the sums leave free."""
    # Indices are valid, so mode="clip" only skips take's buffered copy.
    np.add.accumulate(wz.take(order, out=z, mode="clip"), axis=1, out=z)
    np.copyto(cum, z.view(np.float64).reshape(*order.shape, 2).transpose(2, 0, 1))
    return cum


def _best_split(wz, parent, order, vals, work):
    """Best (gain, feature, threshold) of a node of at least 2 rows whose Gini
    mass `parent` is positive; None if its values tie within every feature.
    `wz` packs each row of X's class weights as one complex. Row f of `order`
    sorts the node's ascending rows by feature f, and of `vals` their values.
    `work` is `_presort`'s scratch: a complex buffer and a bool buffer of at
    least `order.size`, and a float buffer of at least 3 * `order.size`."""
    # Column i splits after the i-th sorted row. The last column leaves the
    # right side empty and is masked below; keeping it keeps every pass
    # contiguous.
    lanes, floats, mask = work
    z = lanes[: order.size].reshape(order.shape)
    bufs = floats[: 3 * order.size].reshape(3, *order.shape)
    cum, gains = _prefix_sums(wz, order, z, bufs[:2]), bufs[2]
    tmp = z.view(np.float64).reshape(2, *order.shape)  # z's memory, as scratch
    _gini_mass(cum[0], cum[1], out=gains, total=tmp[0])
    np.subtract(parent, gains, out=gains)  # (parent - left) - right
    right = np.subtract(cum[:, :, -1:], cum, out=tmp)
    gains -= _gini_mass(right[0], right[1], out=right[0], total=cum[0])
    # Ties can't split. One compare runs over the flat (features, rows) run;
    # it also compares each feature's last value with the next feature's
    # first, and those entries are each feature's last column, masked anyway.
    gains, vals, m = gains.ravel(), vals.ravel(), order.shape[1]
    ties = mask[: order.size]
    np.equal(vals[:-1], vals[1:], out=ties[:-1])
    ties[m - 1 :: m] = True
    np.putmask(gains, ties, -np.inf)

    # Gini gain is never negative, so any valid threshold is splittable;
    # zero-gain splits are allowed (an impure node may need two levels, as
    # with XOR patterns) and the budget bounds growth. The flat argmax takes
    # the first among equals: lowest feature, then lowest threshold.
    k = int(gains.argmax())
    if gains[k] == -np.inf:
        return None
    a, b = float(vals[k]), float(vals[k + 1])
    thr = a / 2 + b / 2
    return float(gains[k]), k // m, a if thr == b else thr


@dataclass
class DecisionTree:
    """Flat-array binary CART tree; feature -1 marks a leaf. Children are made
    in pairs, so a split's right child is ``left + 1``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_w_neg: np.ndarray
    leaf_w_pos: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _route([self], X)[0]

    @property
    def n_splits(self) -> int:
        return int(np.sum(self.feature >= 0))


def _route(trees, X):
    """Each tree's +-1 for each row of X, as (trees, rows): the sign of the
    leaf the row reaches, + where the leaf's positive weight is at least its
    negative weight. The trees' node arrays are laid end to end, and every
    (tree, row) pair steps down one level per pass by the test
    ``X[row, f] <= threshold``."""
    offsets = np.cumsum([0] + [len(tree.feature) for tree in trees[:-1]])
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + k for tree, k in zip(trees, offsets)])
    right = np.concatenate([tree.right + k for tree, k in zip(trees, offsets)])
    sign = np.concatenate([np.where(tree.leaf_w_pos >= tree.leaf_w_neg, 1, -1)
                           for tree in trees])
    node = np.repeat(offsets, len(X))
    row = np.tile(np.arange(len(X)), len(trees))
    while True:
        idx = np.flatnonzero(feature[node] >= 0)
        if not len(idx):
            break
        at = node[idx]
        go_left = X[row[idx], feature[at]] <= threshold[at]
        node[idx] = np.where(go_left, left[at], right[at])
    return sign[node].reshape(len(trees), len(X))


def _presort(X):
    """Each column's stable order, as (features, rows), its sorted values, and
    the split search's scratch buffers for a node of every row."""
    order = np.argsort(X.T, axis=1, kind="stable")
    work = (np.empty(order.size, np.complex128), np.empty(3 * order.size),
            np.empty(order.size, dtype=bool))
    return order, np.take_along_axis(X.T, order, axis=1), work


def _grow(X, y, w, fitted, order, vals, work, max_splits):
    """Grow a tree best-first by weighted Gini decrease on the rows of X where
    `fitted` is True, up to `max_splits`. Row f of `order` sorts every row of X
    by feature f, as `_presort` gives it, and row f of `vals` holds their
    values; `work` holds `_best_split`'s buffers. Every row goes down the
    splits; only fitted rows count in a sum. Returns the tree and each row's
    +-1 from the leaf it reaches."""
    w = np.stack([np.where(y > 0, w, 0.0), np.where(y < 0, w, 0.0)])
    wz = np.ascontiguousarray(w.T).view(np.complex128).ravel()
    # Per node: feature, threshold, left child, and its class weights p, n
    # while it is a leaf. A split makes its two children together, so the
    # right child is left + 1 and the tree has len(nodes) // 2 splits.
    nodes = [[-1, 0.0, -1, 0.0, 0.0]]
    leaves = {}  # per leaf: the rows that reach it, ascending
    # Per leaf that may split, before its search: (-mass, leaf, None, its
    # parent's order and values, its row mask: `fitted` for the root, its
    # side of the split for a child); after: (-gain, leaf, (feature,
    # threshold), its order and values, None). A leaf has one entry at a
    # time, so entries never compare past the leaf.
    heap = []

    def add_leaf(leaf, reach, order, vals, side):
        rows = reach[fitted.take(reach)]
        p, n = w.take(rows, axis=1).sum(axis=1).tolist()
        nodes[leaf][3:] = p, n
        leaves[leaf] = reach
        mass = 2.0 * p * n / (p + n) if p + n > 0 else 0.0
        if mass > 0 and len(rows) > 1 and len(nodes) // 2 < max_splits:
            heapq.heappush(heap, (-mass, leaf, None, order, vals, side))

    add_leaf(0, np.arange(len(X)), order, vals, fitted)
    while heap and len(nodes) // 2 < max_splits:
        key, leaf, split, order, vals, side = heapq.heappop(heap)
        if split is None:  # the bound is on top: filter and search the leaf
            at = np.flatnonzero(side.take(order))
            shape = (len(order), len(at) // len(order))
            order, vals = order.take(at).reshape(shape), vals.take(at).reshape(shape)
            cand = _best_split(wz, -key, order, vals, work)
            if cand is not None:
                heapq.heappush(heap, (-cand[0], leaf, cand[1:], order, vals, None))
            continue
        f, thr = split
        reach, child = leaves.pop(leaf), len(nodes)
        nodes[leaf] = [f, thr, child, 0.0, 0.0]
        nodes += [[-1, 0.0, -1, 0.0, 0.0], [-1, 0.0, -1, 0.0, 0.0]]
        goes_left = X[:, f] <= thr
        in_left = goes_left.take(reach)
        add_leaf(child, reach[in_left], order, vals, goes_left)
        add_leaf(child + 1, reach[~in_left], order, vals, ~goes_left)

    # Python ints and floats: int64 feature and left, float64 otherwise.
    feature, threshold, left, leaf_w_pos, leaf_w_neg = map(np.array, zip(*nodes))
    pred = np.empty(len(X), dtype=int)
    for leaf, reach in leaves.items():
        pred[reach] = 1 if leaf_w_pos[leaf] >= leaf_w_neg[leaf] else -1  # as `predict`
    tree = DecisionTree(feature=feature, threshold=threshold, left=left,
                        right=np.where(left >= 0, left + 1, -1),
                        leaf_w_neg=leaf_w_neg, leaf_w_pos=leaf_w_pos)
    return tree, pred


def fit_tree(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, max_splits: int = DEFAULT_MAX_SPLITS,
) -> DecisionTree:
    """Grow a tree best-first by weighted Gini decrease up to `max_splits`.
    A NaN or infinite entry of X raises NonFiniteSignal naming its row and
    column; weights must be finite and nonnegative, with a positive sum."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    w = np.asarray(w, dtype=np.float64)
    check_finite(X)
    if not ((w >= 0).all() and 0 < w.sum() < np.inf):
        raise ValueError("sample weights must be finite and nonnegative, with a positive sum")
    return _grow(X, y, w, np.ones(len(X), dtype=bool), *_presort(X), max_splits)[0]


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
        """Each row's alpha-weighted sum of the trees' +-1 votes. A NaN or
        infinite entry raises NonFiniteSignal naming its row and column."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.col_min):
            raise DimensionError(
                f"expected {len(self.col_min)} features, got {X.shape[1]}"
            )
        check_finite(X)
        scores = np.zeros(len(X))
        if self.trees:
            for alpha, pred in zip(self.alphas, _route(self.trees, self._normalize(X))):
                scores += alpha * pred  # tree by tree, in fit order
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
    check_finite(X)
    if (y == y[:1]).all():  # also true for no labels at all
        raise SingleClassError("training labels contain a single class")

    model = BoostedEnsemble(trees=[], alphas=[], col_min=X.min(axis=0), col_max=X.max(axis=0))
    Xn = np.asfortranarray(model._normalize(X))  # each split reads one column

    w = np.full(len(X), 1.0 / len(X))
    order, vals, work = _presort(Xn)  # once per fit

    for _ in range(rounds):
        fitted = subset_fn()  # the round's rows, as a mask
        tree, pred = _grow(Xn, y, w / w[fitted].sum(), fitted, order, vals, work, max_splits)
        miss = pred != y
        eps = float(w[miss].sum())
        if eps >= 0.5:
            if not model.trees:
                raise NoWeakLearner(f"boosting round 0 has weighted error {eps:.3f} >= 0.5")
            break  # discard this round
        e = eps or _EPS_PERFECT
        alpha = learning_rate * 0.5 * np.log((1.0 - e) / e)
        model.trees.append(tree)
        model.alphas.append(alpha)
        if eps == 0.0:
            break  # reweighting scales all weights alike: later rounds would repeat it
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
    A NaN or infinite entry of X raises NonFiniteSignal naming its row and
    column.
    """
    all_rows = np.ones(len(X), dtype=bool)
    return _boost(X, y, rounds, learning_rate, max_splits, subset_fn=lambda: all_rows)


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
    updates stay on the full weighted set. Raises NoWeakLearner and
    NonFiniteSignal as fit_adaboost does."""
    y = np.asarray(y, dtype=int)
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    n_keep = min(len(majority), int(round(len(minority) / DEFAULT_TARGET_RATIO)))
    rng = np.random.default_rng(seed)

    def subset() -> np.ndarray:
        fitted = np.zeros(len(y), dtype=bool)
        fitted[minority] = True
        fitted[rng.choice(majority, size=n_keep, replace=False)] = True
        return fitted

    return _boost(X, y, rounds, learning_rate, max_splits, subset_fn=subset)
