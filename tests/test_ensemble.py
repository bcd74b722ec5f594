import hashlib
import heapq

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ecgalarm.ensemble as ens
from ecgalarm.ensemble import (
    _EPS_PERFECT,
    DEFAULT_LEARNING_RATE,
    DEFAULT_ROUNDS,
    BoostedEnsemble,
    DecisionTree,
    _best_split,
    _gini_mass,
    _grow,
    _prefix_sums,
    _presort,
    fit_adaboost,
    fit_rusboost,
    fit_tree,
)
from ecgalarm.exceptions import (
    DimensionError,
    NonFiniteSignal,
    NoWeakLearner,
    SingleClassError,
)


@st.composite
def _neighbour_tables(draw):
    """A fit_tree table whose values are 0-3 steps of `np.nextafter` above a
    few bases, so adjacent sorted values are often neighbouring doubles,
    whose `0.5 * (a + b)` rounds to b about half the time."""
    n, f = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    bases = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3)))
    X = bases[draw(arrays(np.int64, (n, f), elements=st.integers(0, len(bases) - 1)))]
    steps = draw(arrays(np.int64, (n, f), elements=st.integers(0, 3)))
    for step in range(1, 4):
        X = np.where(steps >= step, np.nextafter(X, np.inf), X)
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    w = draw(arrays(np.int64, n, elements=st.integers(1, 8))) / 64.0
    return X, y, w


def _normal_halves():
    """Doubles whose halves are normal and whose sum cannot overflow: 0, or
    a magnitude in [2**-1021, 2**1023), of either sign."""
    magnitude = st.one_of(st.just(0.0), st.floats(2.0**-1021, 2.0**1023, exclude_max=True))
    return st.builds(lambda m, neg: -m if neg else m, magnitude, st.booleans())


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

    def test_negative_weight_rejected(self):
        # The split search's masses assume nonnegative weights: 2*p*n is 0
        # where p+n is 0 only then.
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            fit_tree(X, np.array([1, -1, 1]), np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # An infinite weight used to give a single leaf, silently.
        w = np.full(10, 0.1)
        w[4] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_tree(np.arange(10.0)[:, None], np.array([1, -1] * 5), w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        # One NaN in this table used to grow 20 splits at NaN thresholds.
        X = np.arange(10.0)[:, None]
        X[3, 0] = bad
        with pytest.raises(NonFiniteSignal, match=f"^row 3, column 0 is {bad}$"):
            fit_tree(X, np.array([1, -1] * 5), np.full(10, 0.1))

    def test_equal_gains_split_the_lowest_leaf(self):
        # The root split leaves mirror-image children, (3+, 1-) and (1+, 3-),
        # whose best splits gain the same: the second split goes to the
        # lower-numbered leaf, the left child.
        X = np.array([0, 1, 1, 1, 2, 3, 3, 3], dtype=float)[:, None]
        y = np.array([1, -1, 1, 1, -1, -1, 1, -1])
        tree = fit_tree(X, y, np.full(8, 1 / 8), max_splits=2)
        assert tree.feature.tolist() == [0, 0, -1, -1, -1]
        assert tree.threshold.tolist() == [1.5, 0.5, 0.0, 0.0, 0.0]

    def test_split_budget_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 5))
        y = np.where(rng.random(200) > 0.5, 1, -1)
        tree = fit_tree(X, y, np.full(200, 1 / 200), max_splits=7)
        assert tree.n_splits <= 7

    def test_neighbouring_doubles_split_apart(self):
        # 0.5 * (a + b) rounds to b for these two: both rows would go left,
        # and the right leaf would be empty.
        X = np.array([[0.3], [0.30000000000000004]])
        tree = fit_tree(X, np.array([1, -1]), np.full(2, 0.5), max_splits=1)
        assert tree.n_splits == 1
        np.testing.assert_array_equal(tree.predict(X), [1, -1])

    @given(_neighbour_tables(), st.integers(1, 6))
    def test_split_sends_left_the_rows_it_scored(self, table, max_splits):
        # Every split found sends left, by `X[:, f] <= threshold`, exactly
        # the node's rows up to the position whose gain it scored.
        scored = []

        def spy(wz, parent, order, vals, work):
            cand = _best_split(wz, parent, order, vals, work)
            if cand is not None:
                # `_best_split` leaves its masked gains in the float buffer's
                # third block; their argmax is the position it scored.
                gains = work[1][2 * order.size : 3 * order.size]
                scored.append((order[cand[1]], int(gains.argmax()) % order.shape[1], cand))
            return cand

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ens, "_best_split", spy)
            fit_tree(*table, max_splits=max_splits)
        for rows, position, (_, f, thr) in scored:
            assert np.count_nonzero(table[0][rows, f] <= thr) == position + 1

    @given(_normal_halves(), _normal_halves())
    def test_halves_sum_bits_equal_half_sum(self, a, b):
        # Where a, b, their halves and their sum are normal, the two midpoints
        # round the same exact value once, so the rule moves no other split.
        assume(a + b == 0 or abs(a + b) >= 2.0**-1021)
        assert (a / 2 + b / 2).hex() == (0.5 * (a + b)).hex()

    @given(st.data(), st.integers(0, 6))
    def test_training_signs_equal_predict(self, data, max_splits):
        # The grower's +-1 for each of its rows comes from the leaf the row
        # ends in; `predict` routes the same row to the same leaf and answers
        # by the same rule. Rows outside the node get 0.
        X, w_pos, w_neg, rows = data.draw(_weighted_nodes())
        y = np.where(w_pos > 0, 1, np.where(w_neg > 0, -1, data.draw(
            arrays(np.int64, len(X), elements=st.sampled_from([-1, 1])))))
        order = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
        vals = np.take_along_axis(X.T, order, axis=1)
        tree, pred = _grow(X, y, w_pos + w_neg, rows, order, vals, _presort(X)[2], max_splits)
        assert pred[rows].tolist() == tree.predict(X[rows]).tolist()
        assert not pred[np.setdiff1d(np.arange(len(X)), rows)].any()


def _threshold(a, b):
    """The threshold between adjacent sorted values a < b: a / 2 + b / 2, or a
    when that rounds to b, so that `<= threshold` keeps b on the right."""
    mid = float(a) / 2 + float(b) / 2
    return float(a) if mid == b else mid


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
                best = (gain, f, _threshold(lo, hi))
    return best


def _search(X, w_pos, w_neg, rows, order, vals):
    """`_best_split` on a node as `_grow` calls it: only for a node of
    positive Gini mass and at least 2 rows, with that mass as `parent`."""
    w = np.stack([w_pos, w_neg])
    p, n = w.take(rows, axis=1).sum(axis=1).tolist()
    parent = 2.0 * p * n / (p + n) if p + n > 0 else 0.0
    if parent <= 0 or len(rows) < 2:
        return None
    wz = np.ascontiguousarray(w.T).view(np.complex128).ravel()
    return _best_split(wz, parent, order, vals, _presort(X)[2])


def _eager_split(w, rows, order, vals, work):
    """The split search with a float lane per class, which sums its node's
    class weights itself. `work` holds a float buffer of at least 5 *
    `order.size` and a bool buffer of at least `order.size`."""
    p, n = w.take(rows, axis=1).sum(axis=1).tolist()
    parent = 2.0 * p * n / (p + n) if p + n > 0 else 0.0
    if parent <= 0 or len(rows) < 2:
        return None
    floats, mask = work
    bufs = floats[: 5 * order.size].reshape(5, *order.shape)
    tmp, cum, gains = bufs[:2], bufs[2:4], bufs[4]
    np.add.accumulate(w.take(order, axis=1, out=tmp, mode="clip"), axis=2, out=cum)
    _gini_mass(cum[0], cum[1], out=gains, total=tmp[0])
    np.subtract(parent, gains, out=gains)
    right = np.subtract(cum[:, :, -1:], cum, out=tmp)
    gains -= _gini_mass(right[0], right[1], out=right[0], total=cum[0])
    ties = mask[: order.size].reshape(order.shape)
    np.equal(vals[:, :-1], vals[:, 1:], out=ties[:, :-1])
    ties[:, -1] = True
    np.putmask(gains, ties, -np.inf)
    f, i = divmod(int(gains.argmax()), gains.shape[1])
    if gains[f, i] == -np.inf:
        return None
    return float(gains[f, i]), f, _threshold(vals[f, i], vals[f, i + 1])


def _eager_grow(X, y, w, rows, order, vals, max_splits):
    """The grower that searches every child as soon as it is made, with float
    lanes: the trees and training signs `_grow` must reproduce."""
    w = np.stack([np.where(y > 0, w, 0.0), np.where(y < 0, w, 0.0)])
    work = np.empty(5 * order.size), np.empty(order.size, dtype=bool)
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    leaves = {0: rows}
    heap = []

    def search(leaf, order, vals):
        cand = _eager_split(w, leaves[leaf], order, vals, work)
        if cand is not None:
            heapq.heappush(heap, (-cand[0], leaf, cand[1], cand[2], order, vals))

    search(0, order, vals)
    n_splits = 0
    while heap and n_splits < max_splits:
        _, leaf, f, thr, order, vals = heapq.heappop(heap)
        rows = leaves.pop(leaf)
        n_splits += 1
        side = X[:, f] <= thr
        to_left = side.take(order)
        in_left = side.take(rows)
        for mask, sel in ((in_left, to_left), (~in_left, ~to_left)):
            child = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            leaves[child] = rows[mask]
            if n_splits < max_splits:
                at = np.flatnonzero(sel)
                shape = (len(order), len(at) // len(order))
                search(child, order.take(at).reshape(shape), vals.take(at).reshape(shape))
        feature[leaf] = f
        threshold[leaf] = thr
        left[leaf] = len(feature) - 2
        right[leaf] = len(feature) - 1

    leaf_w_pos = np.zeros(len(feature))
    leaf_w_neg = np.zeros(len(feature))
    pred = np.zeros(len(X), dtype=int)
    for node, rows in leaves.items():
        leaf_w_pos[node], leaf_w_neg[node] = w.take(rows, axis=1).sum(axis=1)
        pred[rows] = 1 if leaf_w_pos[node] >= leaf_w_neg[node] else -1
    tree = DecisionTree(np.asarray(feature, dtype=int), np.asarray(threshold, dtype=np.float64),
                        np.asarray(left, dtype=int), np.asarray(right, dtype=int),
                        leaf_w_neg, leaf_w_pos)
    return tree, pred


@st.composite
def _grow_tables(draw):
    """A table and the ascending rows of one round: tied values, some zero
    weights, weights on a 1/64 grid (exact sums, so equal gains are common)
    or in [0, 1) (rounded sums), and sometimes XOR labels on two binary
    columns."""
    n = draw(st.integers(1, 40))
    f = draw(st.integers(1, 4))
    X = draw(arrays(np.int64, (n, f), elements=st.integers(-3, 3))) / 2.0
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    if f >= 2 and draw(st.booleans()):
        X[:, :2] = X[:, :2] > 0
        y = np.where(X[:, 0] == X[:, 1], 1, -1)
    if draw(st.booleans()):
        w = draw(arrays(np.int64, n, elements=st.integers(0, 8))) / 64.0
    else:
        w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    rows = np.arange(n) if draw(st.booleans()) else np.flatnonzero(draw(arrays(np.bool_, n)))
    return X, y, w, rows


@st.composite
def _lanes(draw):
    """Both classes' weights of each row of a table, many 0 or subnormal, and
    a node's (features, rows) order: each feature a permutation of its rows."""
    n, f = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    weight = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 2.2e-308),
                       st.floats(0.0, 1.0))
    w = draw(arrays(np.float64, (2, n), elements=weight))
    rows = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    return w, np.array([draw(st.permutations(rows)) for _ in range(f)])


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


def _hash_tree(h, tree):
    for a in (tree.feature, tree.left, tree.right):
        h.update(np.asarray(a, dtype="<i8").tobytes())
    for a in (tree.threshold, tree.leaf_w_neg, tree.leaf_w_pos):
        h.update(np.asarray(a, dtype="<f8").tobytes())


def _edge_table(seed):
    """A seeded table with what the first pin lacks: about 30% of rows weigh 0,
    one column is constant and one takes two values; every fourth table has
    all columns constant (no split exists), and every fourth other one gives
    its negatives no weight (a weight-pure root)."""
    rng = np.random.default_rng(1000 + seed)
    n, f = int(rng.integers(20, 301)), int(rng.integers(2, 32))
    X = np.round(rng.normal(size=(n, f)), int(rng.integers(0, 3)))
    const, two = rng.choice(f, size=2, replace=False)
    X[:, const] = rng.normal()
    X[:, two] = rng.integers(0, 2, size=n)
    y = np.where(rng.random(n) < 0.4, 1, -1)
    w = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
    y[0], w[0] = 1, 1.0  # a positive weight sum
    if seed % 4 == 0:
        X[:] = X[0]
    elif seed % 4 == 1:
        w[y < 0] = 0.0
    return X, y, w


def _old_gini_mass(w_pos, w_neg):
    """`_gini_mass` as it was before its passes went in place."""
    total = w_pos + w_neg
    return np.divide(2.0 * w_pos * w_neg, total, out=np.zeros_like(total), where=total > 0)


def _plain_split(w_pos, w_neg, rows, order, vals):
    """`_best_split` as plain array expressions, without buffers or in-place
    passes: the bits the kernel must reproduce for any weights."""
    p, n = float(w_pos[rows].sum()), float(w_neg[rows].sum())
    parent = 2.0 * p * n / (p + n) if p + n > 0 else 0.0
    if parent <= 0 or len(rows) < 2:
        return None
    cum_p, cum_n = np.cumsum(w_pos[order], axis=1), np.cumsum(w_neg[order], axis=1)
    left_p, left_n = cum_p[:, :-1], cum_n[:, :-1]
    gains = (parent - _old_gini_mass(left_p, left_n)
             - _old_gini_mass(cum_p[:, -1:] - left_p, cum_n[:, -1:] - left_n))
    gains[vals[:, :-1] == vals[:, 1:]] = -np.inf
    f = int(gains.max(axis=1).argmax())
    i = int(gains[f].argmax())
    if gains[f, i] == -np.inf:
        return None
    return float(gains[f, i]), f, _threshold(vals[f, i], vals[f, i + 1])


@st.composite
def _class_weights(draw):
    """Per-class weights of a (features, rows) table: each entry goes to one
    class, and many are 0 or subnormal (below 2.2e-308)."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 30)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e-307), st.floats(0.0, 1.0))
    w = draw(arrays(np.float64, shape, elements=weight))
    pos = draw(arrays(np.bool_, shape))
    return np.where(pos, w, 0.0), np.where(pos, 0.0, w)


# sha256 of the trees `fit_tree` grows on 40 seeded tables. Rounding to 0-2
# decimals makes tied values common. Plain fits call no `np.exp`, whose last
# bits depend on the SIMD level; the digest is the same with numpy's AVX-512
# dispatch disabled (`TestSplitSearch` is marked `pins_numpy_simd`).
FIT_TREE_DIGEST = "f234f549a754fc4a8f6767fda8de508172559c671063bc9550636e1710c420f7"
# The same over 40 `_edge_table`s.
FIT_TREE_EDGE_DIGEST = "ee21e27edcdfd8ee3d88cca753eac2da22dbc46d0444cd903cbc7e9a7a796674"


@pytest.mark.pins_numpy_simd
class TestSplitSearch:
    @given(_weighted_nodes())
    def test_best_split_matches_brute_force(self, node):
        X, w_pos, w_neg, rows = node
        order = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
        vals = np.take_along_axis(X.T, order, axis=1)
        assert _search(X, w_pos, w_neg, rows, order, vals) == _brute_split(X, w_pos, w_neg, rows)

    def test_best_split_bits_equal_plain_expressions(self):
        # Weights in [0, 1) round as they sum, so evaluating the gains in
        # another order changes bits the brute-force check cannot see (the
        # winning split of about 3 in 10 of these nodes, when tried).
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, f = int(rng.integers(2, 41)), int(rng.integers(1, 5))
            X = rng.integers(-3, 4, (n, f)) / 2.0
            y = rng.choice([-1, 1], n)
            w = np.where(rng.random(n) < 0.2, 0.0, rng.random(n))
            w_pos, w_neg = np.where(y > 0, w, 0.0), np.where(y < 0, w, 0.0)
            rows = np.flatnonzero(rng.random(n) < 0.8)
            order = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
            vals = np.take_along_axis(X.T, order, axis=1)
            got = _search(X, w_pos, w_neg, rows, order, vals)
            assert got == _plain_split(w_pos, w_neg, rows, order, vals), seed

    @given(_lanes())
    def test_prefix_sums_bits_equal_float_lanes(self, lanes):
        # One complex lane per row sums both classes in the same row order
        # as two float lanes, so each prefix sum keeps its bits.
        w, order = lanes
        wz = np.ascontiguousarray(w.T).view(np.complex128).ravel()
        got = _prefix_sums(wz, order, np.empty(order.shape, np.complex128),
                           np.empty((2, *order.shape)))
        assert got.tobytes() == np.add.accumulate(w.take(order, axis=1), axis=2).tobytes()

    @given(_class_weights())
    def test_gini_mass_bits_equal_old_formula(self, weights):
        w_pos, w_neg = weights
        cum_p, cum_n = np.cumsum(w_pos, axis=1), np.cumsum(w_neg, axis=1)
        cases = [
            (w_pos, w_neg),  # one side 0 in every entry, both where the weight is
            (cum_p, cum_n),  # every prefix, as `_best_split` passes it
            (cum_p[:, :-1], cum_n[:, :-1]),  # the left sides as slice views
            (cum_p[:, -1:] - cum_p, cum_n[:, -1:] - cum_n),  # the right sides
        ]
        for p, n in cases:
            want = _old_gini_mass(p, n).tobytes()
            assert _gini_mass(p, n, np.empty_like(p), np.empty_like(p)).tobytes() == want
            inplace = p.copy()  # `out` is `w_pos`, as for the right sides
            assert _gini_mass(inplace, n, inplace, np.empty_like(p)).tobytes() == want

    def test_fit_tree_bytes_pinned(self):
        h = hashlib.sha256()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, f = int(rng.integers(20, 401)), int(rng.integers(1, 41))
            X = np.round(rng.normal(size=(n, f)), int(rng.integers(0, 3)))
            y = np.where(rng.random(n) < 0.4, 1, -1)
            _hash_tree(h, fit_tree(X, y, rng.random(n), max_splits=20))
        assert h.hexdigest() == FIT_TREE_DIGEST

    def test_fit_tree_bytes_pinned_edge_tables(self):
        h = hashlib.sha256()
        for seed in range(40):
            _hash_tree(h, fit_tree(*_edge_table(seed), max_splits=20))
        assert h.hexdigest() == FIT_TREE_EDGE_DIGEST


def test_split_search_without_avx512(kernel_rerun):
    # The split search's bits hold whichever SIMD kernels numpy dispatches to.
    kernel_rerun("avx512-off").assert_passed("tests/test_ensemble.py::TestSplitSearch",
                                             "tests/test_ensemble.py::TestFlatTieMask")


@st.composite
def _boundary_nodes(draw):
    """A node whose sorted feature rows run into each other: each feature's
    largest value is the next feature's smallest, so the flat run of the
    node's values repeats a value at every row boundary. Many nodes are one
    feature wide or two rows long."""
    n = draw(st.one_of(st.just(2), st.integers(2, 12)))
    f = draw(st.one_of(st.just(1), st.integers(1, 4)))
    X = draw(arrays(np.int64, (n, f), elements=st.integers(-3, 3))) / 2.0
    rows = np.flatnonzero(draw(arrays(np.bool_, n)))
    if len(rows) < 2:
        rows = np.arange(n)
    for j in range(1, f):
        X[:, j] += X[rows, j - 1].max() - X[rows, j].min()
    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    w = draw(arrays(np.int64, n, elements=st.integers(0, 8))) / 64.0
    return X, np.where(y > 0, w, 0.0), np.where(y < 0, w, 0.0), rows


@pytest.mark.pins_numpy_simd
class TestFlatTieMask:
    # `_best_split` masks ties by one compare over the flat (features, rows)
    # run of the node's values, which also compares each feature's last
    # value with the next one's first; the last column of every feature
    # must stay masked whether those two are equal or not.
    @given(_boundary_nodes())
    def test_row_boundaries(self, node):
        X, w_pos, w_neg, rows = node
        order = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
        vals = np.take_along_axis(X.T, order, axis=1)
        assert (vals[:-1, -1] == vals[1:, 0]).all()
        got = _search(X, w_pos, w_neg, rows, order, vals)
        assert got == _plain_split(w_pos, w_neg, rows, order, vals)
        assert got == _brute_split(X, w_pos, w_neg, rows)


def _tree_digest(tree):
    h = hashlib.sha256()
    _hash_tree(h, tree)
    return h.hexdigest()


def _assert_grow_equals_eager(X, y, w, rows, max_splits):
    order = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
    vals = np.take_along_axis(X.T, order, axis=1)
    tree, pred = _grow(X, y, w, rows, order, vals, _presort(X)[2], max_splits)
    want, want_pred = _eager_grow(X, y, w, rows, order, vals, max_splits)
    assert _tree_digest(tree) == _tree_digest(want)
    assert pred.tolist() == want_pred.tolist()


class TestEagerReference:
    # `_grow` searches a leaf only when its Gini mass, a bound on its gain,
    # comes off the heap; it must split the same leaves, at the same
    # thresholds, as the grower that searches every child at once.
    @settings(max_examples=300)
    @given(_grow_tables(), st.integers(0, 25))
    def test_grow_equals_eager_reference(self, table, max_splits):
        _assert_grow_equals_eager(*table, max_splits)

    def test_seeded_tables_equal_eager_reference(self):
        for seed in range(40):
            X, y = _fit_tree_table(seed)
            w = np.random.default_rng(seed).random(len(X))
            _assert_grow_equals_eager(X, y, w, np.arange(len(X)), seed % 26)
            X, y, w = _edge_table(seed)
            _assert_grow_equals_eager(X, y, w, np.arange(len(X)), 25 - seed % 26)

    def test_xor_equals_eager_reference(self):
        # XOR on two binary columns, equally weighted: the root split gains
        # exactly 0, and its two children have equal masses and equal gains.
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 3, dtype=float)
        y = np.where(X[:, 0] == X[:, 1], 1, -1)
        for max_splits in range(4):
            _assert_grow_equals_eager(X, y, np.full(12, 1 / 12), np.arange(12), max_splits)


def _boost_reference(X, y, rounds, learning_rate, max_splits, subset_fn):
    """`_boost`'s round loop in plain steps, the bits it must reproduce: each
    round fits its rows' table with `fit_tree`, which sorts that table afresh
    (the fit-wide presort filtered to the rows is the same order, see
    `test_round_order_is_stable_argsort`), and predicts every row with
    `predict`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if (y == y[:1]).all():
        raise SingleClassError("training labels contain a single class")
    model = BoostedEnsemble(trees=[], alphas=[], col_min=X.min(axis=0), col_max=X.max(axis=0))
    Xn = model._normalize(X)
    w = np.full(len(X), 1.0 / len(X))
    for _ in range(rounds):
        rows = subset_fn()
        tree = fit_tree(Xn[rows], y[rows], w[rows] / w[rows].sum(), max_splits)
        pred = tree.predict(Xn)
        eps = float(w[pred != y].sum())
        if eps >= 0.5:
            if not model.trees:
                raise NoWeakLearner(f"boosting round 0 has weighted error {eps:.3f} >= 0.5")
            break
        e = eps or _EPS_PERFECT
        alpha = learning_rate * 0.5 * np.log((1.0 - e) / e)
        model.trees.append(tree)
        model.alphas.append(alpha)
        if eps == 0.0:
            break
        w = w * np.exp(-alpha * y * pred)
        w = w / w.sum()
    return model


def _fit_outcome(fit, X, y):
    """The model `fit` returns, or the type of the boosting error it raises."""
    try:
        return fit(X, y)
    except (NoWeakLearner, SingleClassError) as error:
        return type(error)


def _assert_fit_equals_reference(fit, X, y):
    """`fit` and `fit` run through `_boost_reference` give the same trees,
    alphas and scores, bit for bit, or raise the same boosting error. Both
    reweight with the same `np.exp`, so this holds at any SIMD level."""
    got = _fit_outcome(fit, X, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ens, "_boost", _boost_reference)
        want = _fit_outcome(fit, X, y)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    trees = []
    for model in (got, want):
        h = hashlib.sha256()
        for tree in model.trees:
            _hash_tree(h, tree)
        trees.append(h.hexdigest())
    assert trees[0] == trees[1]
    assert repr(got.alphas) == repr(want.alphas)
    assert got.score_batch(X).tobytes() == want.score_batch(X).tobytes()


def _fit_tree_table(seed):
    """The features and labels of seed `seed` in `test_fit_tree_bytes_pinned`."""
    rng = np.random.default_rng(seed)
    n, f = int(rng.integers(20, 401)), int(rng.integers(1, 41))
    X = np.round(rng.normal(size=(n, f)), int(rng.integers(0, 3)))
    return X, np.where(rng.random(n) < 0.4, 1, -1)


class TestBoostReference:
    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_pinned_tables(self, fit):
        # 10 rounds on these larger tables keep the suite fast; the edge
        # tables below run all 30, with the rounds that stop boosting.
        for seed in range(40):
            X, y = _fit_tree_table(seed)
            _assert_fit_equals_reference(lambda X, y: fit(X, y, rounds=10), X, y)

    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_edge_tables(self, fit):
        for seed in range(40):
            X, y, _ = _edge_table(seed)
            _assert_fit_equals_reference(fit, X, y)

    @given(st.data())
    def test_held_back_rows_get_predicts_answer(self, data):
        # RUSBoost's grower carries its held-back rows down its splits with
        # its training rows and scores both from their leaves; the reference
        # predicts every row, so a held-back row scored otherwise would
        # change that round's error.
        n = data.draw(st.integers(4, 30))
        f = data.draw(st.integers(1, 3))
        X = data.draw(arrays(np.int64, (n, f), elements=st.integers(-3, 3))) / 2.0
        y = data.draw(arrays(np.int64, n, elements=st.sampled_from([-1, -1, 1])))
        seed = data.draw(st.integers(0, 3))
        _assert_fit_equals_reference(
            lambda X, y: fit_rusboost(X, y, rounds=10, seed=seed), X, y)


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

    def test_perfect_first_round(self):
        # Round 0 classifies every row: boosting keeps that one tree, with the
        # alpha of the stand-in error 1e-10, and stops.
        X = np.arange(10.0)[:, None]
        y = np.where(X[:, 0] < 5, -1, 1)
        model = fit_adaboost(X, y)
        assert len(model.trees) == 1
        alpha = DEFAULT_LEARNING_RATE * 0.5 * np.log((1 - 1e-10) / 1e-10)
        assert model.alphas == [alpha]
        assert model.score_batch(X).tolist() == (alpha * y).tolist()

    def test_single_class_raises(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClassError):
            fit_adaboost(X, np.ones(4, dtype=int))
        with pytest.raises(SingleClassError):  # no labels: no second class either
            fit_adaboost(X[:0], np.zeros(0, dtype=int))

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
        X, y = self._imbalanced()
        seen = []
        original = ens._grow

        def spy(Xn, y, w, rows, *args):
            seen.append((int(np.sum(y[rows] > 0)), int(np.sum(y[rows] < 0))))
            return original(Xn, y, w, rows, *args)

        monkeypatch.setattr(ens, "_grow", spy)
        ens.fit_rusboost(X, y, rounds=5, seed=1)
        assert seen, "no boosting rounds ran"
        for n_pos, n_neg in seen:
            assert n_pos == 10 and n_neg == 10

    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_round_order_is_stable_argsort(self, fit, monkeypatch):
        # The order and values each round takes from the fit-wide presort
        # must be the stable argsort of that round's table and its sorted
        # values, so its tree equals a fit that sorts afresh.
        X, y = self._imbalanced(seed=4)
        X = np.round(X, 1)  # tied values
        original = ens._grow
        rounds = []

        def spy(Xn, y, w, rows, order, vals, work, max_splits, held):
            Xs = Xn[rows]
            fresh = np.argsort(Xs.T, axis=1, kind="stable")
            rounds.append(np.array_equal(order, rows[fresh]) and np.take_along_axis(
                Xs.T, fresh, axis=1).tobytes() == vals.tobytes())
            return original(Xn, y, w, rows, order, vals, work, max_splits, held)

        monkeypatch.setattr(ens, "_grow", spy)
        fit(X, y, rounds=5)
        assert rounds and all(rounds)

    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_fit_calls_no_predict(self, fit, monkeypatch):
        # The grower scores every row of the round from its leaves, the
        # rows RUSBoost held back included.
        calls = []
        original = DecisionTree.predict

        def spy(tree, X):
            calls.append(len(X))
            return original(tree, X)

        monkeypatch.setattr(DecisionTree, "predict", spy)
        fit(*self._imbalanced())
        assert calls == []

    # Split searches per fit, counted when the lazy grower went in. A grower
    # that searches each queued leaf as soon as it is made makes 68, 50, 797
    # and 769: the separable `_imbalanced` table needs a split budget of 2
    # before a leaf is left unsearched.
    @pytest.mark.parametrize("fit, searches", [
        (fit_adaboost, (60, 694)),
        (lambda X, y, **kw: fit_rusboost(X, y, seed=1, **kw), (49, 664)),
    ], ids=["adaboost", "rusboost"])
    def test_search_counts_pinned(self, fit, searches, monkeypatch):
        calls = []
        original = ens._best_split

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(ens, "_best_split", spy)
        fit(*self._imbalanced(), max_splits=2)
        counts = [len(calls)]
        fit(*_metamorphic_data(0)[:2])
        counts.append(len(calls) - counts[0])
        assert tuple(counts) == searches

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


def _level_predict(tree, X):
    """`DecisionTree.predict` one tree at a time, level by level: the signs
    that routing every tree at once must reproduce."""
    node = np.zeros(len(X), dtype=int)
    while True:
        internal = tree.feature[node] >= 0
        if not internal.any():
            break
        idx = np.flatnonzero(internal)
        f = tree.feature[node[idx]]
        go_left = X[idx, f] <= tree.threshold[node[idx]]
        node[idx] = np.where(go_left, tree.left[node[idx]], tree.right[node[idx]])
    return np.where(tree.leaf_w_pos[node] >= tree.leaf_w_neg[node], 1, -1)


class TestScoring:
    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_routing_all_trees_equals_one_at_a_time(self, fit):
        # The training rows, and held-out rows on a coarse grid, scored by
        # every tree at once and by each tree alone; a single-leaf tree
        # (no split on a constant column) rides along in the last ensemble.
        for seed in range(20):
            X, y = _fit_tree_table(seed)
            rng = np.random.default_rng(seed)
            X_all = np.vstack([X, np.round(rng.normal(size=(50, X.shape[1])), 1)])
            model = fit(X, y, rounds=10)
            if seed == 19:
                model.trees.append(fit_tree(np.ones((4, X.shape[1])), np.array([1, 1, -1, 1]),
                                            np.full(4, 0.25)))
                model.alphas.append(0.5)
            Xn = model._normalize(X_all)
            want = np.zeros(len(X_all))
            for tree, alpha in zip(model.trees, model.alphas):
                signs = _level_predict(tree, Xn)
                assert tree.predict(Xn).tolist() == signs.tolist()
                want += alpha * signs
            assert model.score_batch(X_all).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_training_entry_named(self, fit, bad):
        # Either used to raise NoWeakLearner ("weighted error 0.500").
        X = np.round(np.random.default_rng(8).normal(size=(20, 3)), 1)
        X[7, 2] = bad
        with pytest.raises(NonFiniteSignal, match=f"^row 7, column 2 is {bad}$"):
            fit(X, np.array([1, -1] * 10))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_scoring_entry_named(self, bad):
        model = fit_adaboost(np.array([[0.0], [1.0]]), np.array([-1, 1]), rounds=1)
        X = np.zeros((3, 1))
        X[2, 0] = bad
        with pytest.raises(NonFiniteSignal, match=f"^row 2, column 0 is {bad}$"):
            model.score_batch(X)

    def test_normalization_stats_are_train_minmax(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4)) * 10
        y = np.where(X[:, 0] > 0, 1, -1)
        model = fit_adaboost(X, y, rounds=3)
        np.testing.assert_array_equal(model.col_min, X.min(axis=0))
        np.testing.assert_array_equal(model.col_max, X.max(axis=0))



def _metamorphic_data(seed, n=200, d=12):
    """Train and held-out rows, values on a 0.01 grid (tied values), and
    noisy labels, about 40% positive: no tree fits them, so all 30 rounds run."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n + 50, d)), 2)
    y = np.where(X[:, 0] - X[:, 3] + 2.0 * rng.normal(size=n + 50) > 0.8, 1, -1)
    return X[:n], y[:n], X[n:]


class TestMetamorphic:
    """Relations that hold bit for bit on any input, so they outlast a
    deliberate change of the pinned digests."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fit", [fit_adaboost, fit_rusboost])
    def test_power_of_two_column_scale(self, fit, seed):
        # Column j times 2**(j - 6): scaling by a power of two is exact, and
        # min-max normalization cancels it, so every score keeps its bits.
        X, y, X_test = _metamorphic_data(seed)
        scale = 2.0 ** (np.arange(X.shape[1]) - 6)
        model, scaled = fit(X, y), fit(X * scale, y)
        assert scaled.score_batch(X * scale).tobytes() == model.score_batch(X).tobytes()
        assert (scaled.score_batch(X_test * scale).tobytes()
                == model.score_batch(X_test).tobytes())

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("warp", [lambda x: x**3, np.exp], ids=["cube", "exp"])
    def test_adaboost_rank_invariance(self, warp, seed):
        # A strictly increasing column map keeps each column's order and ties,
        # and an AdaBoost tree sees only those: its split features, its
        # predictions on the training rows and so every alpha and training
        # score keep their bits; only the thresholds move. RUSBoost fails
        # this: a tree splits at the midpoint between adjacent values of the
        # round's subsample, and a row left out of the subsample can fall on
        # either side of the moved midpoint, which changes the round's error.
        X, y, _ = _metamorphic_data(seed)
        model, warped = fit_adaboost(X, y), fit_adaboost(warp(X), y)
        assert len(warped.trees) == len(model.trees) == DEFAULT_ROUNDS
        for tree, other in zip(model.trees, warped.trees):
            assert other.feature.tolist() == tree.feature.tolist()
        assert warped.alphas == model.alphas
        assert warped.score_batch(warp(X)).tobytes() == model.score_batch(X).tobytes()
