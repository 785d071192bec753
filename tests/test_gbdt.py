import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairfront._util import cross_entropy, logit, sigmoid
from fairfront.gbdt import (
    _LAMBDA,
    _MARGIN_CLAMP,
    _MIN_GAIN,
    Ensemble,
    GBDTParams,
    Tree,
    leaf_boxes,
    per_tree_outputs,
    train,
)
from oracles import GENERAL_GBDT


def toy_data(rng, n=400, informative=True):
    X = rng.normal(size=(n, 3))
    if informative:
        p = sigmoid(1.5 * X[:, 0] - 0.8 * X[:, 2])
    else:
        p = np.full(n, 0.5)
    y = (rng.random(n) < p).astype(float)
    return X, y


def loop_raw(model, X):
    """Reference ``predict_raw``: one ``Tree.predict`` per tree, added in
    tree order."""
    raw = np.full(X.shape[0], model.base_margin)
    for tree in model.trees:
        raw += model.learning_rate * tree.predict(X)
    return raw


def loop_outputs(model, X):
    """Reference ``per_tree_outputs``."""
    if not model.trees:
        return np.zeros((X.shape[0], 0))
    return np.column_stack([tree.predict(X) for tree in model.trees])


def random_tree(rng, depth, n_features, thresholds, full=False) -> Tree:
    """Unbalanced tree of at most ``depth`` levels, leaves at mixed depths,
    node ids shuffled away from preorder (the root stays node 0); a
    ``full`` tree has every leaf at ``depth``."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(level):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.normal()))  # internal values must never be returned
        if level < depth and (full or rng.random() < (0.9 if level == 0 else 0.7)):
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(thresholds))
            left[node] = build(level + 1)
            right[node] = build(level + 1)
        return node

    build(0)
    new_id = np.r_[0, 1 + rng.permutation(len(feature) - 1)]
    order = np.argsort(new_id)

    def relabel(kids):
        return np.asarray([new_id[k] if k >= 0 else -1 for k in kids], dtype=np.intp)[order]

    return Tree(
        np.asarray(feature, dtype=np.intp)[order],
        np.asarray(threshold)[order],
        relabel(left),
        relabel(right),
        np.asarray(value)[order],
    )


def oracle_best_split(X, rows, g, w, min_leaf):
    """Reference split search: a stable argsort of every feature at every
    node, one feature at a time."""
    wn = w[rows]
    gn = g[rows]
    w_total = wn.sum()
    wg_total = (wn * gn).sum()
    parent_score = wg_total * wg_total / w_total
    best = None
    for f in range(X.shape[1]):
        xs = X[rows, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        cw = np.cumsum(wn[order])
        cwg = np.cumsum((wn * gn)[order])
        distinct = xs_sorted[1:] > xs_sorted[:-1]
        if not np.any(distinct):
            continue
        cand = np.flatnonzero(distinct)
        wl = cw[cand]
        wr = w_total - wl
        ok = (wl >= min_leaf) & (wr >= min_leaf)
        if not np.any(ok):
            continue
        cand = cand[ok]
        wl, wr = wl[ok], wr[ok]
        gl = cwg[cand]
        gr = wg_total - gl
        gain = gl * gl / wl + gr * gr / wr - parent_score
        k = int(np.argmax(gain))
        if gain[k] > _MIN_GAIN and (best is None or gain[k] > best[0]):
            threshold = 0.5 * (xs_sorted[cand[k]] + xs_sorted[cand[k] + 1])
            best = (float(gain[k]), f, threshold)
    return best


def oracle_fit_tree(X, rows, g, h, w, depth, min_leaf) -> Tree:
    feature, threshold, left, right, value = [], [], [], [], []

    def build(node_rows, level):
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        split = oracle_best_split(X, node_rows, g, w, min_leaf) if level < depth else None
        if split is None:
            num = (w[node_rows] * g[node_rows]).sum()
            den = (w[node_rows] * h[node_rows]).sum() + _LAMBDA
            value[node_id] = -num / den
            return node_id
        _, f, thr = split
        mask = X[node_rows, f] <= thr
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = build(node_rows[mask], level + 1)
        right[node_id] = build(node_rows[~mask], level + 1)
        return node_id

    build(rows, 0)
    return Tree(*(np.asarray(a, dtype=t) for a, t in
                  ((feature, np.intp), (threshold, float), (left, np.intp), (right, np.intp), (value, float))))


def oracle_train(X, y, w, params, valid=None) -> Ensemble:
    """Reference boosting loop: per-node sorts, and every round's update
    from ``Tree.predict`` on the training rows."""
    p_bar = float((w * y).sum() / w.sum())
    base_margin = float(np.clip(logit(p_bar), -_MARGIN_CLAMP, _MARGIN_CLAMP))
    ensemble = Ensemble(base_margin, params.learning_rate, [], X.shape[1])
    if p_bar in (0.0, 1.0) or params.rounds == 0:
        return ensemble
    rows = np.arange(y.size)
    raw = np.full(y.size, base_margin)
    use_valid = valid is not None and params.early_stop_rounds > 0
    if use_valid:
        X_val, y_val = valid
        raw_val = np.full(y_val.size, base_margin)
        best_loss, best_round, stall = cross_entropy(sigmoid(raw_val), y_val), 0, 0
    for round_idx in range(params.rounds):
        p = sigmoid(raw)
        tree = oracle_fit_tree(X, rows, p - y, p * (1.0 - p), w, params.depth, params.min_leaf)
        ensemble.trees.append(tree)
        raw += params.learning_rate * tree.predict(X)
        if use_valid:
            raw_val += params.learning_rate * tree.predict(X_val)
            loss = cross_entropy(sigmoid(raw_val), y_val)
            if loss < best_loss - 1e-12:
                best_loss, best_round, stall = loss, round_idx + 1, 0
            else:
                stall += 1
                if stall >= params.early_stop_rounds:
                    break
    if use_valid:
        ensemble.trees = ensemble.trees[:best_round]
    return ensemble


def mixed_features(rng, n, n_features):
    """Columns that stress the split search's tie rules: normal values,
    small integers (long runs of equal values), rescaled copies of an
    earlier column (the same partitions and bitwise-equal gains, so the
    lowest feature must win), ranks of an earlier column with its ties
    broken by row index (the same sums at that column's boundaries), and
    NaN cells."""
    cols = []
    for j in range(n_features):
        kind = int(rng.integers(4)) if j else int(rng.integers(2))
        if kind == 0:
            col = rng.normal(size=n)
        elif kind == 1:
            col = rng.integers(0, 3, size=n).astype(float)
        elif kind == 2:
            col = 3.0 * cols[int(rng.integers(j))] - 1.0
        else:
            col = np.argsort(np.argsort(cols[int(rng.integers(j))], kind="stable")).astype(float)
        cols.append(col)
    X = np.column_stack(cols)
    X[rng.random(X.shape) < rng.choice([0.0, 0.15])] = np.nan
    return X


class TestTraining:
    def test_zero_rounds_predicts_label_mean(self):
        rng = np.random.default_rng(0)
        X, y = toy_data(rng)
        model = train(X, y, params=replace(GENERAL_GBDT, rounds=0))
        assert model.n_trees == 0
        assert model.predict_proba(X[:5])[0] == pytest.approx(y.mean(), rel=1e-12)

    def test_weighted_base_margin(self):
        # soft labels weigh each record toward 1 by its label
        X = np.zeros((6, 1))
        y = np.array([0.0, 0.5, 1.0, 1.0, 0.8, 0.7])
        model = train(X, y, params=replace(GENERAL_GBDT, rounds=0))
        assert model.predict_proba(X)[0] == pytest.approx(4 / 6, rel=1e-12)

    def test_all_one_class_margin_only(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        model = train(X, np.ones(50), params=replace(GENERAL_GBDT, rounds=20))
        assert model.n_trees == 0
        assert np.all(model.predict_proba(X) > 0.99)

    def test_records_without_features_fit_single_leaves(self):
        # nothing to split on: every round fits one leaf
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        model = train(np.zeros((5, 0)), y, params=replace(GENERAL_GBDT, rounds=3, early_stop_rounds=0))
        assert model.n_trees == 3
        assert all(tree.feature.tolist() == [-1] for tree in model.trees)

    def test_separable_data_fits_perfectly(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(200, 1))
        y = (X[:, 0] > 0.1).astype(float)
        model = train(X, y, params=replace(GENERAL_GBDT, depth=1, rounds=60, learning_rate=0.5, min_leaf=1.0))
        assert np.mean((model.predict_proba(X) > 0.5) == y) == 1.0

    def test_pure_noise_stays_calibrated(self):
        rng = np.random.default_rng(3)
        X, y = toy_data(rng, n=3000, informative=False)
        X_hold, y_hold = toy_data(rng, n=1500, informative=False)
        model = train(
            X, y, params=replace(GENERAL_GBDT, depth=3, rounds=40, learning_rate=0.1, min_leaf=8.0),
        )
        assert np.abs(model.predict_proba(X_hold).mean() - 0.5) < 0.05

    def test_determinism(self):
        rng = np.random.default_rng(4)
        X, y = toy_data(rng)
        a = train(X, y, params=replace(GENERAL_GBDT, depth=3, rounds=25))
        b = train(X, y, params=replace(GENERAL_GBDT, depth=3, rounds=25))
        assert a.to_json() == b.to_json()

    def test_soft_labels_match_the_weighted_stack(self):
        # one row with soft label r per record grows the trees of the 2n-row
        # stack (X, 0, 1 - r) and (X, 1, r): per record the copies' weights
        # sum to 1, w*g to p - r and w*h to p(1 - p); only their rounding differs
        params = replace(GENERAL_GBDT, depth=2, rounds=8, learning_rate=0.3, min_leaf=10.5)
        n = 200
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, 3))
            r = rng.random(n)
            r[rng.random(n) < 0.1] = 0.0
            r[rng.random(n) < 0.1] = 1.0
            model = train(X, r, params=params)
            stacked = oracle_train(np.vstack([X, X]), np.r_[np.zeros(n), np.ones(n)], np.r_[1.0 - r, r], params)
            assert model.base_margin == pytest.approx(stacked.base_margin, abs=1e-12)
            assert model.n_trees == stacked.n_trees
            for mine, theirs in zip(model.trees, stacked.trees):
                for name in ("feature", "threshold", "left", "right"):
                    assert np.array_equal(getattr(mine, name), getattr(theirs, name)), (seed, name)
                assert np.allclose(mine.value, theirs.value, rtol=0, atol=1e-10), seed

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 150),
        n_features=st.integers(1, 6),
        depth=st.integers(1, 5),
        min_leaf=st.integers(0, 8),
        soft=st.booleans(),
        early_stop=st.booleans(),
    )
    # an unstable sort of these ties sums them in another order, and another feature wins
    @example(seed=86, n_rows=44, n_features=3, depth=1, min_leaf=0, soft=False, early_stop=False)
    @example(seed=76, n_rows=76, n_features=3, depth=1, min_leaf=0, soft=False, early_stop=False)
    def test_presorted_training_is_bitwise_the_per_node_sort(
        self, seed, n_rows, n_features, depth, min_leaf, soft, early_stop
    ):
        rng = np.random.default_rng(seed)
        X = mixed_features(rng, n_rows + 40, n_features)
        signal = np.nan_to_num(X[:, 0]) - np.nan_to_num(X[:, -1])
        y = (rng.random(X.shape[0]) < sigmoid(signal - np.median(signal))).astype(float)
        valid = (X[n_rows:], y[n_rows:]) if early_stop else None
        X, y = X[:n_rows], y[:n_rows]
        if soft:  # uniform labels, some of them exactly 0 or 1
            y = np.where(rng.random(n_rows) < 0.2, y, rng.random(n_rows))
        params = GBDTParams(depth=depth, rounds=12, learning_rate=0.3, min_leaf=float(min_leaf), early_stop_rounds=2)
        model = train(X, y, params=params, valid=valid)
        reference = oracle_train(X, y, np.ones(n_rows), params, valid)
        assert model.to_json() == reference.to_json()

    @pytest.mark.parametrize(
        "labels, message",
        [
            pytest.param(lambda X, y, v=v: (X, np.r_[y[:5], v, y[6:]]), "labels must lie in [0, 1]", id=str(v))
            for v in (1.5, -0.1, np.nan, np.inf, -np.inf)
        ]
        + [
            pytest.param(lambda X, y: (X, y[:-1]), "X and y must be row-aligned", id="one-short"),
            pytest.param(lambda X, y: (X, np.r_[y, 1.0]), "X and y must be row-aligned", id="one-long"),
            pytest.param(lambda X, y: (X[:0], y[:0]), "no training records", id="empty"),
        ],
    )
    def test_bad_labels_rejected(self, labels, message):
        rng = np.random.default_rng(10)
        X, y = toy_data(rng)
        with pytest.raises(ValueError, match=re.escape(message)):
            train(*labels(X, y), params=replace(GENERAL_GBDT, rounds=5))

    def test_early_stopping_improves_validation_loss(self):
        rng = np.random.default_rng(6)
        X, y = toy_data(rng, n=1200)
        Xv, yv = toy_data(rng, n=600)
        model = train(
            X, y, params=replace(GENERAL_GBDT, depth=3, rounds=150, early_stop_rounds=10), valid=(Xv, yv)
        )
        base_loss = cross_entropy(np.full(yv.size, y.mean()), yv)
        final_loss = cross_entropy(model.predict_proba(Xv), yv)
        assert final_loss <= base_loss + 1e-12
        assert 0 < model.n_trees < 150


class TestPrediction:
    def test_empty_ensemble_is_margin(self):
        model = Ensemble(base_margin=0.3, learning_rate=0.1, trees=[], n_features=2)
        assert np.all(model.predict_raw(np.zeros((3, 2))) == 0.3)

    def test_rowsum_consistency(self):
        rng = np.random.default_rng(7)
        X, y = toy_data(rng)
        model = train(X, y, params=replace(GENERAL_GBDT, depth=3, rounds=30))
        Xq = rng.normal(size=(100, 3))
        outputs = per_tree_outputs(model, Xq)
        recomposed = model.base_margin + model.learning_rate * outputs.sum(axis=1)
        assert np.allclose(recomposed, model.predict_raw(Xq), atol=1e-12)

    def test_single_tree_split_direction(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = train(X, y, params=replace(GENERAL_GBDT, depth=1, rounds=1, min_leaf=1.0))
        tree = model.trees[0]
        below = tree.predict(np.array([[-5.0]]))[0]
        above = tree.predict(np.array([[5.0]]))[0]
        assert below == tree.value[tree.left[0]]
        assert below < above  # residuals push label-0 rows down

    def test_dimension_mismatch_rejected(self):
        model = Ensemble(base_margin=0.0, learning_rate=0.1, trees=[], n_features=3)
        with pytest.raises(ValueError):
            model.predict_raw(np.zeros((2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(0, 6),
        n_trees=st.integers(0, 12),
        n_rows=st.sampled_from([0, 1, 2, 255, 300]),
        deep=st.booleans(),
    )
    @example(seed=0, depth=3, n_trees=0, n_rows=5, deep=False)
    @example(seed=1, depth=6, n_trees=6, n_rows=0, deep=False)
    @example(seed=2, depth=6, n_trees=6, n_rows=1, deep=False)
    # single leaves only: no distinct test, so the outcome block has no rows
    @example(seed=4, depth=0, n_trees=5, n_rows=300, deep=False)
    # depth-2 trees and one of depth 6: the top two levels, then four more
    @example(seed=5, depth=2, n_trees=8, n_rows=300, deep=True)
    def test_packed_walk_is_bitwise_the_tree_loop(self, seed, depth, n_trees, n_rows, deep):
        rng = np.random.default_rng(seed)
        n_features = 3
        grid = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])  # shared tests across trees
        trees = [random_tree(rng, int(rng.integers(min(depth, 1), depth + 1)), n_features, grid)
                 for _ in range(n_trees)]
        if deep:
            trees.insert(int(rng.integers(n_trees + 1)), random_tree(rng, 6, n_features, grid, full=True))
        model = Ensemble(float(rng.normal()), float(rng.uniform(0.01, 1.0)), trees, n_features)
        pool = np.r_[grid, rng.normal(size=8), np.nan, np.inf, -np.inf]
        X = rng.choice(pool, size=(n_rows, n_features))
        raw, outputs = loop_raw(model, X), loop_outputs(model, X)
        assert np.array_equal(model.predict_raw(X), raw)
        assert np.array_equal(per_tree_outputs(model, X), outputs)
        blocks = []
        assert np.array_equal(model.predict_raw(X, lambda rows, block: blocks.append((rows, block.copy()))), raw)
        assert sum(rows.stop - rows.start for rows, _ in blocks) == n_rows
        for rows, block in blocks:
            assert np.array_equal(block, outputs[rows].T)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 6), n_trees=st.integers(0, 8))
    @example(seed=3, depth=6, n_trees=0)
    def test_each_record_lies_in_the_box_of_its_leaf(self, seed, depth, n_trees):
        rng = np.random.default_rng(seed)
        n_features = 3
        grid = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
        trees = [random_tree(rng, int(rng.integers(1, depth + 1)), n_features, grid) for _ in range(n_trees)]
        model = Ensemble(0.0, 1.0, trees, n_features)
        X = rng.choice(np.r_[grid, rng.normal(size=8), np.nan, np.inf, -np.inf], size=(40, n_features))
        values, lo, hi = leaf_boxes(model)
        X = X[:, None, :]
        inside = ((~(X <= lo) | (lo == -np.inf)) & ((X <= hi) | (hi == np.inf))).all(axis=2)
        assert values.size == sum(int(np.sum(tree.feature == -1)) for tree in trees)
        assert np.array_equal(inside.sum(axis=1), np.full(40, n_trees))  # one leaf per tree
        want = per_tree_outputs(model, X[:, 0]).sum(axis=1) if n_trees else np.zeros(40)
        assert np.allclose(inside @ values, want, rtol=0, atol=1e-12)

    def test_packing_follows_the_tree_list(self):
        rng = np.random.default_rng(9)
        X, y = toy_data(rng)
        model = train(X, y, params=replace(GENERAL_GBDT, depth=3, rounds=10))
        Xq = rng.normal(size=(50, 3))
        first = model.predict_raw(Xq)
        extra = train(X, 1.0 - y, params=replace(GENERAL_GBDT, depth=2, rounds=1)).trees[0]
        model.trees.append(extra)  # training appends in place
        assert np.array_equal(model.predict_raw(Xq), loop_raw(model, Xq))
        assert not np.array_equal(model.predict_raw(Xq), first)
        model.trees = model.trees[:4]  # early stopping rebinds a prefix
        assert np.array_equal(model.predict_raw(Xq), loop_raw(model, Xq))
        assert np.array_equal(per_tree_outputs(model, Xq), loop_outputs(model, Xq))
        model.trees[1] = extra
        assert np.array_equal(per_tree_outputs(model, Xq), loop_outputs(model, Xq))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        X, y = toy_data(rng)
        model = train(X, y, params=replace(GENERAL_GBDT, depth=3, rounds=15))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Ensemble.load(path)
        Xq = rng.normal(size=(50, 3))
        assert np.array_equal(loaded.predict_raw(Xq), model.predict_raw(Xq))

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            Ensemble.from_json('{"kind": "something-else"}')

    # (feature, threshold, left, right, value) of a stump, of a tree whose
    # node 2 splits again, and of one whose node 4, two levels down, splits
    # again
    STUMP = ([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 2.0])
    TWO_LEVEL = (
        [0, -1, 1, -1, -1], [0.0, 0.0, 1.5, 0.0, 0.0], [1, -1, 3, -1, -1], [2, -1, 4, -1, -1],
        [0.0, -1.0, 0.0, 0.5, 1.5],
    )
    THREE_LEVEL = (
        [0, -1, 1, -1, 0, -1, -1], [0.0, 0.0, 1.5, 0.0, -0.5, 0.0, 0.0], [1, -1, 3, -1, 5, -1, -1],
        [2, -1, 4, -1, 6, -1, -1], [0.0, -1.0, 0.0, 0.5, 0.0, 2.0, 2.5],
    )

    def document(self):
        trees = [Tree(*(np.asarray(a) for a in arrays)) for arrays in (self.STUMP, self.TWO_LEVEL, self.THREE_LEVEL)]
        return json.loads(Ensemble(0.1, 0.5, trees, n_features=2).to_json())

    @pytest.mark.parametrize(
        "field, index, bad, message",
        [
            ("feature", 0, 2, "tree 1: node 0 splits on feature 2, outside [0, 2)"),
            ("feature", 2, -3, "tree 1: node 2 splits on feature -3"),
            ("left", 0, 5, "tree 1: node 0 has children (5, 2), outside [0, 5)"),
            ("left", 2, 0, "tree 1: node 0 is reached twice"),
            ("threshold", 2, float("nan"), "tree 1: non-finite threshold"),
            ("value", 3, float("inf"), "tree 1: non-finite value"),
            ("right", None, None, "tree 1: node arrays must be nonempty, flat and of equal length"),
            # below level 1
            ("feature", 4, 7, "tree 2: node 4 splits on feature 7, outside [0, 2)"),
            ("right", 4, 9, "tree 2: node 4 has children (5, 9), outside [0, 7)"),
            ("right", 4, 5, "tree 2: node 5 is reached twice (a cycle or a shared child)"),
            ("left", 4, 2, "tree 2: node 2 is reached twice (a cycle or a shared child)"),
        ],
    )
    def test_rejects_malformed_trees(self, field, index, bad, message):
        tree = int(re.match(r"tree (\d+):", message).group(1))  # the tree the fault is put in
        doc = self.document()
        if index is None:
            doc["trees"][tree][field].pop()
        else:
            doc["trees"][tree][field][index] = bad
        with pytest.raises(ValueError, match=re.escape(message)):
            Ensemble.from_json(json.dumps(doc))

    def test_names_the_lowest_tree_and_its_shallowest_fault(self):
        doc = self.document()
        doc["trees"].append(json.loads(json.dumps(doc["trees"][2])))
        doc["trees"][3]["feature"][0] = 9  # the root of the last tree
        doc["trees"][2]["feature"][4] = 9  # two levels down
        doc["trees"][2]["feature"][1] = 9  # a leaf one level down
        with pytest.raises(ValueError, match=re.escape("tree 2: node 1 splits on feature 9, outside [0, 2)")):
            Ensemble.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["trees"][1].pop("threshold"), "tree 1: missing key 'threshold'"),
            (lambda doc: doc["trees"][0].__setitem__("value", 2.0), "tree 0: 'value' has type float"),
            (lambda doc: doc["trees"][1].__setitem__("left", ["a"] * 3), "tree 1: bad 'left'"),
            (lambda doc: doc["trees"].__setitem__(0, [0, 1]), "tree 0: expected a JSON object, got list"),
            (lambda doc: doc.pop("learning_rate"), "ensemble: missing key 'learning_rate'"),
            (lambda doc: doc.__setitem__("n_features", "2"), "ensemble: 'n_features' has type str"),
            (lambda doc: doc.__setitem__("trees", {}), "ensemble: 'trees' has type dict"),
            (lambda doc: doc.pop("link"), "ensemble: missing key 'link'"),
            (lambda doc: doc.__setitem__("link", "identity"), "ensemble: 'link' must be 'logistic', got 'identity'"),
            (lambda doc: doc.__setitem__("link", "banana"), "ensemble: 'link' must be 'logistic', got 'banana'"),
        ],
    )
    def test_rejects_missing_and_mistyped_keys(self, edit, message):
        stump = Tree(*(np.asarray(a) for a in ([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 2.0])))
        doc = json.loads(Ensemble(0.1, 0.5, [stump, stump], n_features=2).to_json())
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            Ensemble.from_json(json.dumps(doc))


class TestParamChecks:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": float("nan")}, "learning_rate must be finite and positive"),
            ({"learning_rate": float("inf")}, "learning_rate must be finite and positive"),
            ({"learning_rate": 0.0}, "learning_rate must be finite and positive"),
            ({"min_leaf": float("nan")}, "min_leaf must be finite and nonnegative"),
            ({"min_leaf": float("inf")}, "min_leaf must be finite and nonnegative"),
            ({"min_leaf": -1.0}, "min_leaf must be finite and nonnegative"),
            ({"early_stop_rounds": -1}, "early_stop_rounds must be nonnegative"),
            ({"depth": 0}, "depth must be at least 1, got 0"),
            ({"rounds": -1}, "rounds must be nonnegative, got -1"),
        ],
    )
    def test_bad_params_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GBDTParams(**kwargs)

    def test_zero_min_leaf_accepted(self):
        assert GBDTParams(min_leaf=0.0, early_stop_rounds=0).min_leaf == 0.0

    @pytest.mark.parametrize(
        "make_valid, message",
        [
            (lambda Xv, yv: (Xv[:, :2], yv), r"validation X has shape \(50, 2\); expected \(rows, 3\)"),
            (lambda Xv, yv: (np.column_stack([Xv, Xv[:, :2]]), yv), r"shape \(50, 5\); expected \(rows, 3\)"),
            (lambda Xv, yv: (Xv[:, 0], yv), r"shape \(50,\); expected \(rows, 3\)"),
            (lambda Xv, yv: (Xv, yv[:40]), "validation y has 40 labels for 50 rows"),
            (lambda Xv, yv: (Xv, yv + 0.5), "validation labels must be binary 0/1"),
        ],
    )
    def test_bad_validation_sets_rejected(self, make_valid, message):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float)
        Xv = rng.normal(size=(50, 3))
        yv = (Xv[:, 0] > 0).astype(float)
        with pytest.raises(ValueError, match=message):
            train(X, y, params=replace(GENERAL_GBDT, rounds=3), valid=make_valid(Xv, yv))
