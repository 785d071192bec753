import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairfront._util import cross_entropy, sigmoid
from fairfront.gbdt import Ensemble, GBDTParams, Tree, per_tree_outputs, train


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


def random_tree(rng, depth, n_features, thresholds) -> Tree:
    """Unbalanced tree of at most ``depth`` levels, leaves at mixed depths,
    node ids shuffled away from preorder (the root stays node 0)."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(level):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.normal()))  # internal values must never be returned
        if level < depth and rng.random() < (0.9 if level == 0 else 0.7):
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


class TestTraining:
    def test_zero_rounds_predicts_label_mean(self):
        rng = np.random.default_rng(0)
        X, y = toy_data(rng)
        model = train(X, y, params=GBDTParams(rounds=0))
        assert model.n_trees == 0
        assert model.predict_proba(X[:5])[0] == pytest.approx(y.mean(), rel=1e-12)

    def test_weighted_base_margin(self):
        X = np.zeros((4, 1))
        y = np.array([0.0, 0.0, 1.0, 1.0])
        w = np.array([1.0, 1.0, 1.0, 3.0])
        model = train(X, y, sample_weight=w, params=GBDTParams(rounds=0))
        assert model.predict_proba(X)[0] == pytest.approx(4 / 6, rel=1e-12)

    def test_all_one_class_margin_only(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        model = train(X, np.ones(50), params=GBDTParams(rounds=20))
        assert model.n_trees == 0
        assert np.all(model.predict_proba(X) > 0.99)

    def test_separable_data_fits_perfectly(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(200, 1))
        y = (X[:, 0] > 0.1).astype(float)
        model = train(X, y, params=GBDTParams(depth=1, rounds=60, learning_rate=0.5, min_leaf=1.0))
        assert np.mean((model.predict_proba(X) > 0.5) == y) == 1.0

    def test_pure_noise_stays_calibrated(self):
        rng = np.random.default_rng(3)
        X, y = toy_data(rng, n=3000, informative=False)
        X_hold, y_hold = toy_data(rng, n=1500, informative=False)
        model = train(
            X, y, params=GBDTParams(depth=3, rounds=40, learning_rate=0.1, min_leaf=8.0),
        )
        assert np.abs(model.predict_proba(X_hold).mean() - 0.5) < 0.05

    def test_determinism(self):
        rng = np.random.default_rng(4)
        X, y = toy_data(rng)
        a = train(X, y, params=GBDTParams(depth=3, rounds=25))
        b = train(X, y, params=GBDTParams(depth=3, rounds=25))
        assert a.to_json() == b.to_json()

    def test_duplicated_vs_weighted_equivalence(self):
        # integer weights must reproduce training on the expanded dataset
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        y = (rng.random(40) < 0.5).astype(float)
        reps = rng.integers(1, 4, size=40)
        w = reps.astype(float)
        expanded_X = np.repeat(X, reps, axis=0)
        expanded_y = np.repeat(y, reps)
        params = GBDTParams(depth=3, rounds=12, min_leaf=2.0)
        weighted = train(X, y, sample_weight=w, params=params)
        duplicated = train(expanded_X, expanded_y, params=params)
        assert weighted.n_trees == duplicated.n_trees
        for ta, tb in zip(weighted.trees, duplicated.trees):
            assert np.allclose(ta.value, tb.value, atol=1e-10)
            assert np.array_equal(ta.feature, tb.feature)

    def test_early_stopping_improves_validation_loss(self):
        rng = np.random.default_rng(6)
        X, y = toy_data(rng, n=1200)
        Xv, yv = toy_data(rng, n=600)
        model = train(
            X, y, params=GBDTParams(depth=3, rounds=150, early_stop_rounds=10), valid=(Xv, yv)
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
        model = train(X, y, params=GBDTParams(depth=3, rounds=30))
        Xq = rng.normal(size=(100, 3))
        outputs = per_tree_outputs(model, Xq)
        recomposed = model.base_margin + model.learning_rate * outputs.sum(axis=1)
        assert np.allclose(recomposed, model.predict_raw(Xq), atol=1e-12)

    def test_single_tree_split_direction(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = train(X, y, params=GBDTParams(depth=1, rounds=1, min_leaf=1.0))
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
        depth=st.integers(1, 6),
        n_trees=st.integers(0, 12),
        n_rows=st.sampled_from([0, 1, 2, 255, 300]),
    )
    @example(seed=0, depth=3, n_trees=0, n_rows=5)
    @example(seed=1, depth=6, n_trees=6, n_rows=0)
    @example(seed=2, depth=6, n_trees=6, n_rows=1)
    def test_packed_walk_is_bitwise_the_tree_loop(self, seed, depth, n_trees, n_rows):
        rng = np.random.default_rng(seed)
        n_features = 3
        grid = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])  # shared tests across trees
        trees = [random_tree(rng, int(rng.integers(1, depth + 1)), n_features, grid) for _ in range(n_trees)]
        model = Ensemble(float(rng.normal()), float(rng.uniform(0.01, 1.0)), trees, n_features)
        pool = np.r_[grid, rng.normal(size=8), np.nan, np.inf, -np.inf]
        X = rng.choice(pool, size=(n_rows, n_features))
        assert np.array_equal(model.predict_raw(X), loop_raw(model, X))
        assert np.array_equal(per_tree_outputs(model, X), loop_outputs(model, X))

    def test_packing_follows_the_tree_list(self):
        rng = np.random.default_rng(9)
        X, y = toy_data(rng)
        model = train(X, y, params=GBDTParams(depth=3, rounds=10))
        Xq = rng.normal(size=(50, 3))
        first = model.predict_raw(Xq)
        extra = train(X, 1.0 - y, params=GBDTParams(depth=2, rounds=1)).trees[0]
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
        model = train(X, y, params=GBDTParams(depth=3, rounds=15))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = Ensemble.load(path)
        Xq = rng.normal(size=(50, 3))
        assert np.array_equal(loaded.predict_raw(Xq), model.predict_raw(Xq))

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            Ensemble.from_json('{"kind": "something-else"}')

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
        ],
    )
    def test_rejects_malformed_trees(self, field, index, bad, message):
        # (feature, threshold, left, right, value) of a stump and of a tree
        # whose node 2 splits again
        stump = ([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 2.0])
        two_level = (
            [0, -1, 1, -1, -1], [0.0, 0.0, 1.5, 0.0, 0.0], [1, -1, 3, -1, -1], [2, -1, 4, -1, -1],
            [0.0, -1.0, 0.0, 0.5, 1.5],
        )
        trees = [Tree(*(np.asarray(a) for a in arrays)) for arrays in (stump, two_level)]
        doc = json.loads(Ensemble(0.1, 0.5, trees, n_features=2).to_json())
        if index is None:
            doc["trees"][1][field].pop()
        else:
            doc["trees"][1][field][index] = bad
        with pytest.raises(ValueError, match=re.escape(message)):
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
        ],
    )
    def test_rejects_missing_and_mistyped_keys(self, edit, message):
        stump = Tree(*(np.asarray(a) for a in ([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 2.0])))
        doc = json.loads(Ensemble(0.1, 0.5, [stump, stump], n_features=2).to_json())
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            Ensemble.from_json(json.dumps(doc))
