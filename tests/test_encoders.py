import csv
import json
import tracemalloc

import numpy as np
import pytest

from fairfront import encoders
from fairfront.encoders import (
    PCA_ROW_CAP,
    EncoderMatrix,
    ExplanationSet,
    additive_encoders,
    exact_marginal_shapley,
    shapley_encoders,
    tree_pca_encoders,
)
from fairfront.gbdt import (
    _CHUNK_ROWS,
    Ensemble,
    GBDTParams,
    Tree,
    leaf_boxes,
    per_tree_outputs,
    train,
)
from oracles import enumerated_marginal_shapley, reconstruct_explanations, whole_matrix_tree_pca
from test_gbdt import random_tree


def small_ensemble(rng, n=300, rounds=12):
    X = rng.normal(size=(n, 3))
    y = (rng.random(n) < 0.3 + 0.4 * (X[:, 0] > 0)).astype(float)
    return train(X, y, params=GBDTParams(depth=2, rounds=rounds, min_leaf=4.0)), X


def stump(feature, threshold, left_value, right_value):
    return Tree(
        np.array([feature, -1, -1]),
        np.array([threshold, 0.0, 0.0]),
        np.array([1, -1, -1]),
        np.array([2, -1, -1]),
        np.array([0.0, left_value, right_value]),
    )


class TestAdditive:
    def test_degree_one_shape(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        enc = additive_encoders(X, degree=1, basis="monomial")
        assert enc.n_columns == 3
        assert np.allclose(enc.columns[:, 0], 1.0)
        assert np.allclose(enc.columns[:, 1], X[:, 0])
        assert np.allclose(enc.columns[:, 2], X[:, 1])

    def test_legendre_endpoint(self):
        # the mapped coordinate of the max sample is +1, where P_2(1) = 1
        X = np.linspace(0, 5, 11)[:, None]
        enc = additive_encoders(X, degree=2, basis="legendre")
        assert enc.columns[-1, 2] == pytest.approx(1.0)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            additive_encoders(np.zeros((3, 1)), degree=0)

    def test_constant_feature_dropped_under_legendre(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        enc = additive_encoders(X, degree=1, basis="legendre")
        assert enc.n_columns == 2  # const + the one varying feature

    def test_reevaluation_is_frozen(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 2.5  # a constant feature: dropped under legendre, kept as monomial
        for basis in ("monomial", "legendre"):
            enc = additive_encoders(X, degree=3, basis=basis)
            again = enc.reevaluate(X)
            assert np.array_equal(again.columns, enc.columns)
            assert again.names == enc.names
        # new records use the stored affine ranges, not their own
        X_new = X + 10.0
        shifted = additive_encoders(X, degree=3, basis="legendre").reevaluate(X_new)
        assert shifted.columns[:, 1].max() > 1.0 + 1e-9

    def test_reevaluation_rejects_another_feature_count(self):
        enc = additive_encoders(np.random.default_rng(1).normal(size=(20, 3)), degree=1, basis="monomial")
        with pytest.raises(ValueError, match="fit on 3 features, got 2"):
            enc.reevaluate(np.zeros((5, 2)))


class TestTreePca:
    def test_single_tree_component_is_normalized_centered_output(self):
        rng = np.random.default_rng(1)
        model, X = small_ensemble(rng, rounds=1)
        from fairfront.gbdt import per_tree_outputs

        enc = tree_pca_encoders(model, X, r=1)
        out = per_tree_outputs(model, X)[:, 0]
        centered = out - out.mean()
        comp = enc.columns[:, 1]
        # unit-norm loading: component equals +-centered output
        assert np.allclose(np.abs(comp), np.abs(centered), atol=1e-10)
        # sign convention: loading's largest coordinate positive => here +1
        assert np.allclose(comp, centered, atol=1e-10)

    @pytest.mark.parametrize("r", [0, -2])
    def test_fewer_than_one_component_rejected(self, r):
        rng = np.random.default_rng(2)
        model, X = small_ensemble(rng)
        with pytest.raises(ValueError, match=f"need at least one component, got {r}"):
            tree_pca_encoders(model, X, r=r)

    def test_components_orthogonal(self):
        rng = np.random.default_rng(3)
        model, X = small_ensemble(rng, rounds=15)
        enc = tree_pca_encoders(model, X, r=4)
        comps = enc.columns[:, 1:]
        gram = comps.T @ comps
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * max(np.max(np.abs(gram)), 1.0)

    def test_too_many_components_rejected(self):
        rng = np.random.default_rng(4)
        model, X = small_ensemble(rng, rounds=3)
        with pytest.raises(ValueError):
            tree_pca_encoders(model, X, r=model.n_trees + 1)

    def test_reevaluation_reproduces_columns(self, monkeypatch):
        rng = np.random.default_rng(5)
        model, X = small_ensemble(rng, rounds=10)
        for row_cap in (PCA_ROW_CAP, 100):
            monkeypatch.setattr(encoders, "PCA_ROW_CAP", row_cap)
            enc = tree_pca_encoders(model, X, r=3)
            again = enc.reevaluate(X, model=model)
            assert np.array_equal(again.columns, enc.columns)

    def test_reevaluation_in_row_blocks(self):
        rng = np.random.default_rng(7)
        model, X = small_ensemble(rng, rounds=120)
        enc = tree_pca_encoders(model, X, r=4)
        n = 12 * _CHUNK_ROWS + 217  # twelve full blocks of the walk and a ragged tail
        new = rng.normal(size=(n, 3))
        state = enc.provenance
        # the whole-matrix form: the kept trees' outputs, centred, on the loadings
        kept = state["kept_trees"].astype(np.intp)
        whole = (per_tree_outputs(model, new)[:, kept] - state["tree_means"]) @ state["loadings"]
        tracemalloc.start()
        try:
            blocked = enc.reevaluate(new, model=model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(blocked.columns[:, 1:], whole)
        # the whole-matrix form holds two (records x trees) matrices at once
        assert peak < n * model.n_trees * 8

    def test_reevaluation_rejects_a_smaller_model(self):
        rng = np.random.default_rng(5)
        model, X = small_ensemble(rng, rounds=10)
        small, _ = small_ensemble(rng, rounds=4)
        enc = tree_pca_encoders(model, X, r=3)
        with pytest.raises(ValueError, match=r"need at least \d+ trees, the model has 4"):
            enc.reevaluate(X, model=small)

    def test_reevaluation_needs_the_model(self):
        rng = np.random.default_rng(5)
        model, X = small_ensemble(rng, rounds=3)
        with pytest.raises(ValueError, match="needs the model"):
            tree_pca_encoders(model, X, r=1).reevaluate(X)

    def test_row_cap_keeps_construction_deterministic(self, monkeypatch):
        rng = np.random.default_rng(6)
        model, X = small_ensemble(rng, n=400, rounds=10)
        monkeypatch.setattr(encoders, "PCA_ROW_CAP", 100)
        capped = tree_pca_encoders(model, X, r=3)
        again = tree_pca_encoders(model, X, r=3)
        assert np.array_equal(capped.columns, again.columns)
        assert capped.columns.shape == (400, 4)  # all rows still get columns


def random_ensemble(rng, n_trees, thresholds, n_features=3):
    """``n_trees`` random trees of depth 3, the third a stump whose test no
    record of a standard normal sample fails: a tree of zero variance."""
    trees = [random_tree(rng, 3, n_features, thresholds) for _ in range(n_trees)]
    trees[2] = stump(0, 99.0, 0.25, -1.0)
    return Ensemble(0.1, 0.3, trees, n_features)


class TestTreePcaMoments:
    """The build merges blocks of per-tree outputs into one co-moment; its
    state matches the whole-matrix construction of ``oracles``."""

    @staticmethod
    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * np.max(np.abs(want))

    # n = 85 = 12 * 7 + 1 rows, so blocks of 7 rows end in a block of one;
    # 43 = 6 * 7 + 1 rows under the cap; blocks of one row; one block
    @pytest.mark.parametrize("block_rows, row_cap", [(7, None), (7, 43), (1, None), (1, 43), (None, None)])
    def test_streamed_state_matches_the_whole_matrix(self, monkeypatch, block_rows, row_cap):
        rng = np.random.default_rng(21)
        model = random_ensemble(rng, 30, rng.normal(size=40))
        X = rng.normal(size=(85, 3))
        if block_rows is not None:
            monkeypatch.setattr(encoders, "_PCA_BLOCK_CELLS", block_rows * model.n_trees)
        if row_cap is not None:
            monkeypatch.setattr(encoders, "PCA_ROW_CAP", row_cap)
        state = tree_pca_encoders(model, X, r=3).provenance
        want = whole_matrix_tree_pca(model, X, 3, encoders.PCA_ROW_CAP)
        assert 2 not in want["kept_trees"]
        assert np.array_equal(state["kept_trees"], want["kept_trees"])
        for key in ("tree_means", "eigenvalues", "loadings"):
            self.close(state[key], want[key])

    def test_peak_memory_is_below_one_output_matrix(self):
        rng = np.random.default_rng(23)
        model = random_ensemble(rng, 400, rng.normal(size=8))  # few distinct tests: a small walk
        n = 20 * _CHUNK_ROWS
        X = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            tree_pca_encoders(model, X, r=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * model.n_trees * 8


class TestSharedWalk:
    """One walk of the trees gives both the raw margins and the tree-pca
    columns; the margins are bitwise those of ``predict_raw`` whichever way
    they are read."""

    @staticmethod
    def tree_by_tree(model, X):
        """``predict_raw``'s rounding: one add of learning_rate * T_t(x) per
        tree, in tree order."""
        raw = np.full(X.shape[0], model.base_margin)
        for tree in model.trees:
            raw += model.learning_rate * tree.predict(X)
        return raw

    # a last block of one row (_CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1) is summed apart
    @pytest.mark.parametrize(
        "n", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 17]
    )
    def test_margins_are_bitwise_predict_raw(self, n):
        rng = np.random.default_rng(11)
        model, X = small_ensemble(rng, rounds=40)
        new = rng.normal(size=(n, 3))
        expected = self.tree_by_tree(model, new)
        blocks = []
        assert np.array_equal(model.predict_raw(new), expected)
        walked = model.predict_raw(new, lambda rows, outputs: blocks.append((rows, outputs.copy())))
        assert np.array_equal(walked, expected)
        enc = tree_pca_encoders(model, X, r=3)
        assert np.array_equal(enc.reevaluate(new, model=model).raw_scores, expected)
        # each block is handed over before it is scaled, and the blocks cover the rows in order
        outputs = np.zeros((model.n_trees, n))
        for rows, block in blocks:
            outputs[:, rows] = block
        assert [rows.start for rows, _ in blocks] == list(range(0, n, _CHUNK_ROWS))
        assert np.array_equal(outputs, per_tree_outputs(model, new).T)

    def test_build_gives_the_margins_of_its_records(self):
        rng = np.random.default_rng(12)
        model, X = small_ensemble(rng, n=3 * _CHUNK_ROWS + 17, rounds=30)
        enc = tree_pca_encoders(model, X, r=3)
        assert np.array_equal(enc.raw_scores, self.tree_by_tree(model, X))
        again = enc.reevaluate(X, model=model)
        assert np.array_equal(again.columns, enc.columns)
        assert np.array_equal(again.raw_scores, enc.raw_scores)

    def test_margins_only_where_a_walk_formed_the_columns(self):
        rng = np.random.default_rng(13)
        model, X = small_ensemble(rng, rounds=10)
        additive = additive_encoders(X, degree=2)
        assert additive.raw_scores is None
        assert additive.reevaluate(X, model=model).raw_scores is None
        pca = tree_pca_encoders(model, X, r=2)
        assert np.array_equal(pca.raw_scores, model.predict_raw(X))
        assert np.array_equal(pca.reevaluate(X, model=model).raw_scores, model.predict_raw(X))


class TestShapley:
    def test_linear_model_gives_centered_features(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        bg = rng.normal(size=(50, 2))

        def f(Z):
            return Z[:, 0] + Z[:, 1]

        expl = enumerated_marginal_shapley(f, X, bg)
        assert np.allclose(expl.values[:, 0], X[:, 0] - bg[:, 0].mean(), atol=1e-10)
        assert np.allclose(expl.values[:, 1], X[:, 1] - bg[:, 1].mean(), atol=1e-10)

    def test_efficiency(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        bg = rng.normal(size=(40, 3))

        def f(Z):
            return Z[:, 0] * Z[:, 1] - 0.5 * Z[:, 2] ** 2 + Z[:, 0]

        expl = enumerated_marginal_shapley(f, X, bg)
        assert np.allclose(expl.totals(), f(X) - np.mean(f(bg)), atol=1e-10)

    def test_product_model_hand_value(self):
        # v(0)=0.5, v({1})=v({2})=0.5, v({1,2})=1 with this background
        bg = np.array([[0.0, 0.0], [1.0, 1.0]])
        x = np.array([[1.0, 1.0]])

        def f(Z):
            return Z[:, 0] * Z[:, 1]

        expl = enumerated_marginal_shapley(f, x, bg)
        assert expl.values[0, 0] == pytest.approx(0.25)
        assert expl.values[0, 1] == pytest.approx(0.25)

    def test_null_player_has_zero_column(self):
        # every tree splits on feature 0 only, so features 1 and 2 are null players
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 3))
        trees = [stump(0, t, *rng.normal(size=2)) for t in rng.normal(size=6)]
        enc = shapley_encoders(Ensemble(0.2, 0.5, trees, 3), X, background_size=16, seed=0)
        assert np.max(np.abs(enc.columns[:, 1])) > 0.1
        assert np.max(np.abs(enc.columns[:, 2])) <= 1e-10
        assert np.max(np.abs(enc.columns[:, 3])) <= 1e-10

    def test_feature_cap_enforced(self):
        X = np.zeros((2, 17))
        with pytest.raises(ValueError, match="^17 features exceed the exact enumeration cap of 16$"):
            enumerated_marginal_shapley(lambda Z: Z.sum(axis=1), X, X)

    def test_reevaluation_reproduces_columns(self):
        rng = np.random.default_rng(11)
        model, X = small_ensemble(rng, n=80, rounds=6)
        enc = shapley_encoders(model, X, background_size=12, seed=2)
        again = enc.reevaluate(X, model=model)
        assert np.array_equal(again.columns, enc.columns)
        assert np.array_equal(again.centers, enc.centers)

    def test_centered_rebalancing_additivity(self):
        # with centered attribution columns, (1 - theta_i)-scaled parts sum
        # to the centered family score for any theta
        rng = np.random.default_rng(10)
        model, X = small_ensemble(rng, n=30, rounds=10)
        enc = shapley_encoders(model, X, background_size=20, seed=3)
        theta = np.array([0.3, -0.4, 0.8, 0.2])
        fam_scores = model.predict_raw(X) - enc.columns @ theta
        parts = (1.0 - theta[1:])[None, :] * enc.columns[:, 1:]
        assert np.allclose(parts.sum(axis=1), fam_scores - fam_scores.mean(), atol=1e-8)


class TestTreeShap:
    """TreeSHAP over the leaves against the 2^n coalition enumeration."""

    @staticmethod
    def assert_agrees(model, X, background):
        got = exact_marginal_shapley(model, X, background)
        want = enumerated_marginal_shapley(model.predict_raw, X, background)
        assert got.reference == want.reference
        assert np.max(np.abs(got.values - want.values), initial=0.0) <= 1e-9

    @pytest.mark.parametrize("n_features", range(2, 9))
    @pytest.mark.parametrize("depth", range(2, 6))
    def test_random_ensembles_with_nan_cells(self, n_features, depth):
        rng = np.random.default_rng(100 * n_features + depth)
        trees = [random_tree(rng, depth, n_features, rng.normal(size=5)) for _ in range(6)]
        model = Ensemble(0.3, 0.1, trees, n_features)
        X = rng.normal(size=(7, n_features))
        background = rng.normal(size=(5, n_features))
        X[rng.random(X.shape) < 0.2] = np.nan
        background[rng.random(background.shape) < 0.2] = np.nan
        self.assert_agrees(model, X, background)

    def test_path_splitting_twice_on_one_feature(self):
        # feature 0 bounds the middle leaf from both sides, NaN goes right
        # twice; infinite cells meet the unbounded side of every interval
        tree = Tree(
            np.array([0, -1, 0, 1, -1, -1, -1]),
            np.array([-0.5, 0.0, 0.7, 0.1, 0.0, 0.0, 0.0]),
            np.array([1, -1, 3, 4, -1, -1, -1]),
            np.array([2, -1, 6, 5, -1, -1, -1]),
            np.array([0.0, -1.0, 0.0, 0.0, 2.0, 3.0, 0.5]),
        )
        model = Ensemble(0.0, 1.0, [tree], 2)
        grid = np.array([-np.inf, -1.0, -0.5, 0.0, 0.7, 1.0, np.inf, np.nan])
        X = np.array([[a, b] for a in grid for b in grid])
        self.assert_agrees(model, X, X[::5])

    def test_one_row_background(self):
        rng = np.random.default_rng(31)
        model = Ensemble(0.1, 0.2, [random_tree(rng, 4, 4, rng.normal(size=5)) for _ in range(8)], 4)
        X = rng.normal(size=(10, 4))
        self.assert_agrees(model, X, rng.normal(size=(1, 4)))

    def test_zero_trees_give_zero_attributions(self):
        model = Ensemble(0.4, 0.1, [], 3)
        X = np.random.default_rng(32).normal(size=(5, 3))
        expl = exact_marginal_shapley(model, X, X[:2])
        assert np.array_equal(expl.values, np.zeros((5, 3)))
        assert expl.reference == 0.4
        self.assert_agrees(model, X, X[:2])

    def test_efficiency_past_the_enumeration_cap(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(400, 24))
        y = (rng.random(400) < 0.3 + 0.4 * (X[:, 5] > 0)).astype(float)
        model = train(X, y, params=GBDTParams(depth=4, rounds=30, min_leaf=4.0))
        expl = exact_marginal_shapley(model, X[:50], X[200:300])
        assert np.max(np.abs(expl.totals() + expl.reference - model.predict_raw(X[:50]))) <= 1e-9

    def test_rows_do_not_depend_on_their_block(self, monkeypatch):
        rng = np.random.default_rng(34)
        model = Ensemble(0.0, 0.3, [random_tree(rng, 4, 5, rng.normal(size=5)) for _ in range(40)], 5)
        X = rng.normal(size=(60, 5))
        X[rng.random(X.shape) < 0.1] = np.nan
        whole = exact_marginal_shapley(model, X, X[:9]).values
        for i in (0, 17, 59):
            assert np.array_equal(exact_marginal_shapley(model, X[i:i + 1], X[:9]).values[0], whole[i])
        order = rng.permutation(60)
        assert np.array_equal(exact_marginal_shapley(model, X[order], X[:9]).values, whole[order])
        # blocks of a few records and a few leaves: the same bits per leaf block
        monkeypatch.setattr(encoders, "_TREESHAP_CELLS", 200)
        small = exact_marginal_shapley(model, X, X[:9]).values
        assert np.max(np.abs(small - whole)) <= 1e-12
        assert np.array_equal(exact_marginal_shapley(model, X[order], X[:9]).values, small[order])

    def test_works_in_blocks_of_rows(self, monkeypatch):
        # no (records x leaves x slots) array: peak well under one of them
        rng = np.random.default_rng(35)
        model, X = small_ensemble(rng, n=3000, rounds=100)
        monkeypatch.setattr(encoders, "_TREESHAP_CELLS", 1 << 14)
        leaves = leaf_boxes(model)[0].size
        tracemalloc.start()
        try:
            exact_marginal_shapley(model, X, X[:50])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.shape[0] * leaves * 2 * 8  # depth-2 paths: 2 slots per leaf

    @staticmethod
    def chain(n):
        """One tree whose leftmost path tests features 0..n-1 in turn."""
        feature = np.array(list(range(n)) + [-1] * (n + 1))
        left = np.array(list(range(1, n)) + [2 * n] + [-1] * (n + 1))
        right = np.array(list(range(n, 2 * n)) + [-1] * (n + 1))
        value = np.random.default_rng(n).normal(size=2 * n + 1)
        return Ensemble(0.0, 1.0, [Tree(feature, np.zeros(2 * n + 1), left, right, value)], n)

    def test_longest_supported_path(self):
        X = np.random.default_rng(36).choice([-1.0, 1.0], size=(6, 8))
        self.assert_agrees(self.chain(8), X, X[::2])

    def test_longer_paths_rejected(self):
        X = np.zeros((2, 9))
        with pytest.raises(ValueError, match="^a tree path tests 9 distinct features; .* more than 8 are not"):
            exact_marginal_shapley(self.chain(9), X, X)

    def test_feature_count_checked(self):
        model = Ensemble(0.0, 1.0, [stump(0, 0.0, 1.0, 2.0)], 2)
        with pytest.raises(ValueError, match="expected 2 features"):
            exact_marginal_shapley(model, np.zeros((3, 3)), np.zeros((2, 2)))


class TestReconstruction:
    def base_parts(self, rng):
        X = rng.normal(size=(20, 2))
        bg = rng.normal(size=(30, 2))

        def f(Z):
            return Z[:, 0] + 0.5 * Z[:, 1] ** 2

        enc = additive_encoders(X, degree=1, basis="monomial")
        base_expl = enumerated_marginal_shapley(f, X, bg)
        col_expl = [
            enumerated_marginal_shapley(lambda Z, j=j: Z[:, j - 1], X, bg)
            for j in range(1, enc.n_columns)
        ]
        return f, X, bg, enc, base_expl, col_expl

    def test_zero_theta_is_identity(self):
        rng = np.random.default_rng(11)
        _, _, _, enc, base_expl, col_expl = self.base_parts(rng)
        rec = reconstruct_explanations(base_expl, col_expl, np.zeros(enc.n_columns))
        assert np.array_equal(rec.values, base_expl.values)
        assert rec.reference == base_expl.reference

    def test_affine_identity(self):
        rng = np.random.default_rng(12)
        _, _, _, enc, base_expl, col_expl = self.base_parts(rng)
        t1 = rng.normal(size=enc.n_columns)
        t2 = rng.normal(size=enc.n_columns)
        lhs = reconstruct_explanations(base_expl, col_expl, t1 + t2)
        r1 = reconstruct_explanations(base_expl, col_expl, t1)
        r2 = reconstruct_explanations(base_expl, col_expl, t2)
        assert np.allclose(lhs.values, r1.values + r2.values - base_expl.values, atol=1e-12)

    def test_matches_direct_shapley_of_family_member(self):
        rng = np.random.default_rng(13)
        f, X, bg, enc, base_expl, col_expl = self.base_parts(rng)
        theta = np.array([0.1, 0.6, -0.3])

        def f_theta(Z):
            return f(Z) - (theta[0] + theta[1] * Z[:, 0] + theta[2] * Z[:, 1])

        direct = enumerated_marginal_shapley(f_theta, X, bg)
        rec = reconstruct_explanations(base_expl, col_expl, theta)
        assert np.allclose(rec.values, direct.values, atol=1e-8)
        assert rec.reference == pytest.approx(direct.reference, abs=1e-8)

    def test_shape_mismatch_rejected(self):
        base = ExplanationSet(np.zeros((3, 2)), 0.0)
        bad = [ExplanationSet(np.zeros((4, 2)), 0.0)]
        with pytest.raises(ValueError):
            reconstruct_explanations(base, bad, [0.0, 1.0])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        model, X = small_ensemble(rng, rounds=8)
        enc = tree_pca_encoders(model, X, r=2)
        enc.save(tmp_path / "enc.csv", tmp_path / "enc.json")
        loaded = EncoderMatrix.load(tmp_path / "enc.csv", tmp_path / "enc.json")
        assert np.array_equal(loaded.columns, enc.columns)
        assert loaded.names == enc.names
        again = loaded.reevaluate(X, model=model)
        assert np.array_equal(again.columns, enc.columns)

    def test_save_writes_the_csv_writer_bytes(self, tmp_path):
        # the same bytes as one csv.writer row of repr(float) cells per record
        # and json.dump of the sidecar, for each kind that needs no background
        rng = np.random.default_rng(16)
        model, X = small_ensemble(rng, rounds=8)
        X[0, 0] = -1e-300  # its square underflows to 0.0 and its cube to -0.0
        for enc in (tree_pca_encoders(model, X, r=2), additive_encoders(X, degree=3, basis="monomial")):
            enc.save(tmp_path / "enc.csv", tmp_path / "enc.json")
            with open(tmp_path / "want.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(enc.names)
                for row in enc.columns:
                    writer.writerow([repr(float(v)) for v in row])
            with open(tmp_path / "want.json", "w") as fh:
                json.dump(json.loads((tmp_path / "enc.json").read_text()), fh)
            assert (tmp_path / "enc.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
            assert (tmp_path / "enc.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize(
        "kind, key, edit, error",
        [
            ("additive", "hi", lambda v: v[:-1], "'hi' has shape (2,), not (3,): one entry per feature, as 'lo'"),
            ("additive", "kept_features", lambda v: v[:-1],
             "'kept_features' holds 2 features of degree 2, so 4 columns, but {csv} has 6 non-constant columns"),
            ("additive", "degree", lambda v: v + 1,
             "'kept_features' holds 3 features of degree 3, so 9 columns, but {csv} has 6 non-constant columns"),
            ("additive", "kept_features", lambda v: v[:-1] + [99],
             "'kept_features' holds 99.0, not the index of one of the 3 features"),
            ("tree-pca", "kept_trees", lambda v: [-1] + v[1:], "'kept_trees' holds -1.0, not a tree index"),
            ("tree-pca", "kept_trees", lambda v: [0.5] + v[1:], "'kept_trees' holds 0.5, not a tree index"),
            ("shapley", "phi_centers", lambda v: v[:-1],
             "'phi_centers' has shape (2,), not (3,): one entry per background column"),
            ("shapley", "background", lambda v: [row[:-1] for row in v],
             "'background' has shape (5, 2), not (5, 3): one column per non-constant column of {csv}"),
        ],
    )
    def test_load_checks_the_arrays_of_a_provenance(self, tmp_path, kind, key, edit, error):
        # tree-pca's shapes, and the centres and scales, are cells of test_envelope
        rng = np.random.default_rng(17)
        model, X = small_ensemble(rng, n=60, rounds=4)
        if kind == "additive":
            enc = additive_encoders(X, degree=2, basis="monomial")
        elif kind == "tree-pca":
            enc = tree_pca_encoders(model, X, r=2)
        else:
            enc = shapley_encoders(model, X, background_size=5)
        csv_path, sidecar_path = tmp_path / "enc.csv", tmp_path / "enc.json"
        enc.save(csv_path, sidecar_path)
        sidecar = json.loads(sidecar_path.read_text())
        state = sidecar["provenance"]
        if isinstance(state[key], dict):
            state[key]["__array__"] = edit(state[key]["__array__"])
        else:
            state[key] = edit(state[key])
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError) as caught:
            EncoderMatrix.load(csv_path, sidecar_path)
        assert str(caught.value) == f"{sidecar_path} provenance: {error.format(csv=csv_path)}"

    def test_standardization_round_trip(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(50, 2)) * 40.0
        enc = additive_encoders(X, degree=1, basis="monomial")
        std = enc.standardized_columns()
        assert np.allclose(std[:, 1:].std(axis=0), 1.0)
        theta_std = np.array([0.5, 1.2, -0.7])
        theta_orig = enc.original_theta(theta_std)
        assert np.allclose(enc.columns @ theta_orig, std @ theta_std, atol=1e-12)
