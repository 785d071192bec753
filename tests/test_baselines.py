from dataclasses import replace

import numpy as np
import pytest

from fairfront.baselines import (
    ot_projection,
    ot_repair,
    random_search_rescaling,
    repair_scores_by_label,
    rescale_transform,
)
from fairfront.bias_metrics import GroupedScores
from fairfront.data import generate_m1, split
from fairfront.distributions import EmpiricalDistribution, wasserstein1
from fairfront.gbdt import Ensemble, GBDTParams, train


def w1_by_group(scores, groups):
    g = GroupedScores.from_labels(scores, groups)
    return wasserstein1(g.distribution(0), g.distribution(1))


def blend(proj, base_probs, X, theta):
    """The projection's candidate probabilities at ``theta``."""
    [(_, _, probs)] = replace(proj, thetas=np.array([theta])).candidates(base_probs, X)
    return probs


@pytest.fixture(scope="module")
def m1_model():
    data = generate_m1(4000, seed=7)
    train_ds, test_ds = split(data, 0.5, seed=0)
    model = train(
        train_ds.X,
        train_ds.y,
        params=GBDTParams(depth=3, rounds=120, learning_rate=0.1, min_leaf=8.0, early_stop_rounds=15),
        valid=(test_ds.X, test_ds.y),
    )
    return model, train_ds, test_ds


@pytest.fixture(scope="module")
def m1_projection(m1_model):
    model, train_ds, _ = m1_model
    return ot_projection(model, train_ds.X, train_ds.g)


class TestRescaleTransform:
    def test_identity(self):
        assert rescale_transform(3.7, 1.0, 10.0) == 3.7

    def test_collapse_to_anchor(self):
        assert rescale_transform(3.7, 0.0, 10.0) == 10.0

    def test_expansion(self):
        assert rescale_transform(1.0, 2.0, 0.0) == 2.0


class TestRandomSearch:
    def test_zero_iterations_identity_only(self, m1_model):
        model, train_ds, _ = m1_model
        res = random_search_rescaling(
            model, train_ds.X, train_ds.y, train_ds.g, [0, 1], omegas=[0.0, 1.0], n_iter=0, seed=0
        )
        assert len(res.candidates) == 1
        assert np.allclose(res.candidates[0].a, 1.0)

    def test_identity_candidate_never_mutates_base(self, m1_model):
        model, train_ds, _ = m1_model
        res = random_search_rescaling(
            model, train_ds.X, train_ds.y, train_ds.g, [0, 2], omegas=[0.5], n_iter=5, seed=1
        )
        ident = res.candidates[0]
        probs = model.predict_proba(train_ds.X)
        from fairfront._util import cross_entropy

        assert ident.train_ce == pytest.approx(cross_entropy(probs, train_ds.y), abs=1e-15)
        assert ident.train_w1 == pytest.approx(w1_by_group(probs, train_ds.g), abs=1e-15)

    def test_best_objective_beats_identity(self, m1_model):
        model, train_ds, _ = m1_model
        omegas = [0.0, 2.0, 10.0]
        res = random_search_rescaling(
            model, train_ds.X, train_ds.y, train_ds.g, [0, 1, 2, 3, 4], omegas=omegas, n_iter=60, seed=2
        )
        ident = res.candidates[0]
        for omega in omegas:
            best = res.candidates[res.best_per_omega[omega]]
            assert best.train_ce + omega * best.train_w1 <= ident.train_ce + omega * ident.train_w1

    def test_large_omega_reduces_bias(self, m1_model):
        model, train_ds, _ = m1_model
        res = random_search_rescaling(
            model, train_ds.X, train_ds.y, train_ds.g, [0, 1, 2, 3, 4], omegas=[25.0], n_iter=400, seed=3
        )
        best = res.candidates[res.best_per_omega[25.0]]
        ident = res.candidates[0]
        assert best.train_w1 < ident.train_w1

    def test_empty_selection_identity_only(self, m1_model):
        model, train_ds, _ = m1_model
        res = random_search_rescaling(
            model, train_ds.X, train_ds.y, train_ds.g, [], omegas=[0.0], n_iter=10, seed=4
        )
        assert len(res.candidates) == 1


class TestOtRepair:
    def test_point_masses_meet_at_mixture(self):
        g = GroupedScores((np.zeros(4), np.ones(4)), [0.5, 0.5])
        repaired = ot_repair(g)
        assert np.allclose(repaired[0], 0.5)
        assert np.allclose(repaired[1], 0.5)
        flat = repair_scores_by_label(np.array([0, 0, 1, 1.0]), np.array([0, 0, 1, 1]))
        assert w1_by_group(flat, [0, 0, 1, 1]) == 0.0

    def test_identical_groups_unchanged(self):
        rng = np.random.default_rng(5)
        s = np.sort(rng.uniform(0, 1, 20))
        g = GroupedScores((s, s.copy()), [0.5, 0.5])
        repaired = ot_repair(g)
        assert np.allclose(repaired[0], s, atol=1e-12)
        assert np.allclose(repaired[1], s, atol=1e-12)

    def test_repair_kills_bias_on_model_scores(self, m1_model):
        model, train_ds, _ = m1_model
        probs = model.predict_proba(train_ds.X)
        repaired = repair_scores_by_label(probs, train_ds.g)
        assert w1_by_group(repaired, train_ds.g) <= 0.02

    def test_repaired_pool_matches_quantile_mixture(self):
        # pooled repaired distribution equals the weighted-quantile mixture
        rng = np.random.default_rng(6)
        s0 = rng.normal(0.4, 0.1, 4000)
        s1 = rng.normal(0.6, 0.15, 6000)
        groups = np.concatenate([np.zeros(4000, int), np.ones(6000, int)])
        scores = np.concatenate([s0, s1])
        repaired = repair_scores_by_label(scores, groups)
        g = GroupedScores.from_labels(scores, groups)
        levels = np.linspace(0.005, 0.995, 199)
        d0, d1 = g.distribution(0), g.distribution(1)
        mixture = 0.4 * d0.quantile(levels) + 0.6 * d1.quantile(levels)
        pooled = EmpiricalDistribution.from_samples(repaired)
        target = EmpiricalDistribution.from_samples(mixture)
        assert wasserstein1(pooled, target) <= 1e-2


class TestOtProjection:
    def test_theta_zero_is_base_exactly(self, m1_model, m1_projection):
        model, train_ds, _ = m1_model
        proj = m1_projection
        base_probs = model.predict_proba(train_ds.X)
        assert np.array_equal(blend(proj, base_probs, train_ds.X, 0.0), base_probs)

    def test_full_projection_reduces_train_bias(self, m1_model, m1_projection):
        model, train_ds, _ = m1_model
        proj = m1_projection
        base_probs = model.predict_proba(train_ds.X)
        projected = blend(proj, base_probs, train_ds.X, 1.0)
        assert w1_by_group(projected, train_ds.g) <= 0.5 * w1_by_group(base_probs, train_ds.g)

    def test_interpolation_is_monotone_per_record(self, m1_model, m1_projection):
        model, train_ds, _ = m1_model
        proj = m1_projection
        base_probs = model.predict_proba(train_ds.X)
        grid = [blend(proj, base_probs, train_ds.X, t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        diffs = np.diff(np.stack(grid), axis=0)
        assert np.all((diffs >= -1e-12).all(axis=0) | (diffs <= 1e-12).all(axis=0))

    def test_single_encoder_representation(self, m1_model, m1_projection):
        # the family is exactly base - theta * (base - projected)
        model, train_ds, _ = m1_model
        proj = m1_projection
        base_probs = model.predict_proba(train_ds.X)
        w = base_probs - proj.projected_model.predict_proba(train_ds.X)
        for theta in (0.2, 0.7):
            lhs = blend(proj, base_probs, train_ds.X, theta)
            assert np.allclose(lhs, base_probs - theta * w, atol=1e-12)

    @pytest.mark.parametrize("margin", [40.0, -800.0])
    def test_degenerate_repair_rejected(self, margin):
        # the model's probability rounds to exactly 1 (0), and so does every repaired score
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 5))
        with pytest.raises(ValueError, match="degenerate repair: every repaired score is 0, or every one is 1"):
            ot_projection(Ensemble(margin, 0.1, [], 5), X, np.arange(50) % 2)

    def test_theta_grid_default(self, m1_projection):
        proj = m1_projection
        assert proj.thetas.size == 15
        assert proj.thetas[0] == 0.0 and proj.thetas[-1] == 1.0
