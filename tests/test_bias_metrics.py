import numpy as np
import pytest

from fairfront._util import sigmoid
from fairfront.bias_metrics import (
    GroupedScores,
    ThresholdMeasure,
    cost_bias,
    invariant_bias,
    multi_attribute_bias,
    snap_to_pooled,
)
from fairfront.distributions import (
    ABS,
    SQUARE,
    EmpiricalDistribution,
    wasserstein1,
)
from oracles import classifier_bias, transformed_group_w1, transport_cost

UNIFORM = ThresholdMeasure.uniform01()


def two_groups(s0, s1, p0=0.5):
    return GroupedScores((np.asarray(s0, float), np.asarray(s1, float)), [p0, 1 - p0])


def random_groups(rng, n_atoms=8, lo=0.0, hi=1.0):
    return two_groups(rng.uniform(lo, hi, n_atoms), rng.uniform(lo, hi, n_atoms))


def example_e1_groups(n=5000):
    """Point mass at zero against a uniform grid on (0, 1], pooled half/half."""
    z0 = np.zeros(n)
    z1 = (np.arange(1, n + 1)) / n
    g = two_groups(z0, z1)
    return g, g.pooled()


class TestGroupedScores:
    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            GroupedScores((np.array([1.0]),), np.array([1.0]))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            two_groups([], [1.0])

    def test_from_labels(self):
        g = GroupedScores.from_labels([0.1, 0.2, 0.3, 0.4], [0, 1, 0, 1])
        assert g.n_groups == 2
        assert np.allclose(g.scores_by_group[0], [0.1, 0.3])
        assert np.allclose(g.group_probs, [0.5, 0.5])

    def test_pooled_is_probability_weighted_mixture(self):
        g = two_groups([0.0, 0.0], [1.0], p0=0.25)
        pooled = g.pooled()
        assert pooled.cdf(0.0) == pytest.approx(0.25)
        assert pooled.cdf(1.0) == 1.0


class TestClassifierBias:
    def test_rate_difference(self):
        # group 0 accepts 3/5 above t=0.5, group 1 accepts 2/5
        g = two_groups([0, 0.6, 0.7, 0.8, 0.2], [0, 0.6, 0.7, 0.2, 0.3])
        assert classifier_bias(g, 0.5, ABS) == pytest.approx(0.2)

    def test_identical_groups(self):
        g = two_groups([0.1, 0.9], [0.1, 0.9])
        for t in (-1, 0.1, 0.5, 2.0):
            assert classifier_bias(g, t, ABS) == 0.0

    def test_point_masses(self):
        g = two_groups([0.0], [1.0])
        assert classifier_bias(g, 0.5, ABS) == 1.0


class TestCostBias:
    def test_point_mass_abs(self):
        g = two_groups([0.25], [0.75])
        assert cost_bias(g, ABS, UNIFORM) == pytest.approx(0.5)

    def test_point_mass_square(self):
        g = two_groups([0.25], [0.75])
        assert cost_bias(g, SQUARE, UNIFORM) == pytest.approx(0.5)

    def test_identical_groups(self):
        g = two_groups([0.2, 0.6], [0.2, 0.6])
        assert cost_bias(g, ABS, UNIFORM) == 0.0

    def test_abs_uniform_equals_wasserstein(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g = random_groups(rng)
            w1 = wasserstein1(g.distribution(0), g.distribution(1))
            assert cost_bias(g, ABS, UNIFORM) == pytest.approx(w1, abs=1e-12)

    def test_fubini_against_atthe_atoms(self):
        # integrating the single-threshold bias over an atomic measure equals
        # the aggregated metric exactly
        rng = np.random.default_rng(4)
        g = random_groups(rng)
        mu_atoms = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 6))
        mu = ThresholdMeasure.empirical(mu_atoms)
        by_hand = sum(
            w * classifier_bias(g, t, ABS) for t, w in zip(mu_atoms.values, mu_atoms.weights)
        )
        assert cost_bias(g, ABS, mu) == pytest.approx(by_hand, abs=1e-15)

    def test_pooled_scores_measure_matches_invariant_bias(self):
        # weighting thresholds by the pooled score mixture reproduces the
        # distribution-invariant metric
        rng = np.random.default_rng(8)
        g = random_groups(rng)
        via_measure = cost_bias(g, ABS, ThresholdMeasure.pooled_scores())
        assert via_measure == pytest.approx(invariant_bias(g, g.pooled()), abs=1e-12)

    def test_square_empirical_matches_transport_of_pushforwards(self):
        # with smooth score distributions, the square-cost threshold average
        # equals the transport cost between the mu-pushforwards of the CDFs
        rng = np.random.default_rng(13)
        m = 100_000
        z0 = rng.normal(0.1, 1.0, m)
        z1 = rng.normal(-0.2, 1.2, m)
        ts = rng.normal(0.0, 1.0, m)
        g = two_groups(z0, z1)
        mu = ThresholdMeasure.empirical(EmpiricalDistribution.from_samples(ts))
        d0, d1 = g.distribution(0), g.distribution(1)
        push0 = EmpiricalDistribution.from_samples(d0.cdf(ts))
        push1 = EmpiricalDistribution.from_samples(d1.cdf(ts))
        lhs = cost_bias(g, SQUARE, mu)
        rhs = transport_cost(push0, push1, SQUARE)
        assert lhs == pytest.approx(rhs, abs=2e-2)


class TestInvariantBias:
    def test_example_point_mass_vs_uniform_grid(self):
        g, pooled = example_e1_groups()
        assert invariant_bias(g, pooled) == pytest.approx(0.75, abs=0.01)

    def test_right_continuous_transform_differs(self):
        g, pooled = example_e1_groups()
        right = transformed_group_w1(g, pooled, left=False)
        assert right == pytest.approx(0.25, abs=0.01)

    def test_identical_groups(self):
        g = two_groups([0.2, 0.8], [0.2, 0.8])
        assert invariant_bias(g, g.pooled()) == 0.0

    def test_paths_agree_on_random_atomic_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            # coarse grid values force ties and shared atoms across groups
            s0 = rng.integers(0, 6, rng.integers(2, 10)) / 5.0
            s1 = rng.integers(0, 6, rng.integers(2, 10)) / 5.0
            g = two_groups(s0, s1)
            invariant_bias(g, g.pooled())  # raises if the two paths disagree

    def test_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(29)
        g = random_groups(rng, lo=-1.0, hi=1.0)
        pooled = g.pooled()
        base = invariant_bias(g, pooled)
        for f in (lambda t: t**3, sigmoid):
            tg = two_groups(f(g.scores_by_group[0]), f(g.scores_by_group[1]))
            tp = EmpiricalDistribution.from_samples(f(pooled.values), pooled.weights)
            assert invariant_bias(tg, tp) == pytest.approx(base, abs=1e-12)


    def test_snapping_moves_no_score_without_crowding(self):
        rng = np.random.default_rng(31)
        g = random_groups(rng, n_atoms=200)
        snapped = snap_to_pooled(g, g.pooled())
        for before, after in zip(g.scores_by_group, snapped.scores_by_group):
            assert np.array_equal(before, after)
        assert np.array_equal(snapped.group_probs, g.group_probs)

    def test_snapping_reads_crowded_scores_as_the_pooled_atom(self):
        # 0.5 + 4e-13 merges into the pooled atom 0.5, but group 1 alone
        # keeps it as its own smallest member
        g = two_groups([0.5, 0.7], [0.5 + 4e-13, 0.7])
        snapped = snap_to_pooled(g, g.pooled())
        assert np.array_equal(snapped.scores_by_group[1], [0.5, 0.7])
        assert np.array_equal(snapped.scores_by_group[0], [0.5, 0.7])


class TestMultiAttribute:
    def test_two_groups_reduces_to_pairwise(self):
        g = two_groups([0.1, 0.3], [0.6, 0.9])
        w1 = wasserstein1(g.distribution(0), g.distribution(1))
        assert multi_attribute_bias(g, [1.0]) == pytest.approx(w1)

    def test_identical_groups(self):
        s = np.array([0.2, 0.5])
        g = GroupedScores((s, s, s), [1 / 3, 1 / 3, 1 / 3])
        assert multi_attribute_bias(g, [0.7, 0.3]) == 0.0

    def test_three_point_masses(self):
        g = GroupedScores((np.array([0.0]), np.array([1.0]), np.array([2.0])), [1 / 3, 1 / 3, 1 / 3])
        assert multi_attribute_bias(g, [0.5, 0.5]) == pytest.approx(1.5)

    def test_weight_length_checked(self):
        g = two_groups([0.1], [0.2])
        with pytest.raises(ValueError):
            multi_attribute_bias(g, [0.5, 0.5])

    def test_cost_pairwise_variant(self):
        rng = np.random.default_rng(33)
        s0, s1, s2 = (rng.uniform(0, 1, 6) for _ in range(3))
        g = GroupedScores((s0, s1, s2), [0.5, 0.25, 0.25])
        total = multi_attribute_bias(g, [0.4, 0.6], pairwise="cost", cost=SQUARE, mu=UNIFORM)
        by_hand = 0.4 * cost_bias(two_groups(s0, s1, p0=2 / 3), SQUARE, UNIFORM)
        by_hand += 0.6 * cost_bias(two_groups(s0, s2, p0=2 / 3), SQUARE, UNIFORM)
        assert total == pytest.approx(by_hand, abs=1e-14)
