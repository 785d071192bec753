import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fairfront import estimators
from fairfront.bias_metrics import GroupedScores, ThresholdMeasure, cost_bias
from fairfront.distributions import ABS, SQUARE, EmpiricalDistribution
from fairfront.estimators import BiasEstimatorSpec, EstimatorBatch, bias_value_and_grad
from fairfront.linear_family import LinearFamily
from fairfront.relaxation import RelaxationFamily
from oracles import (
    discrete_grid_value,
    estimator_rate_probe,
    exact_relaxed_bias_uniform,
    fit_loglog_slope,
    grid_bias_ladder,
    r_and_prime,
    relaxed_gap_curve,
    sample,
)

UNIFORM = ThresholdMeasure.uniform01()


def identity_family(scores, n_extra=0, rng=None):
    """Family whose base scores are the given values, identity link."""
    scores = np.asarray(scores, dtype=float)
    cols = [np.ones_like(scores)]
    if n_extra:
        cols.extend(rng.normal(size=scores.size) for _ in range(n_extra))
    return LinearFamily(scores, np.column_stack(cols), link="identity")


def batch_of(n0, n1, pool=None):
    return EstimatorBatch(np.arange(n0), np.arange(n0, n0 + n1), pool)


DRAWS = st.sampled_from(["distinct", "repeats", "one-row", "shared"])


def drawn_batch(rng, m0, m1, pool, draws):
    """``m0`` and ``m1`` group draws on rows ``[0, m0)`` and ``[m0, m0 +
    m1)`` and the ``pool`` rows: each row once ("distinct"); every part drawn
    with replacement from its rows ("repeats"); group 0's first row drawn
    for the whole group ("one-row"); or half of group 1 drawn from group
    0's rows, so equal scores fall in both groups ("shared")."""
    g0, g1 = np.arange(m0), np.arange(m0, m0 + m1)
    if draws == "repeats":
        g0, g1, pool = rng.choice(g0, m0), rng.choice(g1, m1), rng.choice(pool, pool.size)
    elif draws == "one-row":
        g0 = np.zeros(m0, np.intp)
    elif draws == "shared":
        g1 = np.r_[g1[: m1 // 2], rng.choice(g0, m1 - m1 // 2)]
    return EstimatorBatch(g0, g1, pool)


def jacobian(family, theta, rows=None):
    """The (k, d) Jacobian d u_i / d theta_j of the link-space scores on
    ``rows``: ``-W`` scaled by the link slope u (1 - u).  The oracle of the
    family's pullback and the Jacobian-form estimators below."""
    W = family.encoder_matrix if rows is None else family.encoder_matrix[rows]
    if family.link == "identity":
        return -W
    u = family.scores(theta, rows)
    return -W * (u * (1.0 - u))[:, None]


def logistic_family(rng, n, n_extra=3):
    return LinearFamily(
        rng.normal(0.0, 1.0, n), np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(n_extra)])
    )


class TestScoreSpacePullback:
    @pytest.mark.parametrize("link", ["logistic", "identity"])
    @pytest.mark.parametrize("rows", [None, [4, 0, 4, 7, 4, 1]], ids=["all-rows", "repeated-rows"])
    def test_pullback_is_the_jacobian_product(self, link, rows):
        rng = np.random.default_rng(71)
        n = 12
        fam = LinearFamily(rng.normal(size=n), np.column_stack([np.ones(n), rng.normal(size=(n, 3))]), link=link)
        theta = rng.normal(0.0, 0.5, 4)
        u, pullback = fam.scores_and_grad(theta, rows)
        assert np.array_equal(u, fam.scores(theta, rows))
        for _ in range(3):
            g = rng.normal(size=u.size)
            oracle = g @ jacobian(fam, theta, rows)
            assert np.allclose(pullback(g), oracle, rtol=1e-14, atol=1e-15)

    def test_raw_pullback_skips_the_link(self):
        rng = np.random.default_rng(73)
        fam = logistic_family(rng, 10)
        theta = rng.normal(size=4)
        raw, pullback = fam.raw_scores_and_pullback(theta, [2, 5])
        assert np.array_equal(raw, fam.base_scores[[2, 5]] - fam.encoder_matrix[[2, 5]] @ theta)
        assert np.array_equal(pullback(np.array([1.0, -2.0])), -(fam.encoder_matrix[2] - 2.0 * fam.encoder_matrix[5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite base score"):
            LinearFamily([bad, 1.0, 0.0], np.ones((3, 1)))


class TestSpecValidation:
    def test_variant_checked(self):
        with pytest.raises(ValueError):
            BiasEstimatorSpec(variant="exact")

    def test_energy_needs_square(self):
        with pytest.raises(ValueError):
            BiasEstimatorSpec(variant="energy", cost=ABS)

    def test_threshold_scheme(self):
        assert BiasEstimatorSpec(thresholds=129).grid_shape() == (129, pytest.approx(1 / 129))
        assert BiasEstimatorSpec(thresholds=1 / 64).grid_shape() == (64, pytest.approx(1 / 64))
        # a step is 1/n up to float rounding
        for n in (33, 129, 4096):
            assert BiasEstimatorSpec(thresholds=1 / n).grid_shape() == (n, 1 / n)
        with pytest.raises(ValueError):
            BiasEstimatorSpec(thresholds=1)

    @pytest.mark.parametrize(
        "thresholds, message",
        [
            (0.0, "grid step must lie in (0, 1), got 0.0"),
            (1e-400, "grid step must lie in (0, 1), got 0.0"),
            (np.nan, "grid step must lie in (0, 1), got nan"),
            (np.inf, "grid step must lie in (0, 1), got inf"),
            (-0.1, "grid step must lie in (0, 1), got -0.1"),
            (0, "need at least two thresholds"),
            (0.03, "grid step 0.03 does not divide [0, 1] into whole steps; use 1/33 or 1/34"),
            (0.6, "grid step 0.6 does not divide [0, 1] into whole steps; use 1/2"),
        ],
        ids=["zero", "underflow", "nan", "inf", "negative", "count-0", "step-0.03", "step-0.6"],
    )
    def test_bad_scheme_rejected_before_division(self, thresholds, message):
        with pytest.raises(ValueError) as info:
            BiasEstimatorSpec(thresholds=thresholds)
        assert str(info.value) == message

    def test_degenerate_relaxation_rejected(self):
        with pytest.raises(ValueError):
            BiasEstimatorSpec(relaxation=RelaxationFamily("logistic", -2.0))


def _all_variant_specs(seed=0):
    rel = RelaxationFamily("logistic", 6.0)
    return [
        BiasEstimatorSpec("threshold-mc", rel, SQUARE, 64, rng_seed=seed, unbiased=False),
        BiasEstimatorSpec("threshold-discrete", rel, SQUARE, 64, unbiased=False),
        BiasEstimatorSpec("threshold-discrete-trapezoid", rel, SQUARE, 64, unbiased=False),
        BiasEstimatorSpec("energy", rel, SQUARE, 64),
        BiasEstimatorSpec("invariant-mc", rel, SQUARE, 64, unbiased=False),
        BiasEstimatorSpec("invariant-kde-discrete", rel, SQUARE, 64, kde_bandwidth=0.15),
        BiasEstimatorSpec("invariant-energy-relaxed", rel, SQUARE, 64),
    ]


class TestEstimatorValues:
    def test_identical_groups_are_zero(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.2, 0.8, 12)
        fam = identity_family(np.concatenate([scores, scores, scores[:6]]))
        batch = EstimatorBatch(np.arange(12), np.arange(12, 24), np.arange(24, 30))
        theta = np.array([0.05])
        for spec in _all_variant_specs():
            value, grad = bias_value_and_grad(spec, fam, theta, batch)
            if spec.variant == "threshold-mc":
                assert value == 0.0
            else:
                assert abs(value) <= 1e-12
            assert np.all(np.abs(grad) <= 1e-12)

    def test_energy_point_masses(self):
        fam = identity_family([0.0, 1.0])
        spec = BiasEstimatorSpec("energy", RelaxationFamily("logistic", 5.0), SQUARE, 16)
        value, _ = bias_value_and_grad(spec, fam, [0.0], batch_of(1, 1))
        assert value == pytest.approx(2.0)

    def test_energy_nonnegative(self):
        rng = np.random.default_rng(11)
        fam = identity_family(rng.uniform(0, 1, 40))
        spec = BiasEstimatorSpec("energy", RelaxationFamily("logistic", 5.0), SQUARE, 16)
        for _ in range(10):
            value, _ = bias_value_and_grad(spec, fam, [rng.normal() * 0.1], batch_of(20, 20))
            assert value >= 0.0

    def test_energy_identity_with_exact_integral(self):
        # V-statistic equals twice the exact integral of (F0 - F1)^2
        rng = np.random.default_rng(19)
        for _ in range(10):
            s0 = rng.uniform(0, 1, rng.integers(3, 9))
            s1 = rng.uniform(0, 1, rng.integers(3, 9))
            fam = identity_family(np.concatenate([s0, s1]))
            spec = BiasEstimatorSpec("energy", RelaxationFamily("logistic", 5.0), SQUARE, 16)
            value, _ = bias_value_and_grad(spec, fam, [0.0], batch_of(s0.size, s1.size))
            oracle = 2.0 * cost_bias(GroupedScores((s0, s1), [0.5, 0.5]), SQUARE, UNIFORM)
            assert value == pytest.approx(oracle, abs=1e-10)

    def test_discrete_matches_exact_oracle(self):
        rng = np.random.default_rng(23)
        spec = BiasEstimatorSpec(
            "threshold-discrete", RelaxationFamily("ramp", 200.0), SQUARE, 1 / 1024, unbiased=False
        )
        for _ in range(10):
            s0 = rng.uniform(0, 1, 8)
            s1 = rng.uniform(0, 1, 8)
            fam = identity_family(np.concatenate([s0, s1]))
            value, _ = bias_value_and_grad(spec, fam, [0.0], batch_of(8, 8))
            oracle = cost_bias(GroupedScores((s0, s1), [0.5, 0.5]), SQUARE, UNIFORM)
            assert value == pytest.approx(oracle, abs=1e-2)

    def test_relaxed_bias_limit_error_halves(self):
        # (s, step) = (10^k, 10^-(k+1)) drives the grid value to the exact
        # metric, error at least halving per rung
        rng = np.random.default_rng(29)
        s0 = rng.uniform(0, 1, 8)
        s1 = rng.uniform(0, 1, 8)
        fam = identity_family(np.concatenate([s0, s1]))
        oracle = cost_bias(GroupedScores((s0, s1), [0.5, 0.5]), ABS, UNIFORM)
        errs = []
        for k in (1, 2, 3):
            spec = BiasEstimatorSpec("threshold-discrete", RelaxationFamily("ramp", 10.0**k), ABS, 10.0 ** -(k + 1))
            value, _ = bias_value_and_grad(spec, fam, [0.0], batch_of(8, 8))
            errs.append(abs(value - oracle))
        # halving per rung, down to the floating-point noise floor
        assert errs[1] <= max(errs[0] / 2, 1e-12)
        assert errs[2] <= max(errs[1] / 2, 1e-12)

    def test_mc_is_seed_reproducible(self):
        rng = np.random.default_rng(31)
        fam = identity_family(rng.uniform(0, 1, 20))
        spec = BiasEstimatorSpec(
            "threshold-mc", RelaxationFamily("logistic", 6.0), SQUARE, 64, rng_seed=7, unbiased=False
        )
        v1, g1 = bias_value_and_grad(spec, fam, [0.1], batch_of(10, 10))
        v2, g2 = bias_value_and_grad(spec, fam, [0.1], batch_of(10, 10))
        assert v1 == v2 and np.array_equal(g1, g2)

    def test_value_only_path_matches_full_path(self):
        rng = np.random.default_rng(37)
        n = 120
        fam = LinearFamily(
            rng.normal(size=n),
            np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(3)]),
        )
        rows = rng.permutation(n)
        batch = EstimatorBatch(rows[:40], rows[40:80], rows[80:])
        theta = rng.normal(0, 0.3, 4)
        for spec in _all_variant_specs(seed=1) + [
            BiasEstimatorSpec("threshold-discrete", RelaxationFamily("logistic", 6.0), SQUARE, 64, unbiased=True)
        ]:
            full_value, grad = bias_value_and_grad(spec, fam, theta, batch)
            lean_value, no_grad = bias_value_and_grad(spec, fam, theta, batch, need_grad=False)
            assert no_grad is None
            assert lean_value == full_value
            assert grad is not None

    def test_pool_required_for_invariant_variants(self):
        fam = identity_family([0.2, 0.8])
        spec = BiasEstimatorSpec("invariant-mc", RelaxationFamily("logistic", 6.0), SQUARE, 16, unbiased=False)
        with pytest.raises(ValueError):
            bias_value_and_grad(spec, fam, [0.0], batch_of(1, 1))

    def test_unbiased_correction_shrinks_toward_population_value(self):
        # population: two fixed atomic laws; small samples overshoot h(B)
        # by the sampling variance, the corrected estimator does not
        rng = np.random.default_rng(41)
        pop0 = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 6))
        pop1 = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 6))
        truth = exact_relaxed_bias_uniform(pop0, pop1, 50.0, SQUARE)
        spec_raw = BiasEstimatorSpec("threshold-discrete", RelaxationFamily("ramp", 50.0), SQUARE, 128, unbiased=False)
        spec_unb = BiasEstimatorSpec("threshold-discrete", RelaxationFamily("ramp", 50.0), SQUARE, 128, unbiased=True)
        m = 24
        raw_err = unb_err = 0.0
        for _ in range(400):
            z0 = sample(pop0, rng, m)
            z1 = sample(pop1, rng, m)
            fam = identity_family(np.concatenate([z0, z1]))
            raw_err += bias_value_and_grad(spec_raw, fam, [0.0], batch_of(m, m))[0] - truth
            unb_err += bias_value_and_grad(spec_unb, fam, [0.0], batch_of(m, m))[0] - truth
        assert abs(unb_err / 400) < abs(raw_err / 400)


def pairwise_cotangents(S0, S1):
    """The energy statistic's cotangents from the full pairwise sign
    matrices: each score's sign sums against the other group and its own,
    scaled by the pair counts."""
    m0, m1 = S0.size, S1.size
    sgn01 = np.sign(S0[:, None] - S1[None, :])
    c0 = (2.0 / (m0 * m1)) * sgn01.sum(axis=1) - (2.0 / (m0 * m0)) * np.sign(S0[:, None] - S0[None, :]).sum(axis=1)
    c1 = (2.0 / (m0 * m1)) * -sgn01.sum(axis=0) - (2.0 / (m1 * m1)) * np.sign(S1[:, None] - S1[None, :]).sum(axis=1)
    return c0, c1


def counted_cotangents(S0, S1, k0, k1):
    """``pairwise_cotangents`` of the draws, the values ``S0`` and ``S1``
    repeated ``k0`` and ``k1`` times, summed onto each value: a draw's
    cotangent times its count."""
    c0, c1 = pairwise_cotangents(np.repeat(S0, k0), np.repeat(S1, k1))
    return k0 * c0[np.cumsum(k0) - k0], k1 * c1[np.cumsum(k1) - k1]


def pairwise_energy(S0, dS0, S1, dS1):
    """The energy V-statistic and its gradient from the full pairwise gap
    and sign matrices and the (m, d) Jacobians of the samples: the quadratic
    oracle for the sorted computation."""
    m0, m1 = S0.size, S1.size
    diff01 = S0[:, None] - S1[None, :]
    value = 2.0 * np.abs(diff01).mean()
    sgn01 = np.sign(diff01)
    grad = (2.0 / (m0 * m1)) * (sgn01.sum(axis=1) @ dS0 - sgn01.sum(axis=0) @ dS1)
    for S, dS in ((S0, dS0), (S1, dS1)):
        d = S[:, None] - S[None, :]
        value -= np.abs(d).mean()
        grad -= (2.0 / (S.size * S.size)) * (np.sign(d).sum(axis=1) @ dS)
    return float(value), grad


def tied_scores(rng, m, ties):
    """``m`` scores on [-0.5, 1.5]; with ``ties`` drawn from five levels, two
    of which clip to 0 and 1 under the uniform CDF transform."""
    if ties:
        return rng.choice([-0.5, 0.0, 0.25, 0.7, 1.5], size=m)
    return rng.uniform(-0.5, 1.5, m)


SIZES = st.sampled_from([1, 2, 3, 7, 40, 129])


def value_counts(rng, m, draws):
    """Counts of ``m`` values: each drawn once ("distinct"), 1 to 4 times
    ("repeats"), or only the first, drawn m times ("one-row")."""
    if draws == "repeats":
        return rng.integers(1, 5, m)
    if draws == "one-row":
        return np.r_[m, np.zeros(m - 1, int)]
    return np.ones(m, int)


class TestSortedEnergyOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m0=SIZES,
        m1=SIZES,
        ties=st.booleans(),
        signed_zero=st.booleans(),
        draws=st.sampled_from(["distinct", "repeats", "one-row"]),
    )
    @example(seed=0, m0=1, m1=1, ties=True, signed_zero=False, draws="distinct")
    @example(seed=1, m0=1, m1=40, ties=True, signed_zero=False, draws="distinct")
    @example(seed=2, m0=129, m1=7, ties=True, signed_zero=False, draws="distinct")
    # one run of ties at zero, -0.0 in group 0 and 0.0 in group 1
    @example(seed=5, m0=40, m1=40, ties=True, signed_zero=True, draws="distinct")
    # one value drawn for the whole of group 0; equal values in both groups
    @example(seed=6, m0=40, m1=7, ties=False, signed_zero=False, draws="one-row")
    @example(seed=7, m0=7, m1=40, ties=True, signed_zero=False, draws="repeats")
    def test_matches_the_pairwise_statistic(self, seed, m0, m1, ties, signed_zero, draws):
        # distinct values with counts against the pairwise oracle on the draws
        rng = np.random.default_rng(seed)
        S0 = np.clip(tied_scores(rng, m0, ties), 0.0, 1.0)
        S1 = np.clip(tied_scores(rng, m1, ties), 0.0, 1.0)
        if signed_zero:
            S0[S0 == 0.0] = -0.0
        k0, k1 = value_counts(rng, m0, draws), value_counts(rng, m1, draws)
        S0, k0 = S0[k0 > 0], k0[k0 > 0]
        S1, k1 = S1[k1 > 0], k1[k1 > 0]
        dS0, dS1 = rng.normal(size=(S0.size, 4)), rng.normal(size=(S1.size, 4))
        value, (c0, c1) = estimators._energy_vstat(S0, S1, k0, k1)
        oracle_c0, oracle_c1 = counted_cotangents(S0, S1, k0, k1)
        assert np.array_equal(c0, oracle_c0) and np.array_equal(c1, oracle_c1)
        oracle_value, oracle_grad = pairwise_energy(
            np.repeat(S0, k0), np.repeat(dS0, k0, axis=0), np.repeat(S1, k1), np.repeat(dS1, k1, axis=0)
        )
        assert np.allclose(c0 @ dS0 + c1 @ dS1, oracle_grad, rtol=1e-12, atol=1e-12)
        assert value >= 0.0
        assert abs(value - oracle_value) <= 1e-12
        assert estimators._energy_vstat(S0, S1, k0, k1, need_grad=False) == (value, None)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m0=SIZES,
        m1=SIZES,
        ties=st.booleans(),
        variant=st.sampled_from(["energy", "invariant-energy-relaxed"]),
        draws=DRAWS,
    )
    @example(seed=3, m0=1, m1=7, ties=True, variant="energy", draws="distinct")
    @example(seed=4, m0=40, m1=3, ties=True, variant="invariant-energy-relaxed", draws="distinct")
    @example(seed=5, m0=40, m1=3, ties=False, variant="invariant-energy-relaxed", draws="one-row")
    @example(seed=6, m0=7, m1=40, ties=False, variant="energy", draws="shared")
    def test_variants_feed_the_statistic(self, seed, m0, m1, ties, variant, draws):
        # both energy variants return the statistic of the samples they
        # transform, with the sign-sum cotangents bitwise, and a gradient equal
        # to the Jacobian form: the transformed samples' (m, d) Jacobians
        # through the pairwise oracle on the draws
        rng = np.random.default_rng(seed)
        scores = np.concatenate([tied_scores(rng, m0, ties), tied_scores(rng, m1, ties), rng.uniform(0, 1, 9)])
        fam = identity_family(scores, n_extra=2, rng=rng)
        theta = np.zeros(3) if ties else rng.normal(0.0, 0.1, 3)  # theta = 0 keeps the ties
        spec = BiasEstimatorSpec(variant, RelaxationFamily("logistic", 8.0), SQUARE, 16)
        batch = drawn_batch(rng, m0, m1, np.arange(m0 + m1, scores.size), draws)
        sorted_vstat = estimators._energy_vstat
        seen = []

        def spy(*args, **kwargs):
            out = sorted_vstat(*args, **kwargs)
            seen.append((args, out))
            return out

        with mock.patch.object(estimators, "_energy_vstat", spy):
            value, grad = bias_value_and_grad(spec, fam, theta, batch)
        ((args, (_, (c0, c1))),) = seen
        S0, S1, k0, k1 = args[:4]
        oracle_c0, oracle_c1 = counted_cotangents(S0, S1, k0, k1)
        assert np.array_equal(c0, oracle_c0) and np.array_equal(c1, oracle_c1)
        dS = []
        for rows in (batch.group0, batch.group1):
            u, du = fam.scores(theta, rows), jacobian(fam, theta, rows)
            if variant == "energy":
                dS.append(du * ((u > 0.0) & (u < 1.0))[:, None])
            else:
                # S_i = 1 - mean_l r_s(up_l - u_i), with the pooled scores' Jacobian
                up, dup = fam.scores(theta, batch.pool), jacobian(fam, theta, batch.pool)
                _, P = r_and_prime(spec.relaxation, up[None, :] - u[:, None])
                dS.append(-(P @ dup) / up.size + P.mean(axis=1)[:, None] * du)
        # the draws' Jacobians in the order of the distinct rows
        oracle_value, oracle_grad = pairwise_energy(
            np.repeat(S0, k0), dS[0][np.argsort(batch.group0, kind="stable")],
            np.repeat(S1, k1), dS[1][np.argsort(batch.group1, kind="stable")],
        )
        assert np.allclose(grad, oracle_grad, rtol=1e-12, atol=1e-12)
        assert value >= 0.0
        assert abs(value - oracle_value) <= 1e-12


class TestExactRelaxedOracle:
    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(43)
        for cost in (ABS, SQUARE):
            for _ in range(5):
                pop0 = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 5))
                pop1 = EmpiricalDistribution.from_samples(rng.uniform(0, 1, 5))
                s = 30.0
                gap = relaxed_gap_curve(pop0, pop1, s)
                kinks = np.concatenate(
                    [pop0.values, pop1.values, pop0.values - 1 / s, pop1.values - 1 / s]
                )
                kinks = np.unique(np.clip(kinks, 0.0, 1.0))
                ref, _ = quad(
                    lambda t: cost.h(gap(np.array([t])))[0], 0, 1, points=list(kinks), limit=500
                )
                mine = exact_relaxed_bias_uniform(pop0, pop1, s, cost)
                assert mine == pytest.approx(ref, abs=1e-9)

    def test_grid_value_consistent_with_generic_estimator(self):
        rng = np.random.default_rng(47)
        z0 = rng.uniform(0, 1, 7)
        z1 = rng.uniform(0, 1, 7)
        pop0 = EmpiricalDistribution.from_samples(z0)
        pop1 = EmpiricalDistribution.from_samples(z1)
        fam = identity_family(np.concatenate([z0, z1]))
        spec = BiasEstimatorSpec("threshold-discrete", RelaxationFamily("ramp", 25.0), SQUARE, 64, unbiased=False)
        generic, _ = bias_value_and_grad(spec, fam, [0.0], batch_of(7, 7))
        fast = discrete_grid_value(pop0, pop1, 25.0, SQUARE, 64)
        assert generic == pytest.approx(fast, abs=1e-12)


class TestRateProbe:
    def test_mc_slope_near_minus_one(self):
        rng = np.random.default_rng(53)
        pop0 = EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, 6))
        pop1 = EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, 6))
        spec = BiasEstimatorSpec("threshold-mc", RelaxationFamily("ramp", 40.0), SQUARE, 64)
        rows = estimator_rate_probe(spec, pop0, pop1, [2**k for k in range(6, 11)], n_reps=100, seed=1)
        slope = fit_loglog_slope(rows)
        assert -1.3 <= slope <= -0.7

    def test_discrete_slope_near_minus_two(self):
        rng = np.random.default_rng(59)
        pop0 = EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, 6))
        pop1 = EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, 6))
        spec = BiasEstimatorSpec("threshold-discrete", RelaxationFamily("ramp", 10.0), SQUARE, 64)
        rows = estimator_rate_probe(
            spec, pop0, pop1, [2**k for k in range(6, 11)], n_reps=100, seed=2, coupling=0.4
        )
        slope = fit_loglog_slope(rows)
        assert -2.4 <= slope <= -1.6

    def test_grid_bias_grows_with_scale(self):
        # the discretization bias term, averaged over random populations to
        # remove atom/grid aliasing, grows monotonically as s doubles
        T = 64
        rows = grid_bias_ladder([T / 4, T / 2, T], T, SQUARE, n_dists=40, seed=0)
        biases = [row["mean_abs_bias"] for row in rows]
        assert biases[0] < biases[1] < biases[2]


def per_threshold_grid(spec, family, theta, batch):
    """The grid variants in their per-threshold form: (T, m) matrices of r_s
    and r_s' on ``u - t`` per group, (T, m) @ (m, d) products into a (T, d)
    gradient of B and of the variance terms, then the weighted sum.  The
    reference for the contracted, blocked kernel.  Thresholds that are
    scores (invariant-mc) carry -dt_j through r_s' in B and in the variance."""
    theta = np.asarray(theta, dtype=float)
    T, dt = spec.grid_shape()
    rel, cost = spec.relaxation, spec.cost
    unbiased = spec.unbiased and cost.kind == "square"
    dthresholds = drho = None
    if spec.variant == "threshold-mc":
        thresholds = np.random.default_rng(spec.rng_seed).random(T)
        weights = np.full(T, 1.0 / T)
    elif spec.variant == "threshold-discrete":
        thresholds = dt * np.arange(1, T + 1)
        weights = np.full(T, dt)
    elif spec.variant == "threshold-discrete-trapezoid":
        thresholds = dt * np.arange(0, T + 1)
        weights = np.full(T + 1, dt)
        weights[0] = weights[-1] = dt / 2.0
    else:
        up, dup = family.scores(theta, batch.pool), jacobian(family, theta, batch.pool)
        if spec.variant == "invariant-mc":
            thresholds, dthresholds = up, dup
            weights = np.full(up.size, 1.0 / up.size)
        else:  # invariant-kde-discrete, which takes no variance correction
            thresholds = dt * np.arange(1, T + 1)
            bw = spec.kde_bandwidth
            if bw is None:  # Silverman's rule on the pool's draws
                bw = max(1.06 * np.std(up, ddof=1) * up.size ** (-0.2), estimators._MIN_BANDWIDTH)
            z = (thresholds[:, None] - up[None, :]) / bw
            kern = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
            rho = kern.mean(axis=1) / bw
            drho = ((kern * z) @ dup) / (up.size * bw * bw)
            unbiased = False
    curves = []
    for rows in (batch.group0, batch.group1):
        u, du = family.scores(theta, rows), jacobian(family, theta, rows)
        m = u.size
        R, P = r_and_prime(rel, u[None, :] - thresholds[:, None])
        mean, dmean = R.mean(axis=1), (P @ du) / m
        centered = R - R.mean(axis=1, keepdims=True)
        v = (centered * centered).sum(axis=1) / (m - 1) / m
        dv = (2.0 / (m * (m - 1))) * ((centered * P) @ du)
        if dthresholds is not None:
            dmean = dmean - P.mean(axis=1)[:, None] * dthresholds
            dv = dv - (2.0 / (m * (m - 1))) * (centered * P).sum(axis=1)[:, None] * dthresholds
        curves.append((mean, dmean, v, dv))
    (m0, g0, v0, dv0), (m1, g1, v1, dv1) = curves
    B, dB = m1 - m0, g1 - g0
    hvals, dh = cost.h(B), cost.h_prime(B)
    if drho is not None:
        return float(dt * (hvals @ rho)), dt * ((rho * dh) @ dB + hvals @ drho)
    value = float(weights @ hvals)
    grad = (weights * dh) @ dB
    if unbiased:
        value -= float(weights @ (v0 + v1))
        grad = grad - weights @ (dv0 + dv1)
    return value, grad


GRID_VARIANTS = [
    "threshold-mc",
    "threshold-discrete",
    "threshold-discrete-trapezoid",
    "invariant-mc",
    "invariant-kde-discrete",
]
GROUP_SIZES = st.sampled_from([2, 3, 7, 40, 129])


class TestContractedGridOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(GRID_VARIANTS),
        unbiased=st.booleans(),
        m0=GROUP_SIZES,
        m1=GROUP_SIZES,
        kind=st.sampled_from(["logistic", "shifted-logistic", "ramp"]),
        scale=st.sampled_from([6.0, 20.0, 200.0]),
        cost=st.sampled_from([SQUARE, ABS]),
        thresholds=st.sampled_from([16, 1 / 33, 1 / 129]),
        link=st.sampled_from(["logistic", "identity"]),
        cells=st.sampled_from([1 << 16, 64, 1]),
        draws=DRAWS,
    )
    @example(seed=0, variant="invariant-mc", unbiased=True, m0=2, m1=40, kind="logistic", scale=20.0,
             cost=SQUARE, thresholds=1 / 129, link="logistic", cells=1 << 16, draws="distinct")
    @example(seed=1, variant="threshold-discrete-trapezoid", unbiased=True, m0=129, m1=2, kind="logistic",
             scale=200.0, cost=SQUARE, thresholds=1 / 129, link="identity", cells=64, draws="distinct")
    @example(seed=2, variant="invariant-kde-discrete", unbiased=True, m0=7, m1=40, kind="shifted-logistic",
             scale=6.0, cost=ABS, thresholds=16, link="logistic", cells=1, draws="distinct")
    # the joint (u0 | u1) grid: unequal groups, the smallest unbiased group
    # (m = 2) on either side, the ramp's difference grid and the logistic
    # fallback past _EXP_BOUND (identity scores at s = 200), scored
    # thresholds and the KDE weights' cotangents
    @example(seed=3, variant="threshold-discrete-trapezoid", unbiased=True, m0=2, m1=129, kind="ramp",
             scale=20.0, cost=SQUARE, thresholds=1 / 129, link="logistic", cells=1 << 16, draws="distinct")
    @example(seed=4, variant="threshold-discrete", unbiased=True, m0=40, m1=2, kind="ramp",
             scale=6.0, cost=SQUARE, thresholds=1 / 33, link="identity", cells=64, draws="distinct")
    @example(seed=5, variant="threshold-mc", unbiased=True, m0=3, m1=2, kind="logistic",
             scale=200.0, cost=SQUARE, thresholds=16, link="identity", cells=1 << 16, draws="distinct")
    @example(seed=6, variant="invariant-mc", unbiased=True, m0=2, m1=7, kind="shifted-logistic",
             scale=200.0, cost=SQUARE, thresholds=16, link="identity", cells=64, draws="distinct")
    @example(seed=7, variant="invariant-mc", unbiased=True, m0=129, m1=3, kind="ramp",
             scale=20.0, cost=SQUARE, thresholds=16, link="logistic", cells=1, draws="distinct")
    @example(seed=8, variant="invariant-kde-discrete", unbiased=False, m0=2, m1=129, kind="logistic",
             scale=200.0, cost=SQUARE, thresholds=1 / 33, link="identity", cells=64, draws="distinct")
    # one row drawn for the whole of group 0; equal scores in both groups
    @example(seed=9, variant="threshold-discrete-trapezoid", unbiased=True, m0=40, m1=7, kind="logistic",
             scale=20.0, cost=SQUARE, thresholds=1 / 129, link="logistic", cells=64, draws="one-row")
    @example(seed=10, variant="invariant-mc", unbiased=True, m0=7, m1=40, kind="logistic",
             scale=20.0, cost=SQUARE, thresholds=16, link="logistic", cells=64, draws="shared")
    @example(seed=11, variant="invariant-kde-discrete", unbiased=False, m0=40, m1=40, kind="ramp",
             scale=20.0, cost=ABS, thresholds=1 / 33, link="identity", cells=1, draws="repeats")
    def test_matches_the_per_threshold_form(
        self, seed, variant, unbiased, m0, m1, kind, scale, cost, thresholds, link, cells, draws
    ):
        # identity-link scores spread over [-2, 2] so that s = 200 takes the
        # overflow fallback of the separable grid; small cell budgets split
        # the thresholds over many blocks; the oracle reads every draw
        rng = np.random.default_rng(seed)
        n_pool = int(rng.integers(1, 30))
        n = m0 + m1 + n_pool
        base = rng.normal(0.0, 1.0, n) if link == "logistic" else rng.uniform(-2.0, 2.0, n)
        fam = LinearFamily(base, np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(3)]), link=link)
        theta = rng.normal(0.0, 0.3, 4)
        spec = BiasEstimatorSpec(variant, RelaxationFamily(kind, scale), cost, thresholds, rng_seed=seed % 97,
                                 unbiased=unbiased, kde_bandwidth=0.2)
        batch = drawn_batch(rng, m0, m1, np.arange(m0 + m1, n), draws)
        with mock.patch.object(estimators, "_GRID_CELLS", cells):
            value, grad = bias_value_and_grad(spec, fam, theta, batch)
            lean, _ = bias_value_and_grad(spec, fam, theta, batch, need_grad=False)
        oracle_value, oracle_grad = per_threshold_grid(spec, fam, theta, batch)
        # relative to the oracle, or absolute below 1 where a sum of larger
        # terms cancels to a tiny result
        assert lean == value
        assert abs(value - oracle_value) <= 1e-12 * max(abs(oracle_value), 1.0)
        assert np.linalg.norm(grad - oracle_grad) <= 1e-12 * max(np.linalg.norm(oracle_grad), 1.0)


class TestMultisetBatches:
    """Every part of a batch is a multiset of rows: the estimator scores each
    distinct row once and weighs it by its count, and equals the estimator
    on an expanded family in which every draw is a row of its own."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(estimators._VARIANTS),
        unbiased=st.booleans(),
        m0=GROUP_SIZES,
        m1=GROUP_SIZES,
        n_pool=st.sampled_from([1, 2, 9, 40]),
        n_rows=st.sampled_from([1, 3, 12, 200]),
        kind=st.sampled_from(["logistic", "ramp"]),
        link=st.sampled_from(["logistic", "identity"]),
        bandwidth=st.sampled_from([None, 0.2]),
    )
    # one row for everything, a pool of one draw, Silverman's rule on one row
    @example(seed=0, variant="invariant-kde-discrete", unbiased=False, m0=2, m1=3, n_pool=9, n_rows=1,
             kind="logistic", link="logistic", bandwidth=None)
    @example(seed=1, variant="invariant-energy-relaxed", unbiased=False, m0=129, m1=2, n_pool=1, n_rows=3,
             kind="logistic", link="identity", bandwidth=None)
    @example(seed=2, variant="threshold-discrete-trapezoid", unbiased=True, m0=2, m1=129, n_pool=2, n_rows=3,
             kind="ramp", link="logistic", bandwidth=None)
    @example(seed=3, variant="invariant-mc", unbiased=True, m0=40, m1=7, n_pool=40, n_rows=12,
             kind="logistic", link="logistic", bandwidth=None)
    @example(seed=4, variant="energy", unbiased=False, m0=129, m1=129, n_pool=2, n_rows=12,
             kind="logistic", link="identity", bandwidth=None)
    def test_matches_the_expanded_family(
        self, seed, variant, unbiased, m0, m1, n_pool, n_rows, kind, link, bandwidth
    ):
        rng = np.random.default_rng(seed)
        base = rng.normal(0.0, 1.0, n_rows) if link == "logistic" else rng.uniform(-0.5, 1.5, n_rows)
        fam = LinearFamily(base, np.column_stack([np.ones(n_rows), rng.normal(size=(n_rows, 2))]), link=link)
        theta = rng.normal(0.0, 0.3, 3)
        batch = EstimatorBatch(*(rng.choice(n_rows, m) for m in (m0, m1, n_pool)))
        draws = np.concatenate((batch.group0, batch.group1, batch.pool))
        expanded = LinearFamily(fam.base_scores[draws], fam.encoder_matrix[draws], link=link)
        flat = batch_of(m0, m1, np.arange(m0 + m1, draws.size))
        spec = BiasEstimatorSpec(variant, RelaxationFamily(kind, 8.0), SQUARE, 16, rng_seed=seed % 97,
                                 unbiased=unbiased, kde_bandwidth=bandwidth)
        value, grad = bias_value_and_grad(spec, fam, theta, batch)
        oracle_value, oracle_grad = bias_value_and_grad(spec, expanded, theta, flat)
        assert bias_value_and_grad(spec, fam, theta, batch, need_grad=False)[0] == value
        assert abs(value - oracle_value) <= 1e-12 * max(abs(oracle_value), 1.0)
        assert np.linalg.norm(grad - oracle_grad) <= 1e-12 * max(np.linalg.norm(oracle_grad), 1.0)

    def test_each_distinct_row_is_scored_once(self):
        rng = np.random.default_rng(5)
        fam = logistic_family(rng, 10)
        batch = EstimatorBatch([3, 3, 1, 3], [7, 2, 7], [0, 0, 9])
        seen = []
        scores_and_grad = fam.scores_and_grad

        def spy(theta, rows):
            seen.append(rows)
            return scores_and_grad(theta, rows)

        with mock.patch.object(fam, "scores_and_grad", spy):
            spec = BiasEstimatorSpec("invariant-mc", RelaxationFamily("logistic", 6.0), SQUARE, 16, unbiased=False)
            bias_value_and_grad(spec, fam, [0.0] * 4, batch)
        assert [list(rows) for rows in seen] == [[1, 3, 2, 7, 0, 9]]


class TestRowIndices:
    """Batch rows are checked where they are read: a non-integer or negative
    index when the batch is made, an index past the family's records when it
    is scored, each named by its part."""

    @pytest.mark.parametrize(
        "parts, message",
        [
            (([0.7, 0], [1]), "group0: row index 0.7 is not an integer"),
            (([0], [True, False]), "group1: row index True is not an integer"),
            (([0], [1], [np.nan]), "pool: row index nan is not an integer"),
            (([-1, 0], [1, 2]), "group0: negative row index -1"),
            (([0], [1], [2, -3]), "pool: negative row index -3"),
        ],
        ids=["fraction", "bool", "nan", "negative-group", "negative-pool"],
    )
    def test_batch_rejects(self, parts, message):
        with pytest.raises(ValueError) as info:
            EstimatorBatch(*parts)
        assert str(info.value) == message

    def test_whole_floats_are_rows(self):
        assert EstimatorBatch([2.0, 0.0], [1]).group0.tolist() == [2, 0]

    @pytest.mark.parametrize(
        "parts, message",
        [
            (([0, 4], [1], [2]), "group0: row index 4 is out of range for 4 records"),
            (([0], [1, 9], [2]), "group1: row index 9 is out of range for 4 records"),
            (([0], [1], [3, 4]), "pool: row index 4 is out of range for 4 records"),
        ],
        ids=["group0", "group1", "pool"],
    )
    def test_scoring_rejects_rows_past_the_family(self, parts, message):
        fam = identity_family([0.1, 0.4, 0.6, 0.9])
        spec = BiasEstimatorSpec("invariant-mc", RelaxationFamily("logistic", 6.0), SQUARE, 16, unbiased=False)
        with pytest.raises(ValueError) as info:
            bias_value_and_grad(spec, fam, [0.0], EstimatorBatch(*parts))
        assert str(info.value) == message


class TestBlockedSnapshotMemory:
    """Full-data snapshots of the pool variants use every record as a
    threshold or pool score; the grid is formed in blocks, so the peak stays
    far below one (pool x group) matrix and the value is bitwise that of the
    grid formed at once."""

    @pytest.mark.parametrize("variant", ["invariant-mc", "invariant-energy-relaxed"])
    def test_value_is_unchanged_and_memory_bounded(self, variant):
        rng = np.random.default_rng(61)
        n = 2400
        fam = LinearFamily(rng.normal(size=n), np.column_stack([np.ones(n), rng.normal(size=n)]))
        batch = EstimatorBatch.full((np.arange(n) >= n // 2).astype(int))
        spec = BiasEstimatorSpec(variant, RelaxationFamily("logistic", 20.0), SQUARE, 64, unbiased=True)
        theta = np.array([0.1, -0.2])
        tracemalloc.start()
        try:
            blocked, _ = bias_value_and_grad(spec, fam, theta, batch, need_grad=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with mock.patch.object(estimators, "_GRID_CELLS", n * n):
            whole, _ = bias_value_and_grad(spec, fam, theta, batch, need_grad=False)
        assert blocked == whole
        one_grid = 8 * n * (n // 2)  # bytes of one (pool x group) float matrix
        assert peak < one_grid / 4


class TestStepMemory:
    """One trapezoid + unbiased step at 1024 + 1024 rows forms the joint
    grid and its slope block by block in two work arrays made once per
    call, so its peak stays within a few grid blocks."""

    def test_peak_is_a_few_grid_blocks(self):
        rng = np.random.default_rng(71)
        n = 2048
        fam = logistic_family(rng, n)
        spec = BiasEstimatorSpec(unbiased=True)
        batch = batch_of(1024, 1024)
        theta = rng.normal(0.0, 0.1, 4)
        tracemalloc.start()
        try:
            bias_value_and_grad(spec, fam, theta, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 8 * estimators._GRID_CELLS  # bytes of one grid block
        assert peak < 3 * block


class TestUnbiasedRecordsWhatApplies:
    """``unbiased`` is kept only where the variance correction applies: the
    squared-cost threshold estimators."""

    @pytest.mark.parametrize(
        "variant, cost, applied",
        [
            ("threshold-mc", SQUARE, True),
            ("threshold-discrete", SQUARE, True),
            ("threshold-discrete-trapezoid", SQUARE, True),
            ("invariant-mc", SQUARE, True),
            ("threshold-discrete", ABS, False),
            ("invariant-mc", ABS, False),
            ("invariant-kde-discrete", SQUARE, False),
            ("energy", SQUARE, False),
            ("invariant-energy-relaxed", SQUARE, False),
        ],
    )
    def test_normalised(self, variant, cost, applied):
        relaxation = RelaxationFamily("logistic", 20.0)
        assert BiasEstimatorSpec(variant, relaxation, cost, 64, unbiased=True).unbiased is applied
        assert BiasEstimatorSpec(variant, relaxation, cost, 64, unbiased=False).unbiased is False
