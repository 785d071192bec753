import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fairfront.distributions import (
    ABS,
    ABS_LOG_RATIO,
    SQUARE,
    CostFunction,
    EmpiricalDistribution,
    ks_distance,
    wasserstein1,
)
from oracles import reference_wasserstein1, transport_cost


def dist(values, weights=None):
    return EmpiricalDistribution.from_samples(values, weights)


def random_dist(rng, max_atoms=6):
    n = rng.integers(1, max_atoms + 1)
    values = np.round(rng.uniform(-2, 2, n), 3)
    weights = rng.uniform(0.05, 1.0, n)
    return dist(values, weights)


def lp_transport(d0, d1, h):
    """Independent oracle: solve the discrete transport LP directly."""
    n0, n1 = d0.size, d1.size
    cost = np.array([[h(a - b) for b in d1.values] for a in d0.values]).ravel()
    a_eq = []
    for i in range(n0):
        row = np.zeros((n0, n1))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(n1):
        row = np.zeros((n0, n1))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([d0.weights, d1.weights])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


class TestConstruction:
    def test_merges_close_atoms(self):
        d = dist([0.5, 0.5 + 1e-14, 1.0])
        assert d.size == 2
        assert d.weights[0] == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dist([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            dist([0.0, 1.0], [0.5, -0.5])

    def test_weights_normalized_and_cdf_tops_out(self):
        d = dist([0, 1, 2], [2, 3, 5])
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.cdf(2.0) == 1.0


class TestCdf:
    def test_atom_counting(self):
        d = dist([0, 0, 1])
        assert d.cdf(0.0) == pytest.approx(2 / 3)

    def test_below_min_is_zero(self):
        d = dist([0, 0, 1])
        assert d.cdf(-0.5) == 0.0

    def test_at_or_above_max_is_one(self):
        d = dist([0, 0, 1])
        assert d.cdf(1.0) == 1.0
        assert d.cdf(5.0) == 1.0

    def test_left_cdf_excludes_atom(self):
        d = dist([0, 0, 1])
        assert d.left_cdf(0.0) == 0.0
        assert d.left_cdf(1.0) == pytest.approx(2 / 3)
        assert d.left_cdf(2.0) == 1.0


class TestQuantile:
    def test_definition(self):
        d = dist([1, 2, 3])
        assert d.quantile(0.5) == 2.0

    def test_boundary_attains_level(self):
        d = dist([1, 2, 3])
        assert d.quantile(1 / 3) == 1.0

    def test_top_level(self):
        d = dist([1, 2, 3])
        assert d.quantile(1.0) == 3.0

    def test_domain_checked(self):
        d = dist([1, 2, 3])
        with pytest.raises(ValueError):
            d.quantile(0.0)
        with pytest.raises(ValueError):
            d.quantile(1.5)

    def test_galois_inequalities(self):
        # t < Q(p) iff F(t) < p, scanned over every breakpoint of random
        # discrete distributions.
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = random_dist(rng)
            ts = np.concatenate([d.values, d.values - 1e-6, d.values + 1e-6])
            ps = np.concatenate([d.cum_weights, [0.1, 0.5, 0.9]])
            ps = np.unique(np.clip(ps, 1e-9, 1 - 1e-9))
            for t in ts:
                for p in ps:
                    assert (t < d.quantile(p)) == (d.cdf(t) < p)

    def test_pushforward_of_uniform_reproduces_distribution(self):
        # resampled quantiles must sit inside the DKW band of the original
        rng = np.random.default_rng(11)
        d = random_dist(rng)
        n = 5000
        resampled = d.quantile(rng.uniform(1e-12, 1.0, n))
        band = np.sqrt(np.log(2 / 1e-3) / (2 * n))
        grid = d.values
        emp = np.searchsorted(np.sort(resampled), grid, side="right") / n
        assert np.max(np.abs(emp - d.cdf(grid))) < band


class TestWasserstein:
    def test_hand_coupling(self):
        # quantile gap is 1 on p in (0, 0.5], 0 above
        assert wasserstein1(dist([0, 1]), dist([1, 1])) == pytest.approx(0.5)

    def test_identity(self):
        d = dist([0.3, 0.7, 0.9])
        assert wasserstein1(d, d) == 0.0

    def test_point_masses(self):
        assert wasserstein1(dist([0.0]), dist([1.0])) == pytest.approx(1.0)

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b, c = (random_dist(rng) for _ in range(3))
            assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), abs=1e-14)
            assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12
            assert wasserstein1(a, a) == 0.0

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d0 = random_dist(rng, max_atoms=5)
            d1 = random_dist(rng, max_atoms=5)
            assert wasserstein1(d0, d1) == pytest.approx(lp_transport(d0, d1, abs), abs=1e-10)


def weighted_dist(rng, n, weights):
    """``n`` increasing atoms with uniform weights, or random weights: small
    integers (zero inside, never at either end, so levels repeat within a
    grid and often match across grids) or floats."""
    values = np.cumsum(rng.uniform(0.01, 1.0, n)) - 1.0
    if weights == "uniform":
        w = np.ones(n)
    elif weights == "integer":
        w = rng.integers(0, 4, n).astype(float)
        w[[0, -1]] = rng.integers(1, 4, 2)
    else:
        w = rng.uniform(0.05, 1.0, n)
    return EmpiricalDistribution(values, w / w.sum())


class TestWassersteinMerge:
    """``wasserstein1`` reads both quantile indices from one merge of the
    sorted weight grids; its bits are those of the binary searches on their
    sorted union."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.integers(1, 12),
        n1=st.integers(1, 12),
        weights=st.sampled_from(["uniform", "integer", "float"]),
    )
    # equal levels across the grids: 0.5 and 1 in both
    @example(seed=0, n0=4, n1=2, weights="uniform")
    @example(seed=1, n0=6, n1=3, weights="uniform")
    @example(seed=2, n0=1, n1=9, weights="integer")
    def test_is_bitwise_the_union_search(self, seed, n0, n1, weights):
        rng = np.random.default_rng(seed)
        d0, d1 = weighted_dist(rng, n0, weights), weighted_dist(rng, n1, weights)
        for a, b in ((d0, d1), (d1, d0), (d0, d0)):
            assert repr(wasserstein1(a, b)) == repr(reference_wasserstein1(a, b))


class TestTransportCost:
    def test_monotone_pairs(self):
        # 0->1 and 2->3 under the monotone coupling, mean squared cost 1
        assert transport_cost(dist([0, 2]), dist([1, 3]), SQUARE) == pytest.approx(1.0)

    def test_identity(self):
        d = dist([0.1, 0.4])
        assert transport_cost(d, d, SQUARE) == 0.0

    def test_point_masses_square(self):
        assert transport_cost(dist([0.0]), dist([1.0]), SQUARE) == pytest.approx(1.0)

    def test_rejects_log_cost(self):
        with pytest.raises(ValueError):
            transport_cost(dist([0.0]), dist([1.0]), ABS_LOG_RATIO)

    def test_matches_lp_oracle_square(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d0 = random_dist(rng, max_atoms=5)
            d1 = random_dist(rng, max_atoms=5)
            oracle = lp_transport(d0, d1, lambda z: z * z)
            assert transport_cost(d0, d1, SQUARE) == pytest.approx(oracle, abs=1e-10)


class TestKs:
    def test_half(self):
        assert ks_distance(dist([0, 1]), dist([1.0])) == pytest.approx(0.5)

    def test_identity(self):
        d = dist([0.2, 0.5])
        assert ks_distance(d, d) == 0.0

    def test_point_masses(self):
        assert ks_distance(dist([0.0]), dist([1.0])) == 1.0


class TestCostFunction:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            CostFunction("cubic")

    def test_log_ratio_clamped(self):
        v = ABS_LOG_RATIO.value(0.0, 1.0)
        assert np.isfinite(v) and v == pytest.approx(np.log(1e12))

    def test_h_forms(self):
        assert ABS.h(-0.5) == 0.5
        assert SQUARE.h(-0.5) == 0.25
        assert ABS.h_prime(-0.5) == -1.0
        assert SQUARE.h_prime(0.5) == 1.0
