import numpy as np
import pytest

from fairfront.distributions import EmpiricalDistribution
from fairfront.relaxation import RelaxationFamily
from oracles import r_and_prime, relaxed_cdf

S_LADDER = [10.0, 100.0, 1000.0, 10000.0]
KINDS = ("ramp", "logistic", "shifted-logistic")
EACH_KIND = [RelaxationFamily(kind, 7.0 if kind == "ramp" else 20.0) for kind in KINDS]


def random_atomic(rng, n_atoms=8, min_gap=0.02):
    """Atoms on a coarse grid with repeats, so ties and gaps are exercised."""
    grid = np.arange(0, 50) * min_gap
    values = rng.choice(grid, size=n_atoms, replace=True)
    return EmpiricalDistribution.from_samples(values)


class TestFamilies:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            RelaxationFamily("step", 1.0)
        with pytest.raises(ValueError):
            RelaxationFamily("ramp", 0.0)

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match=f"relaxation scale must be finite and positive, got {scale}"):
            RelaxationFamily("logistic", scale)

    def test_range_and_monotone(self):
        z = np.linspace(-3, 3, 301)
        for fam in (RelaxationFamily(kind, 5.0) for kind in KINDS):
            v = fam.r(z)
            assert np.all(v >= 0) and np.all(v <= 1)
            assert np.all(np.diff(v) >= 0)

    def test_lipschitz_bound(self):
        z = np.linspace(-2, 2, 2001)
        for fam in (RelaxationFamily(kind, 7.0) for kind in KINDS):
            slopes = np.abs(np.diff(fam.r(z)) / np.diff(z))
            assert np.max(slopes) <= fam.scale + 1e-9

    def test_values_at_zero(self):
        assert RelaxationFamily("ramp", 50.0).r(0.0) == 0.0
        assert RelaxationFamily("logistic", 50.0).r(0.0) == pytest.approx(0.5)
        # shifted logistic pushes r_s(0) toward zero as s grows
        assert RelaxationFamily("shifted-logistic", 10000.0).r(0.0) < 1e-6

    def test_prime_matches_finite_difference(self):
        z = np.linspace(-1, 1, 41)
        h = 1e-7
        for fam in (RelaxationFamily("logistic", 9.0), RelaxationFamily("shifted-logistic", 9.0)):
            fd = (fam.r(z + h) - fam.r(z - h)) / (2 * h)
            assert np.allclose(r_and_prime(fam, z)[1], fd, atol=1e-5)
            _, P = fresh_grid(fam, z, np.zeros(1))  # the grid's slope is r_s' / s
            assert np.allclose(fam.scale * P[0], fd, atol=1e-5)


class TestRelaxedCdf:
    def test_half_step_of_single_atom(self):
        s = 4.0
        assert relaxed_cdf([0.0], -1.0 / (2 * s), RelaxationFamily("ramp", s)) == pytest.approx(0.5)

    def test_far_right_threshold(self):
        assert relaxed_cdf([0.3, 0.9], 1e6, RelaxationFamily("logistic", 5.0)) == pytest.approx(1.0)

    def test_ramp_at_atom_matches_cdf(self):
        assert relaxed_cdf([0.0], 0.0, RelaxationFamily("ramp", 3.0)) == 1.0

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            relaxed_cdf([], 0.0, RelaxationFamily("ramp", 3.0))

    def test_monotone_and_lipschitz_in_t(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, 20)
        ts = np.linspace(-0.5, 1.5, 401)
        for fam in (RelaxationFamily("ramp", 30.0), RelaxationFamily("logistic", 30.0)):
            vals = relaxed_cdf(scores, ts, fam)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.max(np.abs(np.diff(vals) / np.diff(ts))) <= fam.scale + 1e-9


class TestConvergence:
    def test_ramp_error_vanishes_monotonically(self):
        # limit is the plain CDF everywhere, including at atoms
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = random_atomic(rng)
            probes = np.unique(np.concatenate([d.values, d.values + 0.01, d.values - 0.005]))
            errs = []
            for s in S_LADDER:
                vals = 1.0 - np.array(
                    [np.sum(d.weights * RelaxationFamily("ramp", s).r(d.values - t)) for t in probes]
                )
                errs.append(np.abs(vals - d.cdf(probes)))
            errs = np.array(errs)
            assert np.all(errs[1:] <= errs[:-1] + 1e-12)
            assert np.all(errs[-1] < 1e-3)

    def test_logistic_limit_splits_the_atom(self):
        # at an atom the plain logistic converges to F(t) - P(Z=t)/2
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = random_atomic(rng)
            target = d.cdf(d.values) - 0.5 * d.weights
            errs = []
            for s in S_LADDER:
                vals = 1.0 - np.array(
                    [np.sum(d.weights * RelaxationFamily("logistic", s).r(d.values - t)) for t in d.values]
                )
                errs.append(np.abs(vals - target))
            errs = np.array(errs)
            assert np.all(errs[-1] < 1e-2)
            assert np.all(errs[-1] <= errs[0] + 1e-12)


def fresh_grid(fam, u, t, prime=True):
    """``fam.grid_writer(u)`` written into new arrays."""
    shape = (np.size(t), np.size(u))
    return fam.grid_writer(u)(t, np.empty(shape), np.empty(shape) if prime else None)


class TestGrid:
    """``grid_writer`` against ``r``/``r_and_prime`` on the difference grid; its
    slope ``P`` is r_s' / s."""

    @pytest.mark.parametrize("fam", EACH_KIND, ids=lambda f: f.kind)
    def test_matches_the_difference_grid(self, fam):
        rng = np.random.default_rng(3)
        u = rng.uniform(-0.5, 1.5, 57)
        t = np.linspace(0.0, 1.0, 33)
        Z = u[None, :] - t[:, None]
        R, P = fresh_grid(fam, u, t)
        lean, none = fresh_grid(fam, u, t, prime=False)
        r, rp = r_and_prime(fam, Z)
        assert R.shape == P.shape == (33, 57) and none is None
        assert np.array_equal(lean, R)
        assert np.max(np.abs(R - fam.r(Z))) <= 1e-15
        assert np.max(np.abs(fam.scale * P - rp)) <= 1e-15 * fam.scale

    @pytest.mark.parametrize("fam", [RelaxationFamily(kind, 200.0) for kind in KINDS[1:]], ids=lambda f: f.kind)
    def test_large_exponents_take_the_difference_grid(self, fam):
        # identity-link raw scores of +-1e3 as both scores and thresholds (as
        # in invariant-mc): separable factors would be inf and 0
        u = np.array([-1e3, -0.3, 0.0, 0.4, 1e3])
        Z = u[None, :] - u[:, None]
        with np.errstate(over="raise", under="raise", invalid="raise"):
            R, P = fresh_grid(fam, u, u)
        r, rp = r_and_prime(fam, Z)
        assert np.array_equal(R, r)
        assert np.max(np.abs(fam.scale * P - rp)) <= 1e-15 * fam.scale
        assert np.all(np.isfinite(R)) and np.all(np.isfinite(P))

    @pytest.mark.parametrize(
        "fam", [RelaxationFamily("ramp", 7.0), RelaxationFamily("logistic", 20.0), RelaxationFamily("logistic", 400.0)],
        ids=["ramp", "separable", "fallback"],
    )
    def test_reused_arrays_are_overwritten(self, fam):
        # a caller writes every block of a call into the same two arrays
        rng = np.random.default_rng(4)
        u = rng.uniform(-0.5, 1.5, 21)
        R_work, P_work = np.full((2, 9, 21), np.nan)
        fam.grid_writer(rng.uniform(-0.5, 1.5, 21))(np.linspace(0.5, 1.5, 9), R_work, P_work)
        R, P = fam.grid_writer(u)(np.linspace(0.0, 1.0, 9), R_work, P_work)
        assert R is R_work and P is P_work
        expected = fresh_grid(fam, u, np.linspace(0.0, 1.0, 9))
        assert np.array_equal(R, expected[0]) and np.array_equal(P, expected[1])

    @pytest.mark.parametrize("fam", EACH_KIND, ids=lambda f: f.kind)
    def test_nan_propagates(self, fam):
        u = np.array([0.2, np.nan, 0.7])
        t = np.array([0.1, 0.5, np.nan])
        R, P = fresh_grid(fam, u, t)
        r, rp = r_and_prime(fam, u[None, :] - t[:, None])
        np.testing.assert_array_equal(R, r)
        np.testing.assert_allclose(fam.scale * P, rp, rtol=0.0, atol=1e-15 * fam.scale)
        assert np.array_equal(np.isnan(R), np.isnan(u)[None, :] | np.isnan(t)[:, None])
