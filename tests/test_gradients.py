"""Analytic gradients of every smooth estimator variant against central
finite differences, on both link functions and with the variance-corrected
squared cost."""

import numpy as np
import pytest

from fairfront.distributions import ABS, SQUARE
from fairfront.estimators import BiasEstimatorSpec, EstimatorBatch, bias_value_and_grad
from fairfront.linear_family import LinearFamily
from fairfront.relaxation import RelaxationFamily


def make_family(rng, n=90, m=4, link="logistic"):
    base = rng.normal(0.0, 1.2, n)
    cols = [np.ones(n)] + [rng.normal(size=n) for _ in range(m)]
    return LinearFamily(base, np.column_stack(cols), link=link)


def make_batch(rng, n):
    rows = rng.permutation(n)
    third = n // 3
    return EstimatorBatch(rows[:third], rows[third : 2 * third], rows[2 * third :])


def fd_gradient(fun, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = step
        grad[j] = (fun(theta + e) - fun(theta - e)) / (2 * step)
    return grad


def check_gradient(spec, family, batch, theta, rel_tol=1e-5):
    def value_at(t):
        return bias_value_and_grad(spec, family, t, batch)[0]

    _, grad = bias_value_and_grad(spec, family, theta, batch)
    fd = fd_gradient(value_at, theta)
    err = np.linalg.norm(grad - fd)
    scale = max(np.linalg.norm(fd), 1e-10)
    assert err <= rel_tol * scale, f"{spec.variant}: |grad-fd|={err:.3e} scale={scale:.3e}"


SMOOTH_SPECS = [
    BiasEstimatorSpec("threshold-mc", RelaxationFamily("logistic", 12.0), SQUARE, 48, rng_seed=3, unbiased=False),
    BiasEstimatorSpec("threshold-mc", RelaxationFamily("shifted-logistic", 12.0), SQUARE, 48, rng_seed=3, unbiased=False),
    BiasEstimatorSpec("threshold-discrete", RelaxationFamily("logistic", 12.0), SQUARE, 48, unbiased=False),
    BiasEstimatorSpec("threshold-discrete", RelaxationFamily("logistic", 12.0), ABS, 48),
    BiasEstimatorSpec("threshold-discrete-trapezoid", RelaxationFamily("logistic", 12.0), SQUARE, 48, unbiased=False),
    BiasEstimatorSpec("threshold-discrete-trapezoid", RelaxationFamily("logistic", 20.0), SQUARE, 1 / 129, unbiased=False),
    BiasEstimatorSpec("energy", RelaxationFamily("logistic", 12.0), SQUARE, 48),
    BiasEstimatorSpec("invariant-mc", RelaxationFamily("logistic", 12.0), SQUARE, 48, unbiased=False),
    BiasEstimatorSpec("invariant-kde-discrete", RelaxationFamily("logistic", 12.0), SQUARE, 48, kde_bandwidth=0.12),
    # Silverman's bandwidth, which moves with theta
    pytest.param(
        BiasEstimatorSpec("invariant-kde-discrete", RelaxationFamily("logistic", 12.0), SQUARE, 48),
        id="invariant-kde-discrete-silverman",
    ),
    BiasEstimatorSpec("invariant-energy-relaxed", RelaxationFamily("logistic", 12.0), SQUARE, 48),
    BiasEstimatorSpec("threshold-discrete", RelaxationFamily("logistic", 12.0), SQUARE, 48, unbiased=True),
    BiasEstimatorSpec("threshold-discrete-trapezoid", RelaxationFamily("logistic", 12.0), SQUARE, 48, unbiased=True),
    BiasEstimatorSpec("threshold-mc", RelaxationFamily("logistic", 12.0), SQUARE, 48, rng_seed=5, unbiased=True),
    BiasEstimatorSpec("invariant-mc", RelaxationFamily("logistic", 12.0), SQUARE, 48, unbiased=True),
]


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: f"{s.variant}-{s.relaxation.kind}-{s.cost.kind}-{'u' if s.unbiased else 'v'}")
def test_gradient_matches_finite_difference_logistic_link(spec):
    rng = np.random.default_rng(101)
    family = make_family(rng, link="logistic")
    batch = make_batch(rng, family.n_records)
    for _ in range(6):
        theta = rng.normal(0.0, 0.4, family.n_params)
        check_gradient(spec, family, batch, theta)


@pytest.mark.parametrize(
    "spec",
    [
        BiasEstimatorSpec("threshold-discrete", RelaxationFamily("logistic", 10.0), SQUARE, 48, unbiased=False),
        BiasEstimatorSpec("energy", RelaxationFamily("logistic", 10.0), SQUARE, 48),
        BiasEstimatorSpec("invariant-mc", RelaxationFamily("logistic", 10.0), SQUARE, 48, unbiased=False),
    ],
    ids=lambda s: s.variant,
)
def test_gradient_matches_finite_difference_identity_link(spec):
    # identity-link families with scores kept inside (0, 1)
    rng = np.random.default_rng(103)
    n = 90
    base = rng.uniform(0.25, 0.75, n)
    cols = np.column_stack([np.ones(n)] + [rng.normal(0, 0.05, n) for _ in range(3)])
    family = LinearFamily(base, cols, link="identity")
    batch = make_batch(rng, n)
    for _ in range(6):
        theta = rng.normal(0.0, 0.2, family.n_params)
        check_gradient(spec, family, batch, theta)
