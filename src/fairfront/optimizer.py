"""Projected stochastic gradient descent over a linear family, swept across
bias penalization coefficients.

For each coefficient omega the objective is either the convex blend
``(1 - omega) * L + omega * B`` or the Lagrangian ``L + omega * B``, where L
is the performance loss (cross-entropy against labels, or a distillation
divergence against the base model) and B a differentiable bias estimator.
Each omega warm-starts from the best stored snapshot of the previous one,
re-scored under the new coefficient.  Per-group bias batches are drawn with
replacement so the estimator sees balanced groups regardless of prevalence,
and every step projects theta back into the box ``SweepConfig.theta_box``
by coordinate clamping; the family itself carries no bounds.

Base scores and encoder columns are computed once, outside this module.
Gradients are taken in score space: the loss differentiates in logit space,
the bias estimator in link space, and the family pulls each cotangent back
to theta (see ``linear_family``), so this module never reads the encoder
matrix and works with any family that supplies scores and a pullback.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ._util import cross_entropy, fmt_float, logit, row_indices, sigmoid
from .estimators import BiasEstimatorSpec, EstimatorBatch, bias_value_and_grad
from .linear_family import LinearFamily

_LOSSES = ("cross-entropy", "distill")
_FORMS = ("penalized", "lagrangian")
_DISTILL_EPS = 1e-7   # the distillation loss and its cotangent clamp p to [eps, 1 - eps]


@dataclass
class SweepConfig:
    omegas: np.ndarray = None      # nondecreasing; default j/20 for j=0..20
    learning_rate: float = 0.01
    n_epochs: int = 20
    n_batches: int = 10
    batch_size: int = 1024         # records per loss batch and per bias batch
    theta_box: float = 10.0        # every step clips each theta coordinate to [-b, b]
    objective: str = "penalized"
    loss: str = "cross-entropy"
    seed: int = 0

    def __post_init__(self):
        if self.omegas is None:
            self.omegas = default_omegas()
        self.omegas = np.asarray(self.omegas, dtype=float).ravel()
        if self.omegas.size == 0:
            raise ValueError("omegas must hold at least one weight")
        if not np.all(np.isfinite(self.omegas)):
            raise ValueError("omegas must be finite")
        if np.any(self.omegas < 0) or np.any(np.diff(self.omegas) < 0):
            raise ValueError("omegas must be nonnegative and nondecreasing")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.n_epochs < 0:
            raise ValueError(f"n_epochs must be nonnegative, got {self.n_epochs}")
        if self.n_batches < 1:
            raise ValueError(f"n_batches must be at least 1, got {self.n_batches}")
        # inf leaves theta unbounded; NaN fails the comparison
        if not self.theta_box >= 0:
            raise ValueError(f"theta box half-width must be nonnegative, got {self.theta_box}")
        if self.objective not in _FORMS:
            raise ValueError(f"unknown objective form {self.objective!r}")
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")


def default_omegas(scale: float = 1.0, count: int = 21) -> np.ndarray:
    """The ladder (scale/20) * j for j = 0..count-1."""
    return scale / 20.0 * np.arange(count)


def loss_bias_ratio_scale(family, spec, labels, groups) -> float:
    """Base-model cross-entropy divided by its bias estimate; the customary
    scale for the omega ladder when the two terms live on different orders."""
    batch = EstimatorBatch.full(groups)
    loss, bias = _full_scores(family, spec, family.zero_theta(), batch, labels, "cross-entropy")
    return float(loss / max(bias, 1e-12))


def distill_loss(p, q) -> float:
    """Bernoulli Kullback-Leibler divergence of p from q, clamped inside
    [1e-7, 1 - 1e-7]; zero exactly when p equals q and nonnegative always."""
    p = np.clip(np.asarray(p, dtype=float), _DISTILL_EPS, 1.0 - _DISTILL_EPS)
    q = np.clip(np.asarray(q, dtype=float), _DISTILL_EPS, 1.0 - _DISTILL_EPS)
    return float(np.mean(p * (np.log(p) - np.log(q)) + (1 - p) * (np.log1p(-p) - np.log1p(-q))))


def _objective(form: str, omega, loss, bias):
    """The objective ``w_L * loss + omega * bias``, with the loss weight
    ``w_L`` = 1 - omega in the penalized form and 1 in the Lagrangian; on
    floats, or on arrays of values or gradients alike."""
    return (1.0 - omega if form == "penalized" else 1.0) * loss + omega * bias


def _loss_and_cotangent(family, p, rows, labels, loss_kind):
    """Performance loss of the student probabilities ``p`` on ``rows`` (a row
    index array, or ``slice(None)`` for all rows) and its cotangent in logit
    space, d loss / d raw score, per row before the mean.

    cross-entropy: mean CE of p against labels; cotangent p - y.
    distill: mean Bernoulli KL of p from the teacher sigma(f_*); cotangent
    (logit p - logit q) p (1 - p) on the clamped probabilities.
    """
    if loss_kind == "cross-entropy":
        y = labels[rows]
        return cross_entropy(p, y), p - y
    teacher = sigmoid(family.base_scores[rows])
    dldp = logit(p, _DISTILL_EPS) - logit(teacher, _DISTILL_EPS)
    return distill_loss(p, teacher), dldp * p * (1 - p)


def _loss_and_grad(family, theta, rows, labels, loss_kind):
    """Performance loss and theta-gradient on a row batch: the logit-space
    cotangent pulled back through the raw scores, never divided by the link
    slope, so it stays exact where p saturates."""
    raw, pullback = family.raw_scores_and_pullback(theta, rows)
    value, cotangent = _loss_and_cotangent(family, sigmoid(raw), rows, labels, loss_kind)
    return value, pullback(cotangent) / rows.size


def _full_scores(family, spec, theta, full_batch, labels, loss_kind):
    """Full-data ``(loss, bias)`` of ``theta``: the loss on every row, the
    bias estimate on ``full_batch``, the ``EstimatorBatch.full`` of the
    groups."""
    p = sigmoid(family.raw_scores_and_pullback(theta)[0])
    loss = _loss_and_cotangent(family, p, slice(None), labels, loss_kind)[0]
    bias, _ = bias_value_and_grad(spec, family, theta, full_batch, need_grad=False)
    return loss, bias


def penalized_objective(
    family: LinearFamily,
    spec: BiasEstimatorSpec,
    theta,
    omega: float,
    perf_batch,
    bias_batch: EstimatorBatch,
    labels=None,
    objective: str = "penalized",
    loss: str = "cross-entropy",
    rng=None,
):
    """Objective value and analytic gradient on explicit batches (see
    ``_objective``).  A row of either batch that is not an index of the
    family's records raises a ValueError naming its batch part."""
    theta = np.asarray(theta, dtype=float)
    perf_batch = row_indices(perf_batch, "perf_batch", family.n_records)
    if perf_batch.size == 0:
        raise ValueError("empty performance batch")
    if loss == "cross-entropy" and labels is None:
        raise ValueError("cross-entropy loss needs labels")
    l_value, l_grad = _loss_and_grad(family, theta, perf_batch, labels, loss)
    b_value, b_grad = bias_value_and_grad(spec, family, theta, bias_batch, rng=rng)
    return _objective(objective, omega, l_value, b_value), _objective(objective, omega, l_grad, b_grad)


@dataclass
class TraceRow:
    omega: float
    epoch: int
    theta: np.ndarray
    train_loss: float
    train_bias: float


@dataclass
class MitigationTrace:
    rows: list = field(default_factory=list)

    def to_csv(self, path):
        width = self.rows[0].theta.size if self.rows else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["omega", "epoch"] + [f"theta_{j}" for j in range(width)] + ["train_loss", "train_bias_estimate"]
            )
            for row in self.rows:
                writer.writerow(
                    [fmt_float(row.omega), row.epoch]
                    + [fmt_float(v) for v in row.theta]
                    + [fmt_float(row.train_loss), fmt_float(row.train_bias)]
                )


def _best(rows, form, omega) -> TraceRow:
    """The first of ``rows`` with the lowest objective under ``omega``."""
    losses, biases = np.array([[row.train_loss, row.train_bias] for row in rows]).T
    return rows[int(np.argmin(_objective(form, omega, losses, biases)))]


def sgd_sweep(family: LinearFamily, spec: BiasEstimatorSpec, config: SweepConfig, labels, groups):
    """Run the omega sweep; returns (candidates, trace).

    ``trace`` records every per-epoch snapshot with its full-data loss and
    bias estimate, and its rows are the only snapshot store.  Each omega
    warm-starts from the previous omega's rows (a theta = 0 row, not
    written, before the first), at the one lowest under the new omega;
    ``candidates`` holds one ``(omega, theta)`` pair per omega, the lowest
    of its own rows.  With no epochs an omega keeps its warm start.
    """
    labels = np.asarray(labels, dtype=float).ravel()
    groups = np.asarray(groups).ravel()
    if labels.size != family.n_records or groups.size != family.n_records:
        raise ValueError("labels/groups must align with the family rows")
    if not (np.any(groups == 0) and np.any(groups == 1)):
        raise ValueError("both groups need at least one record")

    rng = np.random.default_rng(config.seed)
    n = family.n_records
    full_batch = EstimatorBatch.full(groups)

    def snapshot(omega, epoch, theta):
        return TraceRow(float(omega), epoch, theta, *_full_scores(family, spec, theta, full_batch, labels, config.loss))

    trace = MitigationTrace()
    candidates = []
    pool = [snapshot(0.0, -1, family.zero_theta())]
    for omega in config.omegas:
        theta = _best(pool, config.objective, omega).theta
        first = len(trace.rows)
        for epoch in range(config.n_epochs):
            for _ in range(config.n_batches):
                perf = rng.choice(n, size=config.batch_size, replace=True)
                bias_batch = EstimatorBatch(
                    rng.choice(full_batch.group0, size=config.batch_size, replace=True),
                    rng.choice(full_batch.group1, size=config.batch_size, replace=True),
                    rng.choice(n, size=config.batch_size, replace=True),
                )
                _, grad = penalized_objective(
                    family,
                    spec,
                    theta,
                    omega,
                    perf,
                    bias_batch,
                    labels=labels,
                    objective=config.objective,
                    loss=config.loss,
                    rng=rng,
                )
                theta = np.clip(theta - config.learning_rate * grad, -config.theta_box, config.theta_box)
            trace.rows.append(snapshot(omega, epoch, theta))
        pool = trace.rows[first:] or pool
        candidates.append((float(omega), _best(pool, config.objective, omega).theta))
    return candidates, trace
