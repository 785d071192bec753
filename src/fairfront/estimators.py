"""Differentiable bias estimators with analytic theta-gradients.

Each estimator approximates a threshold-averaged bias metric of the grouped
link-space scores of a model family, and returns both the value and its
exact gradient with respect to the family parameter.  Variants:

threshold-mc              Monte Carlo thresholds drawn from uniform(0, 1).
threshold-discrete        uniform grid on [0, 1], rectangle rule.
threshold-discrete-trapezoid
                          same grid with trapezoid end weights.
energy                    V-statistic of the pairwise absolute gaps, equal to
                          twice the squared Cramer distance of the groups;
                          computed from the merged sorted sample in
                          O(n log n), never from the n0 x n1 gap matrix,
                          its cotangents counted from the same sort.
invariant-mc              thresholds are themselves model scores drawn from a
                          held-out pool, making the metric invariant to
                          monotone score transforms.
invariant-kde-discrete    grid thresholds weighted by a Gaussian KDE of the
                          pooled score density.
invariant-energy-relaxed  energy statistic of scores pushed through a relaxed
                          pooled CDF built from the held-out pool.

Every estimator is a function of the link-space scores of group 0, group 1
and (invariant variants) the pool, and returns one cotangent, d value /
d score, per row of each: through every occurrence of a score, pooled scores
reused as thresholds, as KDE centres or in Silverman's bandwidth included;
only the random selection of threshold/pool samples is frozen.  ``bias_value_and_grad`` scores the three
row sets in one ``family.scores_and_grad`` call and hands the cotangents to
the pullback it returns, so any family with ``scores`` and
``scores_and_grad`` will do.

The oracles these estimators are checked against (the exact relaxed bias of
an atomic population and the convergence-rate probe) are test code, in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CostFunction
from .relaxation import RelaxationFamily

_VARIANTS = (
    "threshold-mc",
    "threshold-discrete",
    "threshold-discrete-trapezoid",
    "energy",
    "invariant-mc",
    "invariant-kde-discrete",
    "invariant-energy-relaxed",
)
_ENERGY_VARIANTS = ("energy", "invariant-energy-relaxed")
_POOL_VARIANTS = ("invariant-mc", "invariant-kde-discrete", "invariant-energy-relaxed")
# cells of a relaxation grid formed at once (512 KB a matrix): memory stays
# bounded whatever the threshold or pool count.  A call writes every block
# into the same two work arrays: a fresh array this large is a new mmap
# under glibc's default 128 KB threshold, and its pages fault in again
_GRID_CELLS = 1 << 16
# a grid step is 1/n for a whole n up to this relative error (1/129 in floats is not exact)
_STEP_RTOL = 1e-9


@dataclass(frozen=True)
class BiasEstimatorSpec:
    """Fully determines a differentiable bias value and gradient.

    ``thresholds`` is either a count T (int) or a grid step (float in (0,1)).
    ``unbiased`` subtracts the within-group variance terms from squared-cost
    threshold estimators so each term estimates h(B_s(t)) without the
    sampling-variance inflation; it requires at least two records per group
    and can make small values dip below zero.  It applies to threshold-mc,
    threshold-discrete(-trapezoid) and invariant-mc with the square cost; for
    any other estimator it is set to False, so the spec records what applies.
    """

    variant: str = "threshold-discrete-trapezoid"
    relaxation: RelaxationFamily = RelaxationFamily("logistic", 20.0)
    cost: CostFunction = CostFunction("square")
    thresholds: float = 1.0 / 129.0
    kde_bandwidth: float = None
    rng_seed: int = 0
    unbiased: bool = False

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown estimator variant {self.variant!r}")
        if not self.cost.is_h_form:
            raise ValueError("estimators require a difference cost (abs or square)")
        if self.variant in _ENERGY_VARIANTS and self.cost.kind != "square":
            raise ValueError("energy variants require the square cost")
        # checked before grid_shape divides by the count or the step
        count = self.thresholds
        if not isinstance(count, (int, np.integer)):
            if not 0.0 < count < 1.0:
                raise ValueError(f"grid step must lie in (0, 1), got {count}")
            steps = 1.0 / count
            if abs(steps - round(steps)) > _STEP_RTOL * steps:
                # the grid keeps the step, so any other step ends short of 1 or beyond it
                near = sorted({max(2, math.floor(steps)), math.ceil(steps)})
                raise ValueError(
                    f"grid step {count} does not divide [0, 1] into whole steps; "
                    f"use {' or '.join(f'1/{n}' for n in near)}"
                )
            count = self.grid_shape()[0]
        if count < 2:
            raise ValueError("need at least two thresholds")
        if self.kde_bandwidth is not None and not self.kde_bandwidth > 0:
            raise ValueError("kde bandwidth must be positive")
        applies = self.cost.kind == "square" and self.variant not in (*_ENERGY_VARIANTS, "invariant-kde-discrete")
        object.__setattr__(self, "unbiased", bool(self.unbiased and applies))

    def grid_shape(self):
        """Threshold scheme as ``(count, step)``."""
        if isinstance(self.thresholds, (int, np.integer)):
            count = int(self.thresholds)
            return count, 1.0 / count
        step = float(self.thresholds)
        return int(round(1.0 / step)), step


@dataclass(frozen=True)
class EstimatorBatch:
    """Row indices of a group-indexed record sample.

    ``pool`` feeds the invariant variants (threshold scores, KDE centers or
    relaxed pooled CDF); it should be sampled independently of the group
    rows.
    """

    group0: np.ndarray
    group1: np.ndarray
    pool: np.ndarray = None

    def __post_init__(self):
        for name in ("group0", "group1", "pool"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.intp).ravel()
            object.__setattr__(self, name, arr)
        if self.group0.size == 0 or self.group1.size == 0:
            raise ValueError("both groups must be nonempty in the batch")

    @classmethod
    def full(cls, groups) -> "EstimatorBatch":
        """All rows, grouped by the 0/1 labels; pool = every row."""
        groups = np.asarray(groups).ravel()
        return cls(
            np.flatnonzero(groups == 0),
            np.flatnonzero(groups == 1),
            np.arange(groups.size),
        )


def _grid_blocks(rel, scores, thresholds, need_prime):
    """``(block, R, P)`` of the (thresholds, scores) grid ``R[j, i] =
    r_s(scores_i - thresholds_j)``, a block of about _GRID_CELLS cells of
    threshold rows at a time, written into work arrays made once per call
    that the next block overwrites.  ``P`` is the slope r_s' / s, None
    unless ``need_prime``."""
    step = min(thresholds.size, max(1, _GRID_CELLS // scores.size))
    work = np.empty((2 if need_prime else 1, step, scores.size))
    for lo in range(0, thresholds.size, step):
        blk = slice(lo, lo + step)
        n = thresholds[blk].size
        yield (blk, *rel.grid(scores, thresholds[blk], work[0, :n], work[1, :n] if need_prime else None))


def _threshold_average(spec, u0, u1, thresholds, weights, need_grad=True, scored=False):
    """``sum_j w_j h(B_hat(t_j))``, less the unbiased variance terms when
    ``spec.unbiased``, on the group scores ``u0`` and ``u1``.

    Returns the value and, with ``need_grad``, its cotangents ``(c0, c1, ct,
    cw)``: one per score of each group, one per threshold (None unless
    ``scored``, i.e. the thresholds are themselves scores) and one per
    weight.  One grid of both groups' scores ``(u0 | u1)`` is formed per
    block of about _GRID_CELLS cells, into two work arrays (R and its slope)
    made once per call, and each group reads its own columns.  So memory is
    bounded for any threshold count.  B, the variance terms, ``ct`` and
    ``cw`` are reductions over one threshold's row, so they do not depend on
    the blocking; ``c0`` and ``c1`` add up the blocks one after another, so
    their last bits do.
    """
    rel, unbiased = spec.relaxation, spec.unbiased
    m0, m1 = u0.size, u1.size
    if unbiased and min(m0, m1) < 2:
        raise ValueError("unbiased square correction needs at least two records per group")
    u = np.concatenate((u0, u1))
    # each group's columns of the grid, its size, and the sign of its mean in B
    groups = ((slice(0, m0), m0, -1.0), (slice(m0, None), m1, 1.0))
    T = thresholds.size
    B = np.empty(T)
    variance = np.zeros(T)
    coef = np.zeros(u.size) if need_grad else None
    tcoef = np.zeros(T) if need_grad and scored else None
    for blk, R, P in _grid_blocks(rel, u, thresholds, need_grad):
        means = [R[:, cols].mean(axis=1) for cols, _, _ in groups]
        B[blk] = means[1] - means[0]
        if unbiased:
            for (cols, m, _), mean in zip(groups, means):
                # sum_i (R_ji - mean_j)^2 taken as sum_i R_ji^2 - m mean_j^2
                squares = np.einsum("ij,ij->i", R[:, cols], R[:, cols])
                variance[blk] += (squares - m * mean * mean) / (m - 1) / m
        if not need_grad:
            continue
        w = weights[blk]
        # P is the slope r_s' / s: the factor s rides on these T-vectors
        wdh = rel.scale * w * spec.cost.h_prime(B[blk])
        # each group's variance term has cotangent sum_j v_j (R_ji - mean_j) P_ji
        v = [2.0 * rel.scale / (m * (m - 1)) * w for _, m, _ in groups] if unbiased else (None, None)
        for (cols, m, sign), mean, v_k in zip(groups, means, v):
            along = sign * wdh / m
            if unbiased:
                along = along + v_k * mean  # the -mean_j part; the R_ji part is below
            coef[cols] += along @ P[:, cols]
            if tcoef is not None:
                # thresholds that are scores: r_s'(u_i - t_j) also carries -dt_j
                tcoef[blk] -= along * P[:, cols].sum(axis=1)
        if unbiased:
            R *= P  # R's last use: the grid of R P in place
            for (cols, _, _), v_k in zip(groups, v):
                coef[cols] -= v_k @ R[:, cols]
                if tcoef is not None:
                    tcoef[blk] += v_k * R[:, cols].sum(axis=1)
    hvals = spec.cost.h(B)
    value = float(weights @ hvals)
    if unbiased:
        value -= float(weights @ variance)
    if not need_grad:
        return value, None
    return value, (coef[:m0], coef[m0:], tcoef, hvals - variance)


def _energy_vstat(S0, S1, need_grad=True):
    """Energy V-statistic of two transformed samples with its cotangents.

    ``2 mean|S0_i - S1_j| - mean|S0 - S0'| - mean|S1 - S1'|`` with the
    diagonals included, which equals ``2 int (F0 - F1)^2 dt`` over the
    empirical CDFs.  The value is that integral, summed over the gaps of the
    merged sorted sample, so every term is nonnegative.  The cotangent of
    ``S_i`` is its sign sums ``sum_j sign(S_i - S'_j)`` against the other
    group and its own, scaled by the pair count: each is the integer count
    of that group below ``S_i``'s run of ties in the same sorted sample,
    less the count above it, so a tie counts 0, as in ``np.sign``.  Time
    O(n log n) for the one sort, memory O(n0 + n1).
    """
    m0, m1 = S0.size, S1.size
    n = m0 + m1
    merged = np.concatenate((S0, S1))
    order = np.argsort(merged)
    merged = merged[order]
    in0 = order < m0
    # F0 - F1 on [merged_k, merged_k+1) from the counts of each group so far;
    # inside a run of ties the width is 0, so the order among them is moot
    upto0 = np.cumsum(in0)
    n0 = upto0[:-1]
    n1 = np.arange(1, n) - n0
    gap = n0 / m0 - n1 / m1
    value = 2.0 * float(np.sum(gap * gap * np.diff(merged)))
    if not need_grad:
        return value, None
    # each run of ties: its first position, the position past its end, and
    # the count of group 0 below and above it; group 1's counts are the rest
    first = np.r_[True, merged[1:] != merged[:-1]]
    start = np.flatnonzero(first)
    end = np.r_[start[1:], n]
    below0 = upto0[start] - in0[start]
    above0 = m0 - upto0[end - 1]
    sums0 = below0 - above0
    sums1 = (start - below0) - (n - end - above0)
    # each score's run, scattered back from the sorted positions
    run = np.empty(n, np.intp)
    run[order] = np.cumsum(first) - 1
    run0, run1 = run[:m0], run[m0:]
    c0 = (2.0 / (m0 * m1)) * sums1[run0] - (2.0 / (m0 * m0)) * sums0[run0]
    c1 = (2.0 / (m0 * m1)) * sums0[run1] - (2.0 / (m1 * m1)) * sums1[run1]
    return value, (c0, c1)


_MIN_BANDWIDTH = 1e-9


def _silverman_bandwidth(samples) -> float:
    sd = float(np.std(samples, ddof=1)) if samples.size > 1 else 0.0
    bw = 1.06 * sd * samples.size ** (-0.2)
    return max(bw, _MIN_BANDWIDTH)


def _estimate(spec, rng, need_grad, u0, u1, up=None):
    """The selected estimator on the link-space scores of group 0, group 1
    and the pool (None for the variants that read none).  Returns the value
    and, with ``need_grad``, one cotangent array per score vector."""
    T, dt = spec.grid_shape()

    if spec.variant == "threshold-mc":
        gen = rng if rng is not None else np.random.default_rng(spec.rng_seed)
        thresholds, weights = gen.random(T), np.full(T, 1.0 / T)
    elif spec.variant == "threshold-discrete":
        thresholds, weights = dt * np.arange(1, T + 1), np.full(T, dt)
    elif spec.variant == "threshold-discrete-trapezoid":
        thresholds, weights = dt * np.arange(0, T + 1), np.full(T + 1, dt)
        weights[0] = weights[-1] = dt / 2.0
    if spec.variant.startswith("threshold-"):
        value, cot = _threshold_average(spec, u0, u1, thresholds, weights, need_grad)
        return value, cot and cot[:2]

    if spec.variant == "energy":
        # the uniform(0, 1) CDF clips the scores: slope 1 inside, 0 outside
        value, cot = _energy_vstat(np.clip(u0, 0.0, 1.0), np.clip(u1, 0.0, 1.0), need_grad)
        return value, cot and tuple(c * ((u > 0.0) & (u < 1.0)) for c, u in zip(cot, (u0, u1)))

    if spec.variant == "invariant-mc":
        weights = np.full(up.size, 1.0 / up.size)
        value, cot = _threshold_average(spec, u0, u1, up, weights, need_grad, scored=True)
        return value, cot and cot[:3]

    if spec.variant == "invariant-kde-discrete":
        thresholds = dt * np.arange(1, T + 1)
        bw = spec.kde_bandwidth if spec.kde_bandwidth is not None else _silverman_bandwidth(up)
        z = (thresholds[:, None] - up[None, :]) / bw
        kern = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        rho = kern.mean(axis=1) / bw
        value, cot = _threshold_average(spec, u0, u1, thresholds, dt * rho, need_grad)
        if cot is None:
            return value, None
        c0, c1, _, cw = cot
        # weight dt rho(t_j) through the kernel: d/d up_l = dt K(z_jl) z_jl / (pool bw^2)
        cp = dt * (cw @ (kern * z)) / (up.size * bw * bw)
        if spec.kde_bandwidth is None and bw > _MIN_BANDWIDTH:
            # and through Silverman's bw = c sd(up): d rho_j / d bw = mean_l K(z_jl) (z_jl^2 - 1) / bw^2
            # and d bw / d up_l = (bw / sd) (up_l - mean) / ((pool - 1) sd)
            d_bw = dt * (cw @ (kern * (z * z - 1.0)).mean(axis=1)) / (bw * bw)
            cp += d_bw * bw * (up - up.mean()) / ((up.size - 1) * np.var(up, ddof=1))
        return value, (c0, c1, cp)

    # invariant-energy-relaxed: push the group scores through the relaxed
    # pooled CDF S_i = 1 - mean_l r_s(up_l - u_i) of the pool sample, then take
    # the V-statistic.  The grid is formed a block of group rows at a time, and
    # again for the cotangents of u and up, which need those of S first
    rel = spec.relaxation
    S = [np.empty(u.size) for u in (u0, u1)]
    for S_k, u in zip(S, (u0, u1)):
        for blk, R, _ in _grid_blocks(rel, up, u, False):
            S_k[blk] = 1.0 - R.mean(axis=1)
    value, cot = _energy_vstat(*S, need_grad)
    if cot is None:
        return value, None
    cp = np.zeros(up.size)
    cu = [np.empty(u.size) for u in (u0, u1)]
    for c_k, cS, u in zip(cu, cot, (u0, u1)):
        cS = rel.scale * cS  # the factor s of the slope P
        for blk, _, P in _grid_blocks(rel, up, u, True):
            c_k[blk] = cS[blk] * P.mean(axis=1)
            cp -= (cS[blk] @ P) / up.size
    return value, (cu[0], cu[1], cp)


def bias_value_and_grad(
    spec: BiasEstimatorSpec,
    family,
    theta,
    batch: EstimatorBatch,
    rng: np.random.Generator = None,
    need_grad: bool = True,
):
    """Evaluate the selected bias estimator and its exact theta-gradient.

    Grid and Monte Carlo thresholds live on [0, 1], so families with a
    logistic link are thresholded in probability space.  ``rng`` overrides
    the spec seed for Monte Carlo threshold draws.  Group 0, group 1 and the
    pool are scored in one family call, and the estimator's score-space
    cotangents are pulled back to theta once.  With ``need_grad=False`` the
    gradient slot is None (snapshot scoring skips the cotangents).
    """
    parts = [batch.group0, batch.group1]
    if spec.variant in _POOL_VARIANTS:
        if batch.pool is None or batch.pool.size == 0:
            raise ValueError(f"{spec.variant} needs a pool sample in the batch")
        parts.append(batch.pool)
    rows = np.concatenate(parts)
    if need_grad:
        u, pullback = family.scores_and_grad(theta, rows)
    else:
        u = family.scores(theta, rows)
    value, cot = _estimate(spec, rng, need_grad, *np.split(u, np.cumsum([p.size for p in parts[:-1]])))
    if not need_grad:
        return value, None
    return value, pullback(np.concatenate(cot))
