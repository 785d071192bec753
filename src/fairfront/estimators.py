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

A batch is three multisets of rows: group 0, group 1 and (invariant
variants) the pool, drawn with replacement by the sweep.  Every estimator is
a function of the distinct link-space scores of each part and their counts:
group means and squares are count-weighted, a pooled score weighs its share
of the pool's draws as a threshold or KDE centre, and the energy statistic
counts draws in its one sort.  It returns one cotangent, d value / d score,
per distinct row of each part, summed over the row's draws and through every
occurrence of its score, pooled scores reused as thresholds, as KDE centres
or in Silverman's bandwidth included; only the random selection of
threshold/pool samples is frozen.  ``bias_value_and_grad`` scores the
distinct rows of the three parts in one ``family.scores_and_grad`` call and
hands the cotangents to the pullback it returns, so any family with
``n_records``, ``scores`` and ``scores_and_grad`` will do.

The oracles these estimators are checked against (the exact relaxed bias of
an atomic population and the convergence-rate probe) are test code, in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import row_indices
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
    threshold estimators, so each term estimates h(B_s(t)) without the
    variance inflation of a sweep's small batches; it needs two records per
    group and can dip small values below zero.  It applies to threshold-mc,
    threshold-discrete(-trapezoid) and invariant-mc with the square cost;
    any other estimator sets it to False, so the spec records what applies.
    """

    variant: str = "threshold-discrete-trapezoid"
    relaxation: RelaxationFamily = RelaxationFamily("logistic", 20.0)
    cost: CostFunction = CostFunction("square")
    thresholds: float = 1.0 / 129.0
    kde_bandwidth: float = None
    rng_seed: int = 0
    unbiased: bool = True

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
    """Row indices of a group-indexed record sample.  Each part is a multiset
    of rows: the sweep draws them with replacement.

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
            # a copy no caller holds, read-only, so the multisets below stay true
            arr = np.array(row_indices(arr, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.group0.size == 0 or self.group1.size == 0:
            raise ValueError("both groups must be nonempty in the batch")
        object.__setattr__(self, "_multisets", {})

    def multiset(self, name):
        """Part ``name`` as a multiset: its distinct rows in increasing order
        and the count of each.  Made once per batch, so a batch scored many
        times (the sweep's full-data snapshots) sorts each part once."""
        if name not in self._multisets:
            self._multisets[name] = np.unique(getattr(self, name), return_counts=True)
        return self._multisets[name]

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
    that the next block overwrites; the scores' side of the grid is made
    once per call too.  ``P`` is the slope r_s' / s, None unless
    ``need_prime``."""
    step = min(thresholds.size, max(1, _GRID_CELLS // scores.size))
    work = np.empty((2 if need_prime else 1, step, scores.size))
    write = rel.grid_writer(scores)
    for lo in range(0, thresholds.size, step):
        blk = slice(lo, lo + step)
        n = thresholds[blk].size
        yield (blk, *write(thresholds[blk], work[0, :n], work[1, :n] if need_prime else None))


def _row_sums(A, k):
    """``sum_i A[j, i] k_i`` for each row j, reduced along the row alone, so
    a row's bits do not depend on how many rows the block holds."""
    return np.einsum("ij,j->i", A, k)


def _threshold_average(spec, u0, u1, k0, k1, thresholds, weights, need_grad=True, scored=False):
    """``sum_j w_j h(B_hat(t_j))``, less the unbiased variance terms when
    ``spec.unbiased``, on the distinct group scores ``u0`` and ``u1``, drawn
    ``k0`` and ``k1`` times.

    Returns the value and, with ``need_grad``, its cotangents ``(c0, c1, ct,
    cw)``: one per distinct score of each group, summed over its draws, one
    per threshold (None unless ``scored``, i.e. the thresholds are
    themselves scores) and one per weight.  One grid of both groups' scores
    ``(u0 | u1)`` is formed per block of about _GRID_CELLS cells, into two
    work arrays (R and its slope) made once per call, and each group reads
    its own columns.  So memory is bounded for any threshold count.  B, the
    variance terms, ``ct`` and ``cw`` are count-weighted reductions over one
    threshold's row, so they do not depend on the blocking; ``c0`` and
    ``c1`` add up the blocks one after another, so their last bits do.
    """
    rel, unbiased = spec.relaxation, spec.unbiased
    # group sizes are draws, not distinct rows
    m0, m1 = int(k0.sum()), int(k1.sum())
    if unbiased and min(m0, m1) < 2:
        raise ValueError("unbiased square correction needs at least two records per group")
    u = np.concatenate((u0, u1))
    k = np.concatenate((k0, k1)).astype(float)
    # each group's columns of the grid, its draws, and the sign of its mean in B
    groups = ((slice(0, u0.size), m0, -1.0), (slice(u0.size, None), m1, 1.0))
    T = thresholds.size
    B = np.empty(T)
    variance = np.zeros(T)
    coef = np.zeros(u.size) if need_grad else None
    tcoef = np.zeros(T) if need_grad and scored else None
    for blk, R, P in _grid_blocks(rel, u, thresholds, need_grad):
        means = [_row_sums(R[:, cols], k[cols]) / m for cols, m, _ in groups]
        B[blk] = means[1] - means[0]
        if unbiased:
            for (cols, m, _), mean in zip(groups, means):
                # sum over draws of (R_ji - mean_j)^2 taken as sum_i k_i R_ji^2 - m mean_j^2
                squares = np.einsum("ij,ij,j->i", R[:, cols], R[:, cols], k[cols])
                variance[blk] += (squares - m * mean * mean) / (m - 1) / m
        if not need_grad:
            continue
        w = weights[blk]
        # P is the slope r_s' / s: the factor s rides on these T-vectors
        wdh = rel.scale * w * spec.cost.h_prime(B[blk])
        # each group's variance term has cotangent sum_j v_j (R_ji - mean_j) P_ji per draw
        v = [2.0 * rel.scale / (m * (m - 1)) * w for _, m, _ in groups] if unbiased else (None, None)
        for (cols, m, sign), mean, v_k in zip(groups, means, v):
            along = sign * wdh / m
            if unbiased:
                along = along + v_k * mean  # the -mean_j part; the R_ji part is below
            coef[cols] += along @ P[:, cols]
            if tcoef is not None:
                # thresholds that are scores: r_s'(u_i - t_j) also carries -dt_j
                tcoef[blk] -= along * _row_sums(P[:, cols], k[cols])
        if unbiased:
            R *= P  # R's last use: the grid of R P in place
            for (cols, _, _), v_k in zip(groups, v):
                coef[cols] -= v_k @ R[:, cols]
                if tcoef is not None:
                    tcoef[blk] += v_k * _row_sums(R[:, cols], k[cols])
    hvals = spec.cost.h(B)
    value = float(weights @ hvals)
    if unbiased:
        value -= float(weights @ variance)
    if not need_grad:
        return value, None
    coef *= k  # one draw's cotangent, summed over the draws of the score
    return value, (coef[: u0.size], coef[u0.size :], tcoef, hvals - variance)


def _energy_vstat(S0, S1, k0, k1, need_grad=True):
    """Energy V-statistic of two transformed samples with its cotangents.

    The samples are the distinct values ``S0`` and ``S1`` drawn ``k0`` and
    ``k1`` times (integer counts).  The statistic is ``2 mean|S0_i - S1_j|
    - mean|S0 - S0'| - mean|S1 - S1'|`` over the draws with the diagonals
    included, which equals ``2 int (F0 - F1)^2 dt`` over the empirical
    CDFs.  The value is that integral, summed over the gaps of the merged
    sorted sample, so every term is nonnegative.  The cotangent of a draw of
    ``S_i`` is its sign sums ``sum_j sign(S_i - S'_j)`` over the draws of
    the other group and of its own, scaled by the pair count, and ``S_i``'s
    cotangent is that times its count.  Each sign sum is the integer count
    of that group's draws below ``S_i``'s run of ties in the same sorted
    sample, less the count above it, so a tie counts 0, as in ``np.sign``.
    Time O(n log n) for the one sort, memory O(n0 + n1) in distinct values.
    """
    d0 = S0.size
    m0, m1 = int(k0.sum()), int(k1.sum())
    merged = np.concatenate((S0, S1))
    order = np.argsort(merged)
    merged = merged[order]
    k = np.concatenate((k0, k1))[order]
    in0 = order < d0
    # each group's draws before each sorted position, and before the end
    before0 = np.zeros(merged.size + 1, k.dtype)
    np.cumsum(np.where(in0, k, 0), out=before0[1:])
    before1 = np.zeros(merged.size + 1, k.dtype)
    np.cumsum(np.where(in0, 0, k), out=before1[1:])
    # F0 - F1 on [merged_k, merged_k+1); inside a run of ties the width is 0,
    # so the order among them is moot
    gap = before0[1:-1] / m0 - before1[1:-1] / m1
    value = 2.0 * float(np.sum(gap * gap * (merged[1:] - merged[:-1])))
    if not need_grad:
        return value, None
    # the bounds of each run of ties: a group's draws below a run, before[start],
    # less those above it, m - before[end]
    first = np.empty(merged.size + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:-1])
    bounds = np.flatnonzero(first)
    at0, at1 = before0[bounds], before1[bounds]
    sums0 = at0[:-1] + at0[1:] - m0
    sums1 = at1[:-1] + at1[1:] - m1
    # each score's run, scattered back from the sorted positions
    run = np.empty(merged.size, np.intp)
    run[order] = np.repeat(np.arange(bounds.size - 1), bounds[1:] - bounds[:-1])
    run0, run1 = run[:d0], run[d0:]
    c0 = k0 * ((2.0 / (m0 * m1)) * sums1[run0] - (2.0 / (m0 * m0)) * sums0[run0])
    c1 = k1 * ((2.0 / (m0 * m1)) * sums0[run1] - (2.0 / (m1 * m1)) * sums1[run1])
    return value, (c0, c1)


_MIN_BANDWIDTH = 1e-9


def _silverman_bandwidth(samples, counts):
    """Silverman's rule on the distinct ``samples`` drawn ``counts`` times,
    with the draws' mean and unbiased variance it reads: ``(bw, mean,
    var)``."""
    n = int(counts.sum())
    mean = float(counts @ samples) / n
    var = float(counts @ np.square(samples - mean)) / (n - 1) if n > 1 else 0.0
    bw = 1.06 * math.sqrt(var) * n ** (-0.2)
    return max(bw, _MIN_BANDWIDTH), mean, var


def _estimate(spec, rng, need_grad, scores, counts):
    """The selected estimator on the distinct link-space scores of group 0,
    group 1 and the pool (the last is absent for the variants that read
    none), each drawn ``counts`` times.  Returns the value and, with
    ``need_grad``, one cotangent array per score vector, summed over each
    score's draws."""
    T, dt = spec.grid_shape()
    (u0, u1, *pool), (k0, k1, *pool_counts) = scores, counts

    if spec.variant == "threshold-mc":
        gen = rng if rng is not None else np.random.default_rng(spec.rng_seed)
        thresholds, weights = gen.random(T), np.full(T, 1.0 / T)
    elif spec.variant == "threshold-discrete":
        thresholds, weights = dt * np.arange(1, T + 1), np.full(T, dt)
    elif spec.variant == "threshold-discrete-trapezoid":
        thresholds, weights = dt * np.arange(0, T + 1), np.full(T + 1, dt)
        weights[0] = weights[-1] = dt / 2.0
    if spec.variant.startswith("threshold-"):
        value, cot = _threshold_average(spec, u0, u1, k0, k1, thresholds, weights, need_grad)
        return value, cot and cot[:2]

    if spec.variant == "energy":
        # the uniform(0, 1) CDF clips the scores: slope 1 inside, 0 outside
        value, cot = _energy_vstat(np.clip(u0, 0.0, 1.0), np.clip(u1, 0.0, 1.0), k0, k1, need_grad)
        return value, cot and tuple(c * ((u > 0.0) & (u < 1.0)) for c, u in zip(cot, (u0, u1)))

    # the pool: each distinct score weighs its share of the pool's draws
    (up,), (kp,) = pool, pool_counts
    share = kp / kp.sum()
    if spec.variant == "invariant-mc":
        value, cot = _threshold_average(spec, u0, u1, k0, k1, up, share, need_grad, scored=True)
        return value, cot and cot[:3]

    if spec.variant == "invariant-kde-discrete":
        thresholds = dt * np.arange(1, T + 1)
        if spec.kde_bandwidth is None:
            bw, mean, var = _silverman_bandwidth(up, kp)
        else:
            bw = spec.kde_bandwidth
        z = (thresholds[:, None] - up[None, :]) / bw
        kern = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        rho = (kern @ share) / bw
        value, cot = _threshold_average(spec, u0, u1, k0, k1, thresholds, dt * rho, need_grad)
        if cot is None:
            return value, None
        c0, c1, _, cw = cot
        # weight dt rho(t_j) through the kernel: d/d up_l = dt share_l K(z_jl) z_jl / bw^2
        cp = dt * (cw @ (kern * z)) * share / (bw * bw)
        if spec.kde_bandwidth is None and bw > _MIN_BANDWIDTH:
            # and through Silverman's bw = c sd(up): d rho_j / d bw = sum_l share_l K(z_jl) (z_jl^2 - 1) / bw^2
            # and d bw / d up_l = k_l (bw / sd) (up_l - mean) / ((draws - 1) sd)
            d_bw = dt * (cw @ ((kern * (z * z - 1.0)) @ share)) / (bw * bw)
            cp += d_bw * bw * kp * (up - mean) / ((kp.sum() - 1) * var)
        return value, (c0, c1, cp)

    # invariant-energy-relaxed: push the group scores through the relaxed
    # pooled CDF S_i = 1 - sum_l share_l r_s(up_l - u_i) of the pool sample,
    # then take the V-statistic.  The grid of distinct group scores against
    # distinct pool scores is formed a block of group rows at a time, and
    # again for the cotangents of u and up, which need those of S first
    rel = spec.relaxation
    S = [np.empty(u.size) for u in (u0, u1)]
    for S_k, u in zip(S, (u0, u1)):
        for blk, R, _ in _grid_blocks(rel, up, u, False):
            S_k[blk] = 1.0 - _row_sums(R, share)
    value, cot = _energy_vstat(*S, k0, k1, need_grad)
    if cot is None:
        return value, None
    cp = np.zeros(up.size)
    cu = [np.empty(u.size) for u in (u0, u1)]
    for c_k, cS, u in zip(cu, cot, (u0, u1)):
        cS = rel.scale * cS  # the factor s of the slope P
        for blk, _, P in _grid_blocks(rel, up, u, True):
            c_k[blk] = cS[blk] * _row_sums(P, share)
            cp -= cS[blk] @ P
    return value, (cu[0], cu[1], cp * share)


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
    the spec seed for Monte Carlo threshold draws.  Each part of the batch
    (group 0, group 1 and, for the invariant variants, the pool) is a
    multiset of rows: it is reduced to its distinct rows and their counts,
    and the estimator weighs each distinct row by its count.  The distinct
    rows of every part are scored in one family call, and the estimator's
    score-space cotangents, one per distinct row summed over its draws, are
    pulled back to theta once.  With ``need_grad=False`` the gradient slot
    is None (snapshot scoring skips the cotangents).  A row index at or
    past ``family.n_records`` in a part the variant reads raises a
    ValueError naming the part.
    """
    names = ["group0", "group1"]
    if spec.variant in _POOL_VARIANTS:
        if batch.pool is None or batch.pool.size == 0:
            raise ValueError(f"{spec.variant} needs a pool sample in the batch")
        names.append("pool")
    distinct, counts = zip(*(batch.multiset(name) for name in names))
    for name, rows in zip(names, distinct):
        row_indices(rows[-1:], name, family.n_records)  # a part's last distinct row is its largest
    rows = np.concatenate(distinct)
    if need_grad:
        u, pullback = family.scores_and_grad(theta, rows)
    else:
        u = family.scores(theta, rows)
    scores = np.split(u, np.cumsum([d.size for d in distinct[:-1]]))
    value, cot = _estimate(spec, rng, need_grad, scores, counts)
    if not need_grad:
        return value, None
    return value, pullback(np.concatenate(cot))
