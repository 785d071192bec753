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
                          O(n log n), never from the n0 x n1 gap matrix.
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import CostFunction, EmpiricalDistribution
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
# bounded whatever the threshold or pool count, and a block's few matrices
# stay in cache and are reused by the allocator
_GRID_CELLS = 1 << 16


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


def b_hat(family, theta, group_index_sets, t: float, relaxation: RelaxationFamily):
    """Relaxed CDF-gap statistic at one threshold, on link-space family scores.

    Value is ``mean_{group 1} r_s(u - t) - mean_{group 0} r_s(u - t)`` with
    ``u`` the family's link-space score (a probability under the logistic
    link); always in [-1, 1].  The gradient is exact: each score's cotangent
    is ``+-r_s'(u_i - t) / m_k``, pulled back by the family.
    """
    idx0, idx1 = (np.asarray(ix, dtype=np.intp).ravel() for ix in group_index_sets)
    if idx0.size == 0 or idx1.size == 0:
        raise ValueError("both groups must be nonempty in the batch")
    u, pullback = family.scores_and_grad(theta, np.concatenate((idx0, idx1)))
    (R,), (P,) = relaxation.grid(u, [t], need_prime=True)
    m0 = idx0.size
    value = R[m0:].mean() - R[:m0].mean()
    return float(value), pullback(np.concatenate((-P[:m0] / m0, P[m0:] / idx1.size)))


def _threshold_average(spec, u0, u1, thresholds, weights, need_grad=True, scored=False):
    """``sum_j w_j h(B_hat(t_j))``, less the unbiased variance terms when
    ``spec.unbiased``, on the group scores ``u0`` and ``u1``.

    Returns the value and, with ``need_grad``, its cotangents ``(c0, c1, ct,
    cw)``: one per score of each group, one per threshold (None unless
    ``scored``, i.e. the thresholds are themselves scores) and one per
    weight.  The grid is formed in blocks of thresholds of about _GRID_CELLS
    cells, so memory is bounded for any threshold count; each threshold's
    row reductions do not depend on the blocking.
    """
    rel, unbiased = spec.relaxation, spec.unbiased
    groups = (u0, u1)
    if unbiased and min(u.size for u in groups) < 2:
        raise ValueError("unbiased square correction needs at least two records per group")
    T = thresholds.size
    B = np.empty(T)
    variance = np.zeros(T)
    coefs = [np.zeros(u.size) for u in groups] if need_grad else None
    tcoef = np.zeros(T) if need_grad and scored else None
    step = max(1, _GRID_CELLS // max(u.size for u in groups))
    for lo in range(0, T, step):
        blk = slice(lo, lo + step)
        grids = [rel.grid(u, thresholds[blk], need_grad) for u in groups]
        means = [R.mean(axis=1) for R, _ in grids]
        B[blk] = means[1] - means[0]
        w = weights[blk]
        wdh = w * spec.cost.h_prime(B[blk]) if need_grad else None
        for k, sign in ((0, -1.0), (1, 1.0)):
            R, P = grids[k]
            grids[k] = None  # each group's matrices go as soon as its terms are read
            m = R.shape[1]
            if need_grad:
                coefs[k] += sign * (wdh @ P) / m
                if tcoef is not None:
                    # thresholds that are scores: r_s'(u_i - t_j) also carries -dt_j
                    tcoef[blk] -= sign * wdh * P.mean(axis=1)
            if unbiased:
                R -= means[k][:, None]
                variance[blk] += np.einsum("ij,ij->i", R, R) / (m - 1) / m
                if need_grad:
                    R *= P
                    scale = 2.0 / (m * (m - 1))
                    coefs[k] -= scale * (w @ R)
                    if tcoef is not None:
                        tcoef[blk] += scale * w * R.sum(axis=1)
            del R, P
    hvals = spec.cost.h(B)
    value = float(weights @ hvals)
    if unbiased:
        value -= float(weights @ variance)
    if not need_grad:
        return value, None
    return value, (coefs[0], coefs[1], tcoef, hvals - variance)


def _sign_sums(S, sorted_other):
    """``sum_j sign(S_i - other_j)`` for every i, as the integer count
    ``#{other < S_i} - #{other > S_i}`` read from the sorted other sample;
    a tie counts 0, as it does in ``np.sign``."""
    below = np.searchsorted(sorted_other, S, side="left")
    above = sorted_other.size - np.searchsorted(sorted_other, S, side="right")
    return below - above


def _energy_vstat(S0, S1, need_grad=True):
    """Energy V-statistic of two transformed samples with its cotangents.

    ``2 mean|S0_i - S1_j| - mean|S0 - S0'| - mean|S1 - S1'|`` with the
    diagonals included, which equals ``2 int (F0 - F1)^2 dt`` over the
    empirical CDFs.  The value is that integral, summed over the gaps of the
    merged sorted sample, so every term is nonnegative.  The cotangent of
    ``S_i`` is its sign sums ``sum_j sign(S_i - S'_j)`` against the other
    group and its own, each counted from a sorted sample and scaled by the
    pair count.  Time O(n log n), memory O(n0 + n1).
    """
    m0, m1 = S0.size, S1.size
    merged = np.concatenate((S0, S1))
    order = np.argsort(merged)
    merged = merged[order]
    in0 = order < m0
    # F0 - F1 on [merged_k, merged_k+1) from the counts of each group so far;
    # inside a run of ties the width is 0, so the order among them is moot
    n0 = np.cumsum(in0)[:-1]
    n1 = np.arange(1, m0 + m1) - n0
    gap = n0 / m0 - n1 / m1
    value = 2.0 * float(np.sum(gap * gap * np.diff(merged)))
    if not need_grad:
        return value, None
    sorted0, sorted1 = merged[in0], merged[~in0]
    c0 = (2.0 / (m0 * m1)) * _sign_sums(S0, sorted1) - (2.0 / (m0 * m0)) * _sign_sums(S0, sorted0)
    c1 = (2.0 / (m0 * m1)) * _sign_sums(S1, sorted0) - (2.0 / (m1 * m1)) * _sign_sums(S1, sorted1)
    return value, (c0, c1)


def _pool_grid_blocks(rel, up, u, need_prime):
    """``(block, R, P)`` of the (rows, pool) grid ``r_s(up_l - u_i)``, a block
    of about _GRID_CELLS cells of rows of ``u`` at a time."""
    step = max(1, _GRID_CELLS // up.size)
    for lo in range(0, u.size, step):
        blk = slice(lo, lo + step)
        yield (blk, *rel.grid(up, u[blk], need_prime))


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
        for blk, R, _ in _pool_grid_blocks(rel, up, u, False):
            S_k[blk] = 1.0 - R.mean(axis=1)
    value, cot = _energy_vstat(*S, need_grad)
    if cot is None:
        return value, None
    cp = np.zeros(up.size)
    cu = [np.empty(u.size) for u in (u0, u1)]
    for c_k, cS, u in zip(cu, cot, (u0, u1)):
        for blk, _, P in _pool_grid_blocks(rel, up, u, True):
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


# ---------------------------------------------------------------------------
# Rate probe: empirical mean-squared-error ladders against the exact relaxed
# bias of a known atomic population.  Uses the ramp relaxation, for which
# both the estimator (via prefix sums) and the population integral (piecewise
# linear segments) evaluate exactly without dense threshold-by-score grids.
# ---------------------------------------------------------------------------


def _ramp_prefix(dist: EmpiricalDistribution):
    w = np.concatenate(([0.0], np.cumsum(dist.weights)))
    wv = np.concatenate(([0.0], np.cumsum(dist.weights * dist.values)))
    return w, wv


def _ramp_mean(values, w_prefix, wv_prefix, t, s):
    """mean/weighted-mean of ramp r_s(z - t) for sorted atoms, vector t."""
    t = np.asarray(t, dtype=float)
    hi = np.searchsorted(values, t + 1.0 / s, side="left")
    lo = np.searchsorted(values, t, side="right")
    full = w_prefix[-1] - w_prefix[hi]
    win_w = w_prefix[hi] - w_prefix[lo]
    win_wv = wv_prefix[hi] - wv_prefix[lo]
    return full + s * (win_wv - t * win_w)


def relaxed_gap_curve(pop0: EmpiricalDistribution, pop1: EmpiricalDistribution, s: float):
    """Population relaxed CDF gap B_s(t) as a fast callable (ramp family)."""
    w0, wv0 = _ramp_prefix(pop0)
    w1, wv1 = _ramp_prefix(pop1)

    def gap(t):
        return _ramp_mean(pop1.values, w1, wv1, t, s) - _ramp_mean(pop0.values, w0, wv0, t, s)

    return gap


def exact_relaxed_bias_uniform(
    pop0: EmpiricalDistribution,
    pop1: EmpiricalDistribution,
    s: float,
    cost: CostFunction,
) -> float:
    """Exact integral over [0, 1] of h(B_s(t)) for the ramp relaxation.

    B_s is piecewise linear with breakpoints at every atom z and at z - 1/s,
    so the integral reduces to closed forms per segment: exact Simpson for
    the square cost, root-splitting for the absolute cost.
    """
    if not cost.is_h_form:
        raise ValueError("requires an abs or square cost")
    gap = relaxed_gap_curve(pop0, pop1, s)
    atoms = np.concatenate((pop0.values, pop1.values))
    bps = np.concatenate((atoms, atoms - 1.0 / s, [0.0, 1.0]))
    bps = np.unique(np.clip(bps, 0.0, 1.0))
    a, b = bps[:-1], bps[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    Ba, Bb = gap(a), gap(b)
    seg = b - a
    if cost.kind == "square":
        Bm = gap((a + b) / 2.0)
        return float(np.sum(seg / 6.0 * (Ba * Ba + 4.0 * Bm * Bm + Bb * Bb)))
    same_sign = Ba * Bb >= 0.0
    trap = seg * (np.abs(Ba) + np.abs(Bb)) / 2.0
    denom = np.abs(Ba) + np.abs(Bb)
    denom = np.where(denom == 0.0, 1.0, denom)
    t_cross = a + seg * np.abs(Ba) / denom
    split = (np.abs(Ba) * (t_cross - a) + np.abs(Bb) * (b - t_cross)) / 2.0
    return float(np.sum(np.where(same_sign, trap, split)))


def discrete_grid_value(pop0, pop1, s: float, cost: CostFunction, T: int) -> float:
    """Population rectangle-rule value on the uniform grid (no sampling)."""
    gap = relaxed_gap_curve(pop0, pop1, s)
    grid = (np.arange(T) + 1.0) / T
    return float(np.mean(cost.h(gap(grid))))


def estimator_rate_probe(
    spec: BiasEstimatorSpec,
    pop0: EmpiricalDistribution,
    pop1: EmpiricalDistribution,
    t_ladder,
    n_reps: int = 200,
    seed: int = 0,
    coupling: float = 1.0,
):
    """Empirical MSE ladder for the Monte Carlo and grid threshold estimators.

    For each threshold count T in the ladder the per-group sample size m is
    coupled to T the way the convergence analysis prescribes: m = T/c for the
    Monte Carlo variant and m = (T / (c (1+s)))**2 for the grid variant.
    Ground truth is the exact relaxed bias of the atomic populations.
    Returns one row dict (m, T, s, mse) per ladder entry.
    """
    if spec.variant not in ("threshold-mc", "threshold-discrete"):
        raise ValueError("rate probe covers threshold-mc and threshold-discrete")
    if spec.relaxation.kind != "ramp":
        raise ValueError("rate probe uses the ramp relaxation")
    for pop in (pop0, pop1):
        if pop.values[0] < 0.0 or pop.values[-1] > 1.0:
            raise ValueError("populations must be supported in [0, 1]")
    s = spec.relaxation.scale
    truth = exact_relaxed_bias_uniform(pop0, pop1, s, spec.cost)
    rng = np.random.default_rng(seed)
    rows = []
    for T in t_ladder:
        T = int(T)
        if spec.variant == "threshold-mc":
            m = max(2, int(round(T / coupling)))
        else:
            m = max(2, int(round((T / (coupling * (1.0 + s))) ** 2)))
        errs = np.empty(n_reps)
        uniform = np.full(m, 1.0 / m)
        for rep in range(n_reps):
            z0 = np.sort(pop0.sample(rng, m))
            z1 = np.sort(pop1.sample(rng, m))
            w0 = np.concatenate(([0.0], np.cumsum(uniform)))
            wv0 = np.concatenate(([0.0], np.cumsum(uniform * z0)))
            w1 = np.concatenate(([0.0], np.cumsum(uniform)))
            wv1 = np.concatenate(([0.0], np.cumsum(uniform * z1)))
            if spec.variant == "threshold-mc":
                ts = rng.random(T)
            else:
                ts = (np.arange(T) + 1.0) / T
            bhat = _ramp_mean(z1, w1, wv1, ts, s) - _ramp_mean(z0, w0, wv0, ts, s)
            errs[rep] = np.mean(spec.cost.h(bhat)) - truth
        rows.append({"m": m, "T": T, "s": s, "mse": float(np.mean(errs * errs))})
    return rows


def fit_loglog_slope(rows, x_key="T", y_key="mse") -> float:
    """Least-squares slope of log(y) against log(x) over the probe rows."""
    x = np.log([row[x_key] for row in rows])
    y = np.log([row[y_key] for row in rows])
    return float(np.polyfit(x, y, 1)[0])


def grid_bias_ladder(
    s_values,
    T: int,
    cost: CostFunction,
    n_dists: int = 40,
    n_atoms: int = 6,
    seed: int = 0,
):
    """Mean deterministic grid error over random atomic populations, per scale.

    Isolates the discretization bias term of the grid estimator: no sampling,
    the populations themselves are evaluated on the grid and compared with
    the exact relaxed bias.  Averaging over distributions removes the
    aliasing between atoms and grid points that makes single-draw errors
    oscillate in s.
    """
    rng = np.random.default_rng(seed)
    pops = []
    for _ in range(n_dists):
        pops.append(
            (
                EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, n_atoms)),
                EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, n_atoms)),
            )
        )
    out = []
    for s in s_values:
        errs = [
            abs(discrete_grid_value(p0, p1, s, cost, T) - exact_relaxed_bias_uniform(p0, p1, s, cost))
            for p0, p1 in pops
        ]
        out.append({"s": float(s), "T": T, "mean_abs_bias": float(np.mean(errs))})
    return out
