"""Reference implementations that the tests compare the package against.

None of these runs in the pipeline.  They are exact or brute-force forms of
quantities the package computes another way, or probes of an estimator's
statistical behaviour:

* the rate probe: empirical mean-squared-error ladders of the Monte Carlo and
  grid threshold estimators against the exact relaxed bias of a known atomic
  population (acceptance criterion 3), with inverse-CDF ``sample``;
* ``transport_cost``, ``classifier_bias`` and ``relaxed_cdf``: the monotone
  transport cost, the single-threshold bias and the relaxed empirical CDF;
* ``reference_wasserstein1``: W1 with each quantile binary-searched on the
  sorted union of both weight grids, the reference for the merge in
  ``wasserstein1``;
* ``r_and_prime``: a relaxation and its derivative pointwise, the reference
  for ``RelaxationFamily.grid_writer``;
* ``reference_score_metrics``: a candidate's exact metric block composed
  metric by metric, each sorting its own sample: ``snap_to_pooled`` (group
  scores read as their pooled atoms), ``from_samples`` per distribution,
  ``rank_auc`` (from ``_midranks``, scipy's average ranks), ``ks_distance``
  (the Kolmogorov-Smirnov distance on the merged atoms), with
  ``reference_invariant_bias`` and ``transformed_group_w1`` (which also
  takes the right-continuous transform); the reference for the one-sort
  ``score_metrics``;
* ``frontier_value`` and ``embedded_svg_table``: reading a frontier at a bias
  budget, and the data table a frontier SVG embeds;
* ``enumerated_marginal_shapley``: marginal Shapley values of any predict
  function by enumerating all 2^n coalitions, the reference for TreeSHAP,
  with the reference expectation, as an ``ExplanationSet``;
* ``reconstruct_explanations``: the explanations of a linear family member
  from those of the base model and of each encoder column,
  E(f_theta) = E(f*) - sum_j theta_j E(w_j);
* ``per_cell_csv``: a dataset's CSV written one cell and one row at a time,
  the reference for the block writer ``save_csv``;
* ``whole_matrix_tree_pca``: the tree-pca state from the whole records x
  trees matrix, the reference for the streamed moments of
  ``tree_pca_encoders``; its eigenpairs come from ``eigh_top_eigenpairs``,
  the full ``np.linalg.eigh`` that is the reference for the subspace
  iteration of ``encoders._top_eigenpairs``.

``GENERAL_GBDT`` is not a reference but a setting: the general-purpose
boosting parameters the unit tests fit their small models with, where the
library's default is the pipeline's base model.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from fairfront._util import cross_entropy, fmt_float
from fairfront.bias_metrics import GroupedScores, _atom_index, _require_two_groups
from fairfront.distributions import ABS, CostFunction, EmpiricalDistribution, wasserstein1
from fairfront.estimators import BiasEstimatorSpec
from fairfront.frontier import _auc, _class_counts, _sorted_midranks
from fairfront.gbdt import GBDTParams, per_tree_outputs
from fairfront.relaxation import RelaxationFamily

GENERAL_GBDT = GBDTParams(depth=4, rounds=300, learning_rate=0.08, min_leaf=16.0, early_stop_rounds=25)


def sample(dist: EmpiricalDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Inverse-CDF sampling of ``n`` draws."""
    u = rng.random(n)
    return dist.quantile(np.clip(u, np.finfo(float).tiny, 1.0))


def _merged_levels(d0: EmpiricalDistribution, d1: EmpiricalDistribution):
    """Union of both cumulative-weight grids; quantiles are constant between
    consecutive levels, so integrals over p reduce to finite sums."""
    ps = np.union1d(d0.cum_weights, d1.cum_weights)
    widths = np.diff(np.concatenate(([0.0], ps)))
    return ps, widths


def reference_wasserstein1(d0: EmpiricalDistribution, d1: EmpiricalDistribution) -> float:
    """W1 on the sorted union of both cumulative-weight grids, each quantile
    binary-searched: the reference for the merge in ``wasserstein1``."""
    ps, widths = _merged_levels(d0, d1)
    gap = d0.quantile(ps) - d1.quantile(ps)
    return float(np.sum(widths * np.abs(gap)))


def transport_cost(d0: EmpiricalDistribution, d1: EmpiricalDistribution, h: CostFunction) -> float:
    """Minimal transport cost for a convex difference cost ``h``.

    The monotone (quantile) coupling is optimal in one dimension, so the cost
    is the exact integral of ``h`` over the quantile gap.
    """
    if not h.is_h_form:
        raise ValueError("transport cost requires an abs or square cost")
    ps, widths = _merged_levels(d0, d1)
    gap = d0.quantile(ps) - d1.quantile(ps)
    return float(np.sum(widths * h.h(gap)))


def classifier_bias(g: GroupedScores, t: float, c: CostFunction = ABS) -> float:
    """Cost between group acceptance rates at threshold ``t``.

    A record is accepted when its score exceeds ``t``, so the rates are
    ``1 - F_k(t)``.
    """
    _require_two_groups(g)
    r0 = 1.0 - g.distribution(0).cdf(t)
    r1 = 1.0 - g.distribution(1).cdf(t)
    return float(c.value(r0, r1))


def r_and_prime(family: RelaxationFamily, z):
    """``r_s(z)`` and its derivative ``r_s'(z)``, pointwise; the derivative
    reuses the value."""
    r = family.r(z)
    s = family.scale
    if family.kind == "ramp":
        return r, np.where((r > 0.0) & (r < 1.0), s, 0.0)
    return r, s * r * (1.0 - r)


def relaxed_cdf(scores, t, family: RelaxationFamily):
    """Relaxed CDF ``1 - mean_i r_s(z_i - t)`` at thresholds ``t``.

    Nondecreasing and Lipschitz in ``t`` with the family's constant; converges
    to the empirical CDF as the scale grows (at atoms the ramp converges to
    F(t) while the plain logistic converges to F(t) - P(Z=t)/2).
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size == 0:
        raise ValueError("empty scores")
    t = np.asarray(t, dtype=float)
    vals = 1.0 - family.grid_writer(scores)(t, np.empty((t.size, scores.size)))[0].mean(axis=1)
    return float(vals[0]) if t.ndim == 0 else vals


def transformed_group_w1(g: GroupedScores, pooled: EmpiricalDistribution, left: bool = True) -> float:
    """W1 between the group scores pushed through the pooled CDF.

    ``left=True`` uses the left-continuous realization of the pooled CDF,
    which is the transform that stays consistent with threshold averaging
    when the pooled distribution has atoms.
    """
    transform = pooled.left_cdf if left else pooled.cdf
    t0 = EmpiricalDistribution.from_samples(transform(g.scores_by_group[0]))
    t1 = EmpiricalDistribution.from_samples(transform(g.scores_by_group[1]))
    return wasserstein1(t0, t1)


def reference_invariant_bias(g: GroupedScores, pooled: EmpiricalDistribution) -> float:
    """The invariant bias by its two paths on the snapped scores, each
    distribution sorted from its samples: the threshold average of |F0 - F1|
    against ``pooled`` and the W1 distance after the left-continuous
    pooled-CDF transform, cross-checked to 1e-10."""
    _require_two_groups(g)
    g = snap_to_pooled(g, pooled)
    d0, d1 = g.distribution(0), g.distribution(1)
    threshold_path = float(np.sum(pooled.weights * np.abs(d0.cdf(pooled.values) - d1.cdf(pooled.values))))
    transform_path = transformed_group_w1(g, pooled, left=True)
    if abs(threshold_path - transform_path) > 1e-10:
        raise AssertionError(f"paths disagree: {threshold_path!r} vs {transform_path!r}")
    return transform_path


def snap_to_pooled(g: GroupedScores, pooled: EmpiricalDistribution) -> GroupedScores:
    """``g`` with each score read as the pooled atom it was merged into, the
    largest atom of ``pooled`` at or below it.

    Where scores crowd within ``MERGE_TOL``, each group's own merge would keep
    another representative than the pool's; snapped, every group sees the
    pooled atoms.  Where no two distinct scores lie that close, every score
    is its own atom and nothing moves.
    """
    return GroupedScores(tuple(pooled.values[_atom_index(pooled, s)] for s in g.scores_by_group), g.group_probs)


def ks_distance(d0: EmpiricalDistribution, d1: EmpiricalDistribution) -> float:
    """Kolmogorov-Smirnov distance: sup over breakpoints of |F0 - F1|."""
    grid = np.union1d(d0.values, d1.values)
    return float(np.max(np.abs(d0.cdf(grid) - d1.cdf(grid))))


def _midranks(values) -> np.ndarray:
    """1-based ranks of ``values`` with each tie group given its mean rank
    (``scipy.stats.rankdata(method="average")``); NaN anywhere makes every
    rank NaN."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    ranks[order] = _sorted_midranks(values[order])
    return ranks


def rank_auc(scores, labels) -> float:
    """Probability a positive outranks a negative, with midrank ties."""
    counts = _class_counts(labels)
    return _auc(_midranks(scores), *counts)


def reference_score_metrics(probs, labels, groups) -> dict:
    """A candidate's exact metric block, one metric at a time."""
    g = GroupedScores.from_labels(probs, groups)
    pooled = g.pooled()
    snapped = snap_to_pooled(g, pooled)
    return {
        "ce": cross_entropy(probs, labels),
        "auc": rank_auc(probs, labels),
        "w1_bias": wasserstein1(g.distribution(0), g.distribution(1)),
        "ks_bias": ks_distance(snapped.distribution(0), snapped.distribution(1)),
        "inv_bias": reference_invariant_bias(g, pooled),
    }


def frontier_value(points, bias_axis: str, perf_axis: str, budget: float) -> float:
    """Best loss achievable within a bias budget; inf when unreachable."""
    feasible = [getattr(p, perf_axis) for p in points if getattr(p, bias_axis) <= budget]
    return min(feasible) if feasible else np.inf


def embedded_svg_table(path) -> str:
    """The data table embedded in a frontier SVG (for comparisons)."""
    with open(path) as fh:
        text = fh.read()
    start = text.index("<!--DATA\n") + len("<!--DATA\n")
    end = text.index("\nDATA-->")
    return text[start:end]


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
            z0 = np.sort(sample(pop0, rng, m))
            z1 = np.sort(sample(pop1, rng, m))
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


@dataclass
class ExplanationSet:
    """Per-record, per-feature attributions plus the reference expectation."""

    values: np.ndarray   # (records, features)
    reference: float

    def totals(self) -> np.ndarray:
        return self.values.sum(axis=1)


EXACT_SHAPLEY_MAX_FEATURES = 16
# records explained at once; each coalition forms a (records x background x features) hybrid
_SHAPLEY_CHUNK = 64


def enumerated_marginal_shapley(predict, X, background) -> ExplanationSet:
    """Exact Shapley attributions of the marginal-expectation game.

    The game value of a coalition S at record x is the background average of
    the model with the S-features pinned to x.  All 2^n coalitions are
    enumerated, so the feature count is capped at 16.
    """
    X = np.asarray(X, dtype=float)
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a nonempty record matrix")
    n = X.shape[1]
    if n > EXACT_SHAPLEY_MAX_FEATURES:
        raise ValueError(f"{n} features exceed the exact enumeration cap of {EXACT_SHAPLEY_MAX_FEATURES}")
    n_subsets = 1 << n
    reference = float(np.mean(predict(background)))
    weights = np.array([math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n) for k in range(n)])
    phi = np.zeros((X.shape[0], n))
    for start in range(0, X.shape[0], _SHAPLEY_CHUNK):
        rows = slice(start, start + _SHAPLEY_CHUNK)
        Xc = X[rows]
        c = Xc.shape[0]
        v = np.empty((c, n_subsets))
        for mask in range(n_subsets):
            if mask == 0:
                v[:, 0] = reference
                continue
            s_idx = [i for i in range(n) if mask >> i & 1]
            hybrid = np.broadcast_to(background, (c,) + background.shape).copy()
            hybrid[:, :, s_idx] = Xc[:, None, s_idx]
            v[:, mask] = predict(hybrid.reshape(-1, n)).reshape(c, -1).mean(axis=1)
        for i in range(n):
            for mask in range(n_subsets):
                if mask >> i & 1:
                    continue
                size = bin(mask).count("1")
                phi[rows, i] += weights[size] * (v[:, mask | (1 << i)] - v[:, mask])
    return ExplanationSet(phi, reference)


def reconstruct_explanations(base: ExplanationSet, encoder_expl, theta) -> ExplanationSet:
    """Explanations of a family member from precomputed parts.

    E(x; f_theta) = E(x; f_*) - sum_j theta_j E(x; w_j), with theta_0
    shifting only the reference expectation.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size != len(encoder_expl) + 1:
        raise ValueError("theta must have one entry per encoder column")
    values = base.values.copy()
    reference = base.reference - float(theta[0])
    for coef, expl in zip(theta[1:], encoder_expl):
        if expl.values.shape != base.values.shape:
            raise ValueError("explanation shapes disagree")
        values -= coef * expl.values
        reference -= coef * expl.reference
    return ExplanationSet(values, reference)


def per_cell_csv(dataset, path, label_column="label", group_column="group"):
    """``dataset`` as a CSV through ``csv.writer``, row by row: each feature
    cell ``fmt_float``'d, a NaN one empty, the label and group as integers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + [label_column, group_column])
        for i in range(dataset.n_records):
            row = ["" if np.isnan(v) else fmt_float(v) for v in dataset.X[i]]
            writer.writerow(row + [str(int(dataset.y[i])), str(int(dataset.g[i]))])


def whole_matrix_tree_pca(ensemble, X, r, row_cap) -> dict:
    """The tree-pca state (kept trees, their means, the top-r eigenvalues
    and sign-fixed loadings) of the records ``X``, thinned to ``row_cap``
    evenly spaced rows, from their whole per-tree output matrix: variances,
    means, the centred copy and its covariance, each formed at once."""
    outputs = per_tree_outputs(ensemble, np.asarray(X, dtype=float))
    if outputs.shape[0] > row_cap:
        outputs = outputs[np.linspace(0, outputs.shape[0] - 1, row_cap).astype(np.intp)]
    kept = np.flatnonzero(outputs.var(axis=0) > 1e-15)
    sub = outputs[:, kept]
    means = sub.mean(axis=0)
    centered = sub - means
    cov = centered.T @ centered / max(sub.shape[0] - 1, 1)
    eigenvalues, loadings = eigh_top_eigenpairs(cov, r)
    flip = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(r)] < 0
    loadings[:, flip] *= -1.0
    return {"kept_trees": kept, "tree_means": means, "eigenvalues": eigenvalues, "loadings": loadings}


def eigh_top_eigenpairs(cov, r):
    """The r largest eigenvalues of the symmetric ``cov``, in descending
    order, and their unit eigenvectors, from the full ``np.linalg.eigh``."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:r]
    return eigvals[order], eigvecs[:, order]
