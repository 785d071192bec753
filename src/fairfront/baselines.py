"""Comparison post-processors: random-search predictor rescaling and the
explainable optimal-transport projection.

Rescaling compresses selected numeric predictors toward an anchor point and
scores each sampled transformation under the exact penalized objective.  The
transport route first replaces each group's score distribution with the
probability-weighted quantile mixture of all groups (which needs the group
label), then projects the label away by regressing the repaired score on the
features alone, one soft-label row per record, and finally exposes a
one-parameter interpolation family between the base and projected models.

Both produce candidates only: their frontiers are scored, like the sweep's,
by ``frontier.evaluate`` from each candidate's probabilities on a split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import cross_entropy
from .bias_metrics import GroupedScores
from .distributions import wasserstein1
from .gbdt import Ensemble, GBDTParams, train

RESCALE_A_BOUNDS = (0.0, 3.0)
ANCHOR_EXTENSION = 0.05
DEFAULT_THETA_GRID = 15
# the OT regressor fits a smooth conditional expectation: deeper trees, small leaves
OT_REGRESSOR_PARAMS = GBDTParams(depth=5, rounds=400, learning_rate=0.1, min_leaf=8.0, early_stop_rounds=0)


def rescale_transform(x, a: float, x_star: float):
    """Linear compression ``a * (x - x_star) + x_star`` toward the anchor."""
    return a * (np.asarray(x, dtype=float) - x_star) + x_star


@dataclass
class RescaleCandidate:
    a: np.ndarray          # per selected feature
    x_star: np.ndarray
    train_ce: float = None
    train_w1: float = None

    def apply(self, X, selected) -> np.ndarray:
        out = np.array(X, dtype=float, copy=True)
        for k, j in enumerate(selected):
            out[:, j] = rescale_transform(out[:, j], self.a[k], self.x_star[k])
        return out


@dataclass
class RescaleSearchResult:
    candidates: list
    best_per_omega: dict = field(default_factory=dict)  # omega -> candidate index
    train_probs: dict = field(default_factory=dict)  # picked candidate index -> its probabilities on X


def random_search_rescaling(
    model: Ensemble,
    X,
    y,
    groups,
    selected_features,
    omegas,
    n_iter: int,
    seed: int = 0,
) -> RescaleSearchResult:
    """Uniform random search over per-feature (a, x*) transformations.

    Candidate 0 is always the identity.  Anchors are drawn around each
    feature's mean, extended by 5% of the distance to the observed min and
    max.  Every candidate is scored with the exact train cross-entropy and
    W1 bias; ``best_per_omega`` holds the first candidate of least
    ``ce + omega * w1``, and ``train_probs`` the probabilities on ``X`` of
    each candidate it holds, so a frontier on ``X`` walks the model no more.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    groups = np.asarray(groups).ravel()
    selected = list(selected_features)
    rng = np.random.default_rng(seed)
    k = len(selected)

    candidates = [RescaleCandidate(np.ones(k), np.zeros(k))] if k else [RescaleCandidate(np.ones(0), np.zeros(0))]
    if k:
        mean = X[:, selected].mean(axis=0)
        lo = X[:, selected].min(axis=0)
        hi = X[:, selected].max(axis=0)
        anchor_lo = mean - ANCHOR_EXTENSION * (mean - lo)
        anchor_hi = mean + ANCHOR_EXTENSION * (hi - mean)
        candidates[0] = RescaleCandidate(np.ones(k), mean.copy())
        for _ in range(int(n_iter)):
            a = rng.uniform(RESCALE_A_BOUNDS[0], RESCALE_A_BOUNDS[1], k)
            x_star = rng.uniform(anchor_lo, anchor_hi)
            candidates.append(RescaleCandidate(a, x_star))

    omegas = np.asarray(omegas, dtype=float).ravel()
    best = [None] * omegas.size  # (objective, index) of each weight's first best candidate so far
    kept = {}
    for i, cand in enumerate(candidates):
        probs = model.predict_proba(cand.apply(X, selected))
        cand.train_ce = cross_entropy(probs, y)
        gs = GroupedScores.from_labels(probs, groups)
        cand.train_w1 = wasserstein1(gs.distribution(0), gs.distribution(1))
        for j, omega in enumerate(omegas):
            objective = cand.train_ce + omega * cand.train_w1
            if best[j] is None or objective < best[j][0]:
                best[j] = (objective, i)
        kept[i] = probs
        picked = {index for _, index in best}
        kept = {index: p for index, p in kept.items() if index in picked}

    return RescaleSearchResult(candidates, {float(o): index for o, (_, index) in zip(omegas, best)}, kept)


def ot_repair(g: GroupedScores) -> list:
    """Replace each record's score by the probability-weighted quantile
    mixture evaluated at its within-group CDF level.

    Returns per-group arrays of repaired scores (group-aware: the map used
    depends on the group label).
    """
    dists = [g.distribution(k) for k in range(g.n_groups)]
    repaired = []
    for k, scores in enumerate(g.scores_by_group):
        levels = dists[k].cdf(scores)
        levels = np.clip(levels, np.finfo(float).tiny, 1.0)
        mixed = np.zeros_like(scores, dtype=float)
        for p, d in zip(g.group_probs, dists):
            mixed += p * d.quantile(levels)
        repaired.append(mixed)
    return repaired


def repair_scores_by_label(scores, groups) -> np.ndarray:
    """ot_repair on a flat score vector, scattered back to record order."""
    scores = np.asarray(scores, dtype=float).ravel()
    groups = np.asarray(groups).ravel()
    g = GroupedScores.from_labels(scores, groups)
    repaired_groups = ot_repair(g)
    out = np.empty_like(scores)
    for k, rep in enumerate(repaired_groups):
        out[groups == k] = rep
    return out


@dataclass
class OtProjection:
    projected_model: Ensemble
    thetas: np.ndarray
    base_probs: np.ndarray  # the base model's probabilities on the records it was fit to

    def candidates(self, base_probs, X):
        """``(t, [t], probs)`` for each t of ``thetas``, the ``(omega, theta,
        probs)`` of ``frontier.evaluate``: ``probs`` is the probability-space
        blend (1 - t) * base + t * projected on the records ``X``, which the
        projected model walks once for all t."""
        base_probs = np.asarray(base_probs, dtype=float)
        projected = self.projected_model.predict_proba(X)
        for t in self.thetas:
            yield t, np.array([t]), (1.0 - t) * base_probs + t * projected


def ot_projection(
    base: Ensemble,
    X,
    groups,
    params: GBDTParams = None,
    thetas=None,
) -> OtProjection:
    """Demographically blind projection of the repaired scores.

    Trains the boosted trees on the features alone with each record's
    repaired probability as its soft label, which regresses the repaired
    probability on the features; the one-parameter family interpolates
    probabilities between the base and projected models.  A repair that
    sends every score to 0, or every one to 1, leaves nothing to regress and
    raises ``ValueError``.
    """
    X = np.asarray(X, dtype=float)
    groups = np.asarray(groups).ravel()
    params = params or OT_REGRESSOR_PARAMS
    if thetas is None:
        thetas = np.linspace(0.0, 1.0, DEFAULT_THETA_GRID)
    base_probs = base.predict_proba(X)
    repaired = repair_scores_by_label(base_probs, groups)
    if np.all(repaired == 0.0) or np.all(repaired == 1.0):
        raise ValueError("degenerate repair: every repaired score is 0, or every one is 1")
    projected = train(X, repaired, params=params)
    return OtProjection(projected, np.asarray(thetas, dtype=float), base_probs)
