"""Exact bias metrics on grouped model scores.

Cost-function bias aggregated over a threshold measure, the atom-aware
distribution-invariant bias, and the weighted multi-attribute extension.
These are the non-relaxed reference metrics: evaluation here is exact
(breakpoint-grid integration), so the stochastic estimators can be validated
against them.

The invariant bias has one implementation, ``_snapped_invariant``, which
takes each group's scores as sorted indices of the pooled atoms and merges
every distribution it needs from values already in sorted order.
``invariant_bias`` finds those indices by a search of the pooled atoms;
``frontier.score_metrics`` reads them from the stable sort that builds the
pooled distribution (``GroupedScores._pooled_sort``), along with everything
else it scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import CostFunction, EmpiricalDistribution, wasserstein1

_PATH_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class GroupedScores:
    """Per-group score samples with group probabilities.

    Group 0 is the majority / non-protected group.  Every group must be
    nonempty and the probabilities must sum to one.
    """

    scores_by_group: tuple
    group_probs: np.ndarray

    def __post_init__(self):
        groups = tuple(np.asarray(s, dtype=float).ravel() for s in self.scores_by_group)
        probs = np.asarray(self.group_probs, dtype=float).ravel()
        if len(groups) < 2:
            raise ValueError("need at least two groups")
        if len(groups) != probs.size:
            raise ValueError("one probability per group required")
        if any(g.size == 0 for g in groups):
            raise ValueError("every group must be nonempty")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("group probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "scores_by_group", groups)
        probs.setflags(write=False)
        object.__setattr__(self, "group_probs", probs)

    @classmethod
    def from_labels(cls, scores, groups) -> "GroupedScores":
        """Split a flat score vector by integer group labels 0..K-1."""
        scores = np.asarray(scores, dtype=float).ravel()
        groups = np.asarray(groups).ravel()
        labels = np.unique(groups)
        if labels.size < 2:
            raise ValueError("need at least two groups")
        if not np.array_equal(labels, np.arange(labels.size)):
            raise ValueError("group labels must be 0..K-1; remap first")
        per = tuple(scores[groups == k] for k in labels)
        probs = np.array([g.size for g in per], dtype=float) / scores.size
        return cls(per, probs)

    @property
    def n_groups(self) -> int:
        return len(self.scores_by_group)

    def distribution(self, k: int) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_samples(self.scores_by_group[k])

    def pooled(self) -> EmpiricalDistribution:
        """Probability-weighted mixture of the group score distributions."""
        return self._pooled_sort()[0]

    def _pooled_sort(self):
        """``pooled()`` with the sort it is read from: the distribution, the
        stable order of the scores laid end to end (group 0's, then group
        1's, ...), the scores in that order and each one's pooled atom
        index (``EmpiricalDistribution._sorted_samples``)."""
        values = np.concatenate(self.scores_by_group)
        weights = np.concatenate(
            [np.full(g.size, p / g.size) for g, p in zip(self.scores_by_group, self.group_probs)]
        )
        return EmpiricalDistribution._sorted_samples(values, weights)

    def _by_group(self, order, sorted_values) -> tuple:
        """``sorted_values``, one per score in ``order`` (a stable sort of the
        scores laid end to end), split by group: each group's values in its
        own stable sorted order."""
        group = np.repeat(np.arange(self.n_groups), [g.size for g in self.scores_by_group])[order]
        return tuple(sorted_values[group == k] for k in range(self.n_groups))


@dataclass(frozen=True)
class ThresholdMeasure:
    """Distribution of classification thresholds.

    ``uniform01``     Lebesgue measure on [0, 1].
    ``empirical``     an explicit atomic distribution of thresholds.
    ``pooled-scores`` the mixture distribution of the pooled model scores,
                      resolved against the grouped scores at evaluation time.
    """

    kind: str
    dist: EmpiricalDistribution = None

    def __post_init__(self):
        if self.kind not in ("uniform01", "empirical", "pooled-scores"):
            raise ValueError(f"unknown threshold measure kind {self.kind!r}")
        if self.kind == "empirical" and self.dist is None:
            raise ValueError("empirical threshold measure needs a distribution")

    @classmethod
    def uniform01(cls) -> "ThresholdMeasure":
        return cls("uniform01")

    @classmethod
    def empirical(cls, dist: EmpiricalDistribution) -> "ThresholdMeasure":
        return cls("empirical", dist)

    @classmethod
    def pooled_scores(cls) -> "ThresholdMeasure":
        return cls("pooled-scores")

    def resolve(self, g: GroupedScores) -> EmpiricalDistribution:
        """Atomic realization of the measure (None for uniform01)."""
        if self.kind == "uniform01":
            return None
        if self.kind == "empirical":
            return self.dist
        return g.pooled()


def _require_two_groups(g: GroupedScores):
    if g.n_groups != 2:
        raise ValueError(f"metric defined for two groups, got {g.n_groups}")


def cost_bias(g: GroupedScores, c: CostFunction, mu: ThresholdMeasure) -> float:
    """Exact threshold-averaged bias ``int c(F0(t), F1(t)) mu(dt)``.

    For uniform01 the integral is taken piecewise over the union of the score
    breakpoints inside [0, 1]; for atomic measures it is the weighted sum
    over the atoms.
    """
    _require_two_groups(g)
    d0, d1 = g.distribution(0), g.distribution(1)
    atoms = mu.resolve(g)
    if atoms is not None:
        vals = c.value(d0.cdf(atoms.values), d1.cdf(atoms.values))
        return float(np.sum(atoms.weights * vals))
    breaks = np.union1d(d0.values, d1.values)
    breaks = breaks[(breaks > 0.0) & (breaks < 1.0)]
    grid = np.concatenate(([0.0], breaks, [1.0]))
    left = grid[:-1]
    seg = np.diff(grid)
    vals = c.value(d0.cdf(left), d1.cdf(left))
    return float(np.sum(seg * vals))


def _atom_index(pooled: EmpiricalDistribution, scores) -> np.ndarray:
    """The index of the pooled atom each score was merged into: the largest
    atom at or below it (the first atom, for a score below all of them)."""
    return np.maximum(np.searchsorted(pooled.values, scores, side="right") - 1, 0)


def snap_to_pooled(g: GroupedScores, pooled: EmpiricalDistribution) -> GroupedScores:
    """``g`` with each score read as the pooled atom it was merged into, the
    largest atom of ``pooled`` at or below it.

    Where scores crowd within ``MERGE_TOL``, each group's own merge would keep
    another representative than the pool's; snapped, every group sees the
    pooled atoms.  Where no two distinct scores lie that close, every score
    is its own atom and nothing moves.
    """
    return GroupedScores(tuple(pooled.values[_atom_index(pooled, s)] for s in g.scores_by_group), g.group_probs)


def _snapped_invariant(pooled: EmpiricalDistribution, atoms):
    """The invariant bias of two groups whose scores, snapped, are the atoms
    of ``pooled`` at the sorted indices ``atoms`` (one array per group),
    with each group's snapped CDF at the pooled atoms, which it is read from.

    Computed two ways and cross-checked: (a) the threshold average of
    |F0 - F1| against the pooled distribution, and (b) the W1 distance
    between the groups after the left-continuous pooled-CDF transform, which
    sends atom ``a`` to the pooled weight below it.  The two must agree to
    1e-10; the transform path is returned.  Every distribution is merged
    from values already in sorted order, so nothing here sorts.
    """
    snapped = [EmpiricalDistribution._uniform_sorted(pooled.values[a]) for a in atoms]
    cdfs = [d.cdf(pooled.values) for d in snapped]
    threshold_path = float(np.sum(pooled.weights * np.abs(cdfs[0] - cdfs[1])))
    below = np.concatenate(([0.0], pooled.cum_weights))
    transform_path = wasserstein1(*(EmpiricalDistribution._uniform_sorted(below[a]) for a in atoms))
    if abs(threshold_path - transform_path) > _PATH_AGREEMENT_TOL:
        raise AssertionError(
            "invariant-bias computation paths disagree: "
            f"threshold average {threshold_path!r} vs transform {transform_path!r}"
        )
    return cdfs, transform_path


def invariant_bias(g: GroupedScores, pooled: EmpiricalDistribution) -> float:
    """Distribution-invariant bias, exact for atomic score distributions.

    ``pooled`` is the pooled sample of ``g`` (or its image under a monotone
    transform).  The group scores are snapped onto its atoms
    (``snap_to_pooled``), so both paths of ``_snapped_invariant`` see the
    same atoms: the threshold average of |F0 - F1| against ``pooled``, and
    the W1 distance after the left-continuous pooled-CDF transform.
    """
    _require_two_groups(g)
    atoms = [np.sort(_atom_index(pooled, s)) for s in g.scores_by_group]
    return _snapped_invariant(pooled, atoms)[1]


def multi_attribute_bias(
    g: GroupedScores,
    weights,
    pairwise: str = "w1",
    cost: CostFunction = None,
    mu: ThresholdMeasure = None,
) -> float:
    """Weighted sum of pairwise biases of each protected group against group 0.

    ``pairwise`` selects the two-group metric: ``"w1"`` or ``"cost"`` (which
    needs ``cost`` and ``mu``).  ``weights`` has one entry per protected
    group, i.e. length K-1.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.size != g.n_groups - 1:
        raise ValueError(f"expected {g.n_groups - 1} weights, got {weights.size}")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if pairwise not in ("w1", "cost"):
        raise ValueError(f"unknown pairwise metric {pairwise!r}")
    if pairwise == "cost" and (cost is None or mu is None):
        raise ValueError("pairwise='cost' requires cost and mu")
    total = 0.0
    p = g.group_probs
    for k in range(1, g.n_groups):
        pair_probs = np.array([p[0], p[k]])
        pair_probs = pair_probs / pair_probs.sum() if pair_probs.sum() > 0 else np.array([0.5, 0.5])
        pair = GroupedScores((g.scores_by_group[0], g.scores_by_group[k]), pair_probs)
        if pairwise == "w1":
            value = wasserstein1(pair.distribution(0), pair.distribution(1))
        else:
            value = cost_bias(pair, cost, mu)
        total += weights[k - 1] * value
    return float(total)
