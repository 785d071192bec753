"""Exact empirical-distribution machinery.

Weighted discrete distributions on the real line: the CDF and its left
limit, the generalized inverse (quantile), and the Wasserstein-1 distance via
the monotone (quantile) coupling.

Every integral here is evaluated exactly on a merged breakpoint grid, where
the integrand is piecewise constant; nothing is sampled.  That makes these
functions usable as oracles for the stochastic estimators elsewhere in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Atoms closer than this are merged into one; weight sums must match 1 at
#: the same tolerance.
MERGE_TOL = 1e-12

_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class CostFunction:
    """Cost ``c(a, b)`` comparing two probabilities.

    ``abs`` and ``square`` are difference costs ``c(a, b) = h(a - b)`` with
    ``h(z) = |z|`` and ``h(z) = z**2``; both are Lipschitz on [-1, 1].
    ``abs-log-ratio`` is ``|log a - log b|`` with arguments clamped below at
    1e-12 (the log is singular at zero).
    """

    kind: str

    _KINDS = ("abs", "square", "abs-log-ratio")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; expected one of {self._KINDS}")

    @property
    def is_h_form(self) -> bool:
        return self.kind in ("abs", "square")

    def h(self, z):
        """Difference form ``h(z)``; only defined for abs and square."""
        z = np.asarray(z, dtype=float)
        if self.kind == "abs":
            return np.abs(z)
        if self.kind == "square":
            return z * z
        raise ValueError("abs-log-ratio has no difference form h(z)")

    def h_prime(self, z):
        """Pointwise derivative of ``h`` (sign convention: h'(0)=0 for abs)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "abs":
            return np.sign(z)
        if self.kind == "square":
            return 2.0 * z
        raise ValueError("abs-log-ratio has no difference form h(z)")

    def value(self, a, b):
        """Evaluate ``c(a, b)`` elementwise."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "abs-log-ratio":
            return np.abs(np.log(np.maximum(a, _LOG_CLAMP)) - np.log(np.maximum(b, _LOG_CLAMP)))
        return self.h(a - b)


ABS = CostFunction("abs")
SQUARE = CostFunction("square")
ABS_LOG_RATIO = CostFunction("abs-log-ratio")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted atoms on the real line in canonical (sorted, merged) form.

    ``values`` are strictly increasing after merging atoms that coincide
    within ``MERGE_TOL``; ``weights`` are nonnegative and sum to one.  The
    CDF is right-continuous and reaches exactly 1 at the largest atom.
    """

    values: np.ndarray
    weights: np.ndarray
    cum_weights: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("empty distribution")
        if values.shape != weights.shape:
            raise ValueError("values and weights must have the same shape")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(weights)):
            raise ValueError("non-finite atom or weight")
        if np.any(np.diff(values) <= 0):
            raise ValueError("values must be strictly increasing; use from_samples")
        if np.any(weights < 0):
            raise ValueError("negative weight")
        total = weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1")
        cum = np.cumsum(weights)
        cum[-1] = 1.0  # pin the top against accumulation drift
        for name, arr in (("values", values), ("weights", weights), ("cum_weights", cum)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_samples(cls, values, weights=None) -> "EmpiricalDistribution":
        """Build from raw samples: sort, merge near-equal atoms, normalize."""
        return cls._sorted_samples(values, weights)[0]

    @classmethod
    def _sorted_samples(cls, values, weights=None):
        """``from_samples``, with the sort it reads the atoms from: the
        distribution, the stable order of ``values``, the values in that
        order, and the atom index of each."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("empty distribution")
        if weights is None:
            weights = np.full(values.shape, 1.0 / values.size)
        else:
            weights = np.asarray(weights, dtype=float).ravel()
            if weights.shape != values.shape:
                raise ValueError("values and weights must have the same shape")
            if np.any(weights < 0):
                raise ValueError("negative weight")
            total = weights.sum()
            if total <= 0:
                raise ValueError("weights sum to zero")
            weights = weights / total
        order = np.argsort(values, kind="stable")
        v = values[order]
        dist, atom = cls._merged(v, weights[order])
        return dist, order, v, atom

    @classmethod
    def _merged(cls, v, w):
        """The distribution of the sorted samples ``v`` with weights ``w``
        (summing to one), and the atom index of each sample.  A run of
        samples each within ``MERGE_TOL`` of its predecessor is one atom, at
        the run's first value, weighing the run's weights added in order."""
        keep = np.empty(v.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(v) > MERGE_TOL
        atom = np.cumsum(keep) - 1
        mw = np.zeros(atom[-1] + 1)
        np.add.at(mw, atom, w)
        return cls(v[keep], mw), atom

    @classmethod
    def _uniform_sorted(cls, v):
        """``from_samples(v)`` for samples ``v`` already in sorted order."""
        return cls._merged(v, np.full(v.size, 1.0 / v.size))[0]

    @property
    def size(self) -> int:
        return self.values.size

    def cdf(self, t):
        """Right-continuous CDF, ``P(Z <= t)``; accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.values, t, side="right")
        padded = np.concatenate(([0.0], self.cum_weights))
        out = padded[idx]
        return float(out) if t.ndim == 0 else out

    def left_cdf(self, t):
        """Left limit of the CDF, ``P(Z < t)``."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.values, t, side="left")
        padded = np.concatenate(([0.0], self.cum_weights))
        out = padded[idx]
        return float(out) if t.ndim == 0 else out

    def quantile(self, p):
        """Generalized inverse ``inf{x : p <= F(x)}`` for ``p`` in (0, 1].

        Left-continuous and nondecreasing in ``p``.
        """
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0) or np.any(p > 1):
            raise ValueError("quantile level must lie in (0, 1]")
        idx = np.searchsorted(self.cum_weights, p, side="left")
        out = self.values[np.minimum(idx, self.size - 1)]
        return float(out) if p.ndim == 0 else out


def wasserstein1(d0: EmpiricalDistribution, d1: EmpiricalDistribution) -> float:
    """W1 distance: the integral of the absolute quantile gap over (0, 1].

    Computed exactly on the union of both cumulative-weight grids, where the
    quantiles are constant between consecutive levels.  The grids are
    already sorted, so one stable merge (a run merge in O(n)) gives the
    levels and, at each, the count of each grid's levels below it: the atom
    index of each quantile.
    """
    c0, c1 = d0.cum_weights, d1.cum_weights
    levels = np.concatenate((c0, c1))
    order = np.argsort(levels, kind="stable")
    merged = levels[order]
    from0 = order < c0.size
    first = np.empty(merged.size, dtype=bool)
    first[0] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    ps = merged[first]
    # levels of each grid strictly below each union level
    below0 = (np.cumsum(from0) - from0)[first]
    below1 = np.arange(merged.size)[first] - below0
    gap = d0.values[np.minimum(below0, d0.size - 1)] - d1.values[np.minimum(below1, d1.size - 1)]
    widths = np.diff(np.concatenate(([0.0], ps)))
    return float(np.sum(widths * np.abs(gap)))
