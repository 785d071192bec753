"""Linear post-processing families around a trained base model.

A family member is ``f(x; theta) = f_*(x) - theta . w(x)`` where the encoder
row ``w(x)`` has a leading constant 1.  The family is linear in theta, so
gradients exist even when the base model itself is a step function (e.g. a
tree ensemble).  For classification the raw score is pushed through the
logistic link before thresholding.

The family owns the one chain rule.  Estimators and losses return score-space
cotangents (d value / d score, one per scored row); ``scores_and_grad``
returns the scores with a pullback that maps such cotangents to the
theta-gradient.  A family need supply only ``scores``, ``scores_and_grad``
and, for the losses, which differentiate in logit space,
``raw_scores_and_pullback``.  Here the raw pullback is ``g -> -g @ W[rows]``
and the logistic link composes its slope u (1 - u) onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import sigmoid


@dataclass
class LinearFamily:
    base_scores: np.ndarray       # (n,) raw score f_*(x) per record
    encoder_matrix: np.ndarray    # (n, m+1); column 0 identically 1
    link: str = "logistic"        # logistic -> probabilities; identity -> raw

    def __post_init__(self):
        self.base_scores = np.asarray(self.base_scores, dtype=float).ravel()
        self.encoder_matrix = np.asarray(self.encoder_matrix, dtype=float)
        if self.encoder_matrix.ndim != 2:
            raise ValueError("encoder matrix must be 2-D")
        if self.encoder_matrix.shape[0] != self.base_scores.size:
            raise ValueError("encoder rows must match record count")
        if not np.allclose(self.encoder_matrix[:, 0], 1.0):
            raise ValueError("first encoder column must be identically 1")
        if not np.all(np.isfinite(self.encoder_matrix)):
            raise ValueError("non-finite encoder value")
        if not np.all(np.isfinite(self.base_scores)):
            raise ValueError("non-finite base score")
        if self.link not in ("identity", "logistic"):
            raise ValueError(f"unknown link {self.link!r}")

    @property
    def n_params(self) -> int:
        return self.encoder_matrix.shape[1]

    @property
    def n_records(self) -> int:
        return self.base_scores.size

    def zero_theta(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def raw_scores_and_pullback(self, theta, rows=None):
        """Raw family scores ``f_*(x) - theta . w(x)`` on the selected rows
        (all rows when ``rows`` is None, without a copy), and their pullback
        ``g -> -g @ W[rows]``: the theta-gradient of ``g . raw``."""
        W = self.encoder_matrix if rows is None else self.encoder_matrix[rows]
        base = self.base_scores if rows is None else self.base_scores[rows]
        raw = base - W @ np.asarray(theta, dtype=float)
        return raw, lambda g: -(g @ W)

    def scores(self, theta, rows=None) -> np.ndarray:
        """Link-space score: probability for logistic, raw otherwise."""
        raw, _ = self.raw_scores_and_pullback(theta, rows)
        return sigmoid(raw) if self.link == "logistic" else raw

    def scores_and_grad(self, theta, rows=None):
        """Link-space scores ``u`` of shape (k,) and their pullback: a map from
        a cotangent ``g`` of shape (k,) to the theta-gradient of ``g . u``,
        of shape (m+1,).  Repeated rows add their cotangents."""
        raw, pullback = self.raw_scores_and_pullback(theta, rows)
        if self.link == "identity":
            return raw, pullback
        u = sigmoid(raw)
        slope = u * (1.0 - u)
        return u, lambda g: pullback(g * slope)
