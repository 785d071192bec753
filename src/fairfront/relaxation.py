"""Smooth relaxations of the Heaviside step.

A relaxation family r_s is a nondecreasing [0, 1]-valued surrogate for the
indicator 1{z > 0} with Lipschitz constant growing like the scale s.  The
relaxed CDF ``1 - mean_i r_s(z_i - t)`` is Lipschitz in t and differentiable
through the scores, which is what makes threshold-averaged bias metrics
amenable to gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import sigmoid

_KINDS = ("ramp", "logistic", "shifted-logistic")
# |exponent| bound of the separable logistic grid: each factor and any
# product of two stay finite and normal (exp(600) < 1e261)
_EXP_BOUND = 300.0


@dataclass(frozen=True)
class RelaxationFamily:
    """Step surrogate r_s.

    ramp              clamp(s*z, 0, 1); exact Lipschitz constant s, r_s(0)=0.
    logistic          sigmoid(s*z); infinitely smooth, r_s(0)=1/2.
    shifted-logistic  sigmoid(s*(z - 1/sqrt(s))); smooth with r_s(0) -> 0.
    """

    kind: str
    scale: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown relaxation kind {self.kind!r}; expected one of {_KINDS}")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"relaxation scale must be finite and positive, got {self.scale}")

    def r(self, z):
        z = np.asarray(z, dtype=float)
        s = self.scale
        if self.kind == "ramp":
            return np.clip(s * z, 0.0, 1.0)
        if self.kind == "logistic":
            return sigmoid(s * z)
        return sigmoid(s * z - np.sqrt(s))

    def grid_writer(self, u):
        """``write(t, R, P=None)``, which writes the (T, m) grid
        ``R[j, i] = r_s(u_i - t_j)`` of the scores ``u`` against thresholds
        ``t`` into ``R`` and, when ``P`` is given, the slope r_s' / s there
        into ``P``, and returns ``(R, P)``.  The slope is the derivative in
        the scaled difference ``s (u_i - t_j)``: a caller folds the factor s
        into the vector it contracts ``P`` with, so no pass over the grid
        scales it.  The score side of the grid is computed once, for every
        threshold block ``t``; a caller that forms many grids writes them
        all into the same two arrays.

        The logistic kinds are separable: ``r_s(u - t) = 1 / (1 + e^{s t + c}
        e^{-s u})`` with ``c`` the shift, so a grid costs T exponentials in
        place of T m once the m score factors are made.  A ramp, a
        non-finite score or threshold, or an exponent beyond ``_EXP_BOUND``
        takes ``r`` on the difference grid instead: the score side is
        checked once, each threshold block on its own.
        """
        u = np.asarray(u, dtype=float).ravel()
        s = self.scale
        score_factors = None
        if self.kind != "ramp":
            b = -s * u
            if np.all(np.abs(b) <= _EXP_BOUND):
                score_factors = np.exp(b)
        shift = np.sqrt(s) if self.kind == "shifted-logistic" else 0.0

        def write(t, R, P=None):
            t = np.asarray(t, dtype=float).ravel()
            a = s * t + shift if score_factors is not None else None
            if a is not None and np.all(np.abs(a) <= _EXP_BOUND):
                np.multiply.outer(np.exp(a), score_factors, out=R)
                R += 1.0
                np.reciprocal(R, out=R)
            else:
                R[...] = self.r(u[None, :] - t[:, None])
            if P is None:
                return R, None
            if self.kind == "ramp":
                P[...] = (R > 0.0) & (R < 1.0)
            else:
                np.subtract(1.0, R, out=P)
                P *= R
            return R, P

        return write


def ramp(scale: float) -> RelaxationFamily:
    return RelaxationFamily("ramp", scale)


def logistic(scale: float) -> RelaxationFamily:
    return RelaxationFamily("logistic", scale)


def shifted_logistic(scale: float) -> RelaxationFamily:
    return RelaxationFamily("shifted-logistic", scale)
