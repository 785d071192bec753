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

    @property
    def smooth(self) -> bool:
        return self.kind != "ramp"

    def r(self, z):
        z = np.asarray(z, dtype=float)
        s = self.scale
        if self.kind == "ramp":
            return np.clip(s * z, 0.0, 1.0)
        if self.kind == "logistic":
            return sigmoid(s * z)
        return sigmoid(s * z - np.sqrt(s))

    def r_and_prime(self, z):
        """Value and derivative in one pass (the derivative reuses the value)."""
        r = self.r(z)
        s = self.scale
        if self.kind == "ramp":
            return r, np.where((r > 0.0) & (r < 1.0), s, 0.0)
        return r, s * r * (1.0 - r)

    def grid(self, u, t, need_prime=False):
        """``(R, P)`` on the (T, m) grid ``R[j, i] = r_s(u_i - t_j)`` of scores
        ``u`` against thresholds ``t``; ``P`` holds r_s' there, or is None
        without ``need_prime``.

        The logistic kinds are separable: ``r_s(u - t) = 1 / (1 + e^{s t + c}
        e^{-s u})`` with ``c`` the shift, so the grid costs m + T exponentials
        in place of T m.  A ramp, a non-finite score or threshold, or an
        exponent beyond ``_EXP_BOUND`` takes ``r``/``r_and_prime`` on the
        difference grid instead.
        """
        u = np.asarray(u, dtype=float).ravel()
        t = np.asarray(t, dtype=float).ravel()
        s = self.scale
        if self.kind != "ramp":
            a = s * t + (np.sqrt(s) if self.kind == "shifted-logistic" else 0.0)
            b = -s * u
            if np.all(np.abs(a) <= _EXP_BOUND) and np.all(np.abs(b) <= _EXP_BOUND):
                R = np.multiply.outer(np.exp(a), np.exp(b))
                R += 1.0
                np.reciprocal(R, out=R)
                if not need_prime:
                    return R, None
                P = np.subtract(1.0, R)
                P *= R
                P *= s
                return R, P
        Z = u[None, :] - t[:, None]
        if need_prime:
            return self.r_and_prime(Z)
        return self.r(Z), None


def ramp(scale: float) -> RelaxationFamily:
    return RelaxationFamily("ramp", scale)


def logistic(scale: float) -> RelaxationFamily:
    return RelaxationFamily("logistic", scale)


def shifted_logistic(scale: float) -> RelaxationFamily:
    return RelaxationFamily("shifted-logistic", scale)
