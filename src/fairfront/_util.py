"""Small shared helpers: stable link functions, deterministic formatting."""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.special import expit

PROB_EPS = 1e-12


def sigmoid(x):
    return expit(x)


def logit(p, eps=PROB_EPS):
    p = np.clip(p, eps, 1.0 - eps)
    return np.log(p) - np.log1p(-p)


def cross_entropy(probs, labels, eps=PROB_EPS):
    """Mean binary cross-entropy with probability clamping."""
    p = np.clip(np.asarray(probs, dtype=float), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def fmt_float(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

