"""Small shared helpers: stable link functions, deterministic formatting,
checked reads of JSON documents."""

from __future__ import annotations

import hashlib
import json

import numpy as np

PROB_EPS = 1e-12


def sigmoid(x):
    """The logistic function.  Like ``scipy.special.expit`` it raises no
    floating-point error, even under a caller's ``np.errstate(all="raise")``:
    exp(-x) overflows below x = -709.78 (the result is 0), the quotient is
    subnormal just above that, and exp(-x) underflows for large x (the
    result is 1)."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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


def fmt_floats(values) -> list:
    """``fmt_float`` of each of ``values``, Python floats (``ndarray.tolist``)."""
    return list(map(repr, values))


def row_indices(values, name, n_records=None):
    """``values`` as a flat ``intp`` array of row indices.  A ValueError
    naming ``name`` rejects an index that is not a whole number, a negative
    one and, given ``n_records``, one at or past it."""
    arr = np.asarray(values).ravel()
    if arr.dtype.kind not in "iu":
        whole = np.isfinite(arr) & (arr == np.floor(arr)) if arr.dtype.kind == "f" else np.zeros(arr.shape, bool)
        if not np.all(whole):
            raise ValueError(f"{name}: row index {arr[~whole][0].item()!r} is not an integer")
    if arr.size:
        if arr.min() < 0:
            raise ValueError(f"{name}: negative row index {arr.min().item()!r}")
        if n_records is not None and arr.max() >= n_records:
            raise ValueError(f"{name}: row index {arr.max().item()!r} is out of range for {n_records} records")
    return arr.astype(np.intp, copy=False)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()



def read_json(path):
    """The JSON document in the file at ``path``; a file that is not JSON
    raises ``ValueError`` naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def json_field(doc, key, where, kind):
    """``doc[key]``, checked to be a ``kind``; a missing key or a value of
    another type raises ``ValueError`` naming ``where`` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} has type {type(value).__name__}")
    return value
