"""Encoder construction for post-processing families.

Encoders are fixed, demographically blind columns w_j(x) whose linear
combination corrects a trained model.  Three constructions are provided:

* additive polynomial corrections per feature (monomial or Legendre basis),
* principal components of the per-tree outputs of a boosted ensemble,
* exact marginal Shapley attributions of the base model, by interventional
  TreeSHAP over the ensemble's leaves: O((records + background) * leaves * D
  + leaves * 4^D * D) for paths testing at most D distinct features, with no
  2^F factor and no cap on the feature count F.  The coalition enumeration
  it replaced is the oracle of the tests (``tests/oracles.py``).

Each kind is a fit that returns its frozen provenance (affine ranges, PCA
loadings, Shapley background and centres) and one column function mapping
its inputs and that provenance to the non-constant columns.  The builder
applies the function to the inputs it already holds; ``reevaluate`` applies
the same function, through ``_state_columns``, to new records, so the
columns of build and re-evaluation come from one formula.  A new kind
supplies both, one branch in ``_state_columns``, and its fields and shapes
for ``_check_state``, which checks a loaded sidecar.  The non-constant
columns carry a stored unit-variance scale so optimization is well
conditioned while coefficients remain reportable in original units.  A
saved sidecar holds only the scales and the provenance; the CSV header holds
the names.

Tree-pca columns ride on the model's tree walk: they are formed block by
block inside ``predict_raw``'s walk, which also gives the records' raw
margins (``EncoderMatrix.raw_scores``), bitwise ``predict_raw``;
``EncoderMatrix.family`` takes a split's base scores from there and walks
the model itself only for the other kinds.  The build walks its records
twice, first for the moments of the per-tree outputs, in bounded blocks of
rows, then for the columns as re-evaluation does; no records x trees matrix
is formed, and the build holds one trees x trees co-moment.  Its top r
eigenvectors come from subspace iteration on 2r vectors, whose only
``eigh`` is of a 2r x 2r matrix (``_top_eigenpairs``).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from ._util import fmt_floats, json_field, read_json
from .gbdt import Ensemble, leaf_boxes, per_tree_outputs
from .linear_family import LinearFamily

PCA_ROW_CAP = 50_000
DEFAULT_BACKGROUND_SIZE = 256
DEFAULT_BASIS = "monomial"   # additive columns: plain powers of each feature
# TreeSHAP tabulates 4^D * D coalition weights and takes 4^D * D products per
# leaf for paths testing D distinct features: past 8, minutes per hundred trees
_MAX_PATH_FEATURES = 8
# cells of one TreeSHAP work array: (leaves, 2^D * D) tables, (records, slots) gathers
_TREESHAP_CELLS = 1 << 18
_ZERO_VAR = 1e-15
# per-tree outputs in one block of the tree-pca moment pass (8 MB).  At 800
# trees and 10k records, 2^21 raised the process peak by 6 MB over 2^20, and
# 2^18 or fewer took a third longer (one trees x trees merge per block)
_PCA_BLOCK_CELLS = 1 << 20
# the tree-pca eigensolver (``_top_eigenpairs``) stops once every top-r Ritz
# residual is at most _RITZ_TOL * theta_1, ten times its rounding floor
# (about 1e-15 from 200 to 3000 trees), and gives up after _RITZ_STEPS
# Rayleigh-Ritz steps.  At 800 trees and r = 40, filter degree 5 took 4 or 5
# steps and less time than degrees 3, 4 and 6.  The filter stops short of
# its degree where it would grow theta_1 over theta_r by more than
# _FILTER_RANGE: past about 1 / eps, the rounding that a column carries in
# the top directions outgrows the column's own eigenvector
_RITZ_TOL = 1e-14
_RITZ_STEPS = 100
_FILTER_DEGREE = 5
_FILTER_RANGE = 1e14


@dataclass
class EncoderMatrix:
    """Named encoder columns with column 0 identically one.

    ``scales`` are the stored standard deviations used to standardize the
    optimization columns.  ``provenance`` carries everything needed to
    rebuild the columns on new records, the centres of ``centers`` included.
    ``raw_scores`` are the model's raw margins on the same records, read off
    the tree walk that formed tree-pca columns (bitwise ``predict_raw``);
    None where no walk formed them.  They are not saved.  ``family`` makes
    the linear family of a split: the build's matrix for the build records,
    ``reevaluate``'s for any other split.
    """

    columns: np.ndarray
    names: list
    provenance: dict
    scales: np.ndarray
    raw_scores: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2:
            raise ValueError("encoder columns must form a matrix")
        if not np.allclose(self.columns[:, 0], 1.0):
            raise ValueError("column 0 must be identically 1")
        if not np.all(np.isfinite(self.columns)):
            raise ValueError("non-finite encoder column")
        if len(self.names) != self.columns.shape[1]:
            raise ValueError("one name per column required")

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]

    @property
    def centers(self) -> np.ndarray:
        """The construction-time centre of each column: the build records'
        mean attributions for Shapley columns (0 for the constant), zero
        where the construction does not center."""
        if self.provenance["kind"] == "shapley":
            return np.concatenate(([0.0], self.provenance["phi_centers"]))
        return np.zeros(self.n_columns)

    def original_theta(self, theta) -> np.ndarray:
        """Map a parameter fit on standardized columns to original units."""
        return np.asarray(theta, dtype=float) / self.scales

    def family(self, model, X) -> LinearFamily:
        """The linear family of these columns on ``X``, the records they
        were formed on: the columns divided by their scales, over the base
        scores of the tree walk that formed them (``raw_scores``), or of one
        walk of ``model`` where none did."""
        raw = self.raw_scores if self.raw_scores is not None else model.predict_raw(X)
        return LinearFamily(raw, self.columns / self.scales[None, :])

    def reevaluate(self, X, model=None) -> "EncoderMatrix":
        """Rebuild the same columns on new records from the frozen state;
        tree-pca and Shapley columns read ``model``.
        Tree-pca columns come from one walk of the model, which also gives
        the result its ``raw_scores``."""
        X = np.asarray(X, dtype=float)
        # the constant column is made after the others, so it is not held while they are formed
        columns, raw = _state_columns(self.provenance, X, model)
        columns = np.column_stack([np.ones(X.shape[0]), columns])
        return EncoderMatrix(columns, self.names, self.provenance, self.scales, raw)

    # --- persistence --------------------------------------------------

    def save(self, csv_path, sidecar_path):
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(self.names)
            fh.writelines(",".join(fmt_floats(row)) + "\n" for row in self.columns.tolist())
        meta = {"scales": self.scales.tolist(), "provenance": _jsonify(self.provenance)}
        with open(sidecar_path, "w") as fh:
            fh.write(json.dumps(meta))  # json.dump never takes the C encoder

    @classmethod
    def load(cls, csv_path, sidecar_path) -> "EncoderMatrix":
        """The encoders saved by ``save``.  A sidecar without the scales or
        provenance, whose provenance is of an unknown kind or lacks a field
        its columns are rebuilt from, with an array that holds a value that
        is not a number, with an array whose shape does not fit the CSV or
        the other arrays, or with kept trees or features that are not
        indices (``_check_state``), raises ``ValueError`` naming the sidecar
        and the key; a CSV without rows, with a row that is not one number
        per name of its header, or with a non-finite cell or a first column
        that is not all 1, names the CSV and, where it can, the row.  Other
        keys of the sidecar are not read."""
        meta = read_json(sidecar_path)
        scales = _float_array(json_field(meta, "scales", sidecar_path, list), sidecar_path, "scales")
        where = f"{sidecar_path} provenance"
        provenance = _unjsonify(json_field(meta, "provenance", sidecar_path, dict), where)
        with open(csv_path, newline="") as fh:
            names = next(csv.reader(fh), [])
            cells = _csv_cells(fh, len(names), csv_path)
        if not len(cells):
            raise ValueError(f"{csv_path}: no rows of encoder columns")
        if scales.shape != (len(names),):
            raise ValueError(
                f"{sidecar_path}: 'scales' has shape {scales.shape}, not ({len(names)},): one entry per column "
                f"of {csv_path}"
            )
        _check_state(provenance, where, len(names) - 1, csv_path)
        try:
            return cls(cells, names, provenance, scales)
        except ValueError as exc:  # a constant column that is not 1, a non-finite cell
            raise ValueError(f"{csv_path}: {exc}") from None


def _csv_cells(fh, width, csv_path) -> np.ndarray:
    """The rows left in the open CSV ``fh`` as a (rows, ``width``) float
    matrix, converted in one ``np.loadtxt`` over its lines.  Where that
    fails, warns, or skips a line (it skips blank ones), ``csv_path`` is
    read again row by row in Python, to name the first row that is not
    ``width`` numbers."""
    lines = 0

    def counted():
        nonlocal lines
        for line in fh:
            lines += 1
            yield line

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns where no line holds data
        try:
            cells = np.loadtxt(counted(), delimiter=",", comments=None, ndmin=2)
            if cells.shape == (lines, width):
                return cells
        except (ValueError, UserWarning):
            pass
    rows = []
    with open(csv_path, newline="") as again:
        reader = csv.reader(again)
        next(reader, None)
        for r, row in enumerate(reader, 2):
            if len(row) != width:
                raise ValueError(f"{csv_path}: row {r}: {len(row)} cells under a header of {width}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{csv_path}: row {r}: {exc}") from None
    return np.asarray(rows, dtype=float).reshape(len(rows), width)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__array__": obj.tolist()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _unjsonify(obj, where, key=None):
    """Invert ``_jsonify``; ``where`` and the enclosing key name an array
    that does not convert."""
    if isinstance(obj, dict):
        if "__array__" in obj:
            return _float_array(obj["__array__"], where, key)
        return {k: _unjsonify(v, where, k) for k, v in obj.items()}
    return obj


def _float_array(values, where, key):
    """The nested list ``values`` as a float array; one that holds anything
    but numbers, or is ragged, raises ``ValueError`` naming ``where`` and
    ``key``."""
    try:
        array = np.asarray(values)
    except ValueError as exc:
        raise ValueError(f"{where}: {key!r} is not an array ({exc})") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{where}: {key!r} holds a value that is not a number")
    return array.astype(float)


# the provenance fields that each kind's columns are rebuilt from
_STATE_FIELDS = {
    "additive": {"basis": str, "degree": int, "kept_features": np.ndarray, "lo": np.ndarray, "hi": np.ndarray},
    "tree-pca": {"kept_trees": np.ndarray, "tree_means": np.ndarray, "loadings": np.ndarray},
    "shapley": {"background": np.ndarray, "phi_centers": np.ndarray},
}


def _check_state(state, where, width, csv_path):
    """Reject a provenance of an unknown kind, one without a field of its
    kind, one whose arrays do not fit each other and the ``width``
    non-constant columns of ``csv_path``, or one whose kept trees or
    features are not indices, naming ``where`` and the key.  A kept tree
    past the model's last is rejected at re-evaluation, which has the
    model."""
    kind = json_field(state, "kind", where, str)
    if kind not in _STATE_FIELDS:
        raise ValueError(f"{where}: unknown kind {kind!r}")
    for key, kind_of_value in _STATE_FIELDS[kind].items():
        json_field(state, key, where, kind_of_value)
    per_column = f"per non-constant column of {csv_path}"
    if kind == "tree-pca":
        kept = state["kept_trees"].size
        shapes = [
            ("kept_trees", (kept,), "one index per kept tree"),
            ("tree_means", (kept,), "one entry per kept tree"),
            ("loadings", (kept, width), f"one row per kept tree, one column {per_column}"),
        ]
        indices = ("kept_trees", np.inf, "a tree index")
    elif kind == "additive":
        n_features, kept, degree = state["lo"].size, state["kept_features"].size, state["degree"]
        if kept * degree != width:
            raise ValueError(
                f"{where}: 'kept_features' holds {kept} features of degree {degree}, so {kept * degree} columns, "
                f"but {csv_path} has {width} non-constant columns"
            )
        shapes = [
            ("kept_features", (kept,), "one index per kept feature"),
            ("lo", (n_features,), "one entry per feature"),
            ("hi", (n_features,), "one entry per feature, as 'lo'"),
        ]
        indices = ("kept_features", n_features, f"the index of one of the {n_features} features")
    else:
        shapes = [
            ("background", state["background"].shape[:1] + (width,), f"one column {per_column}"),
            ("phi_centers", (width,), "one entry per background column"),
        ]
        indices = None
    for key, shape, rule in shapes:
        if state[key].shape != shape:
            raise ValueError(f"{where}: {key!r} has shape {state[key].shape}, not {shape}: {rule}")
    if indices is not None:
        key, bound, what = indices
        values = state[key]
        bad = ~((values >= 0) & (values < bound) & (values == np.floor(values)))
        if bad.any():
            raise ValueError(f"{where}: {key!r} holds {values[bad][0].item()!r}, not {what}")


def _finish(columns, names, provenance, raw_scores=None) -> EncoderMatrix:
    """The constant column plus the non-constant ``columns``, with their scales."""
    columns = np.column_stack([np.ones(columns.shape[0]), columns])
    scales = columns.std(axis=0)
    scales = np.where(scales > _ZERO_VAR, scales, 1.0)
    scales[0] = 1.0
    return EncoderMatrix(columns, names, provenance, scales, raw_scores)


def _state_columns(state, X, model):
    """The non-constant columns of provenance ``state`` on records ``X``, and
    the model's raw margins on ``X`` read off the walk that formed tree-pca
    columns (None without one)."""
    kind = state["kind"]
    if kind == "additive":
        return _additive_columns(X, state), None
    if kind not in ("tree-pca", "shapley"):
        raise ValueError(f"unknown provenance kind {kind!r}")
    if model is None:
        raise ValueError(f"{kind} re-evaluation needs the model")
    if kind == "tree-pca":
        columns = np.empty((X.shape[0], state["loadings"].shape[1]))
        raw = model.predict_raw(X, _tree_pca_writer(state, model.n_trees, columns))
        return columns, raw
    return _shapley_columns(exact_marginal_shapley(model, X, state["background"]), state), None


# --------------------------------------------------------------------------
# additive polynomial corrections
# --------------------------------------------------------------------------


def _legendre_eval(t, degree):
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    return npleg.legval(t, coeffs)


def additive_encoders(X, degree: int, basis: str = DEFAULT_BASIS, feature_names=None) -> EncoderMatrix:
    """Per-feature polynomial columns {1} U {q_j(x_i)} for j = 1..degree.

    The Legendre basis is evaluated after mapping each feature affinely from
    its observed [min, max] onto [-1, 1]; zero-range features are dropped
    under that basis (their columns would be constant).
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if basis not in ("legendre", "monomial"):
        raise ValueError(f"unknown basis {basis!r}")
    X = np.asarray(X, dtype=float)
    n_features = X.shape[1]
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(n_features)]
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    kept = [i for i in range(n_features) if basis == "monomial" or hi[i] - lo[i] > 0]
    names = ["const"] + [f"{basis}:{feature_names[i]}:{j}" for i in kept for j in range(1, degree + 1)]
    provenance = {
        "kind": "additive",
        "basis": basis,
        "degree": degree,
        "kept_features": np.asarray(kept, dtype=float),
        "lo": lo,
        "hi": hi,
    }
    return _finish(_additive_columns(X, provenance), names, provenance)


def _additive_columns(X, state) -> np.ndarray:
    """q_j of each kept feature, j = 1..degree, feature by feature."""
    lo, hi = state["lo"], state["hi"]
    if X.shape[1] != lo.size:
        raise ValueError(f"additive encoders were fit on {lo.size} features, got {X.shape[1]}")
    degree = int(state["degree"])
    kept = state["kept_features"].astype(np.intp)
    columns = np.empty((X.shape[0], kept.size * degree))
    for k, i in enumerate(kept):
        for j in range(1, degree + 1):
            if state["basis"] == "monomial":
                columns[:, k * degree + j - 1] = X[:, i] ** j
            else:
                t = 2.0 * (X[:, i] - lo[i]) / (hi[i] - lo[i]) - 1.0
                columns[:, k * degree + j - 1] = _legendre_eval(t, j)
    return columns


# --------------------------------------------------------------------------
# tree rebalancing through principal components
# --------------------------------------------------------------------------


def tree_pca_encoders(ensemble: Ensemble, X, r: int) -> EncoderMatrix:
    """Top-r principal components of the per-tree outputs.

    Zero-variance trees are excluded before the eigendecomposition.  Each
    loading vector is sign-fixed so its largest-magnitude coordinate is
    positive; loadings and column means are stored so the components can be
    reproduced on new records exactly.  Rows beyond ``PCA_ROW_CAP`` are
    thinned on an evenly spaced index grid before the moments are formed.

    Two walks of the trees, and no records x trees matrix: the first merges
    the per-tree outputs of blocks of rows into their means and one
    trees x trees co-moment (``_tree_moments``); the second forms the
    columns, and the records' raw margins, through ``_state_columns``, the
    walk ``reevaluate`` takes.  So build and ``reevaluate`` agree bitwise
    on the build records, and the margins are bitwise ``predict_raw``.
    """
    if ensemble.n_trees < 1:
        raise ValueError("ensemble must contain at least one tree")
    if r < 1:
        raise ValueError(f"need at least one component, got {r}")
    if r > ensemble.n_trees:
        raise ValueError(f"requested {r} components from {ensemble.n_trees} trees")
    X = np.asarray(X, dtype=float)
    if r > X.shape[0]:
        raise ValueError("more components than records")
    rows = X
    if X.shape[0] > PCA_ROW_CAP:
        rows = X[np.linspace(0, X.shape[0] - 1, PCA_ROW_CAP).astype(np.intp)]
    kept, means, eigenvalues, loadings = _tree_components(ensemble, rows, r)
    provenance = {
        "kind": "tree-pca",
        "kept_trees": kept.astype(float),
        "tree_means": means,
        "loadings": loadings,
        "eigenvalues": eigenvalues,
    }
    names = ["const"] + [f"tree-pc{k + 1}" for k in range(r)]
    # centering happens in tree-output space (tree_means), not per column
    columns, raw = _state_columns(provenance, X, ensemble)
    return _finish(columns, names, provenance, raw)


def _tree_components(ensemble, X, r):
    """The trees with varying output on ``X``, their means, and the top-r
    eigenvalues and sign-fixed loadings of their covariance.  The co-moment
    is cut to the kept trees and divided in place, so it is the only
    trees x trees array alive while ``_top_eigenpairs`` runs."""
    means, comoment = _tree_moments(ensemble, X)
    kept = np.flatnonzero(np.diagonal(comoment) / X.shape[0] > _ZERO_VAR)
    if r > kept.size:
        raise ValueError(f"only {kept.size} trees have varying output, cannot take {r} components")
    if kept.size < ensemble.n_trees:
        comoment = comoment[np.ix_(kept, kept)]
    comoment /= max(X.shape[0] - 1, 1)
    eigenvalues, loadings = _top_eigenpairs(comoment, r)
    flip = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(r)] < 0
    loadings[:, flip] *= -1.0
    return kept, means[kept], eigenvalues, loadings


def _top_eigenpairs(cov, r):
    """The r largest eigenvalues of the positive semidefinite ``cov``, in
    descending order, and their unit eigenvectors (n x r): subspace
    iteration on a block of p = min(2r, n) orthonormal vectors Q, with a
    Rayleigh-Ritz step on each (Saad, Numerical Methods for Large
    Eigenvalue Problems, 2011, ch. 5).

    The block starts from a fixed Gaussian draw.  A step forms C Q once:
    the p x p ``eigh`` of Q^T (C Q) gives the Ritz values theta and vectors
    X = Q S, and (C Q) S = C X their residuals.  Once every top-r residual
    |C x - theta x| is at most ``_RITZ_TOL`` * theta_1, the top r Ritz pairs
    are returned; with p = n the first step is exact.  Otherwise the QR of
    the filtered Ritz vectors (``_chebyshev_filter``) is the next Q.  After
    ``_RITZ_STEPS`` steps a ``ValueError`` names r, theta_r and theta_p,
    whose ratio sets the rate.  The n x p work blocks are made once and
    written in place; only each QR returns a new block."""
    n = cov.shape[0]
    p = min(2 * r, n)
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((n, p)))[0]
    product, ritz, ritz_product, work, spare = (np.empty((n, p)) for _ in range(5))
    residual = work[:, :r]
    for _ in range(_RITZ_STEPS):
        np.matmul(cov, basis, out=product)
        theta, rotation = np.linalg.eigh(basis.T @ product)
        theta, rotation = theta[::-1], rotation[:, ::-1]
        np.matmul(basis, rotation, out=ritz)
        np.matmul(product, rotation, out=ritz_product)
        np.multiply(ritz[:, :r], theta[:r], out=residual)
        residual -= ritz_product[:, :r]
        if np.max(np.einsum("ij,ij->j", residual, residual)) <= (_RITZ_TOL * theta[0]) ** 2:
            return theta[:r].copy(), ritz[:, :r].copy()
        basis = np.linalg.qr(_chebyshev_filter(cov, ritz, ritz_product, theta, r, work, spare))[0]
    raise ValueError(
        f"tree-pca: the top {r} eigenvectors of the trees' covariance did not converge in {_RITZ_STEPS} "
        f"subspace steps of {p} vectors: theta_{r} = {theta[r - 1]:.6g} against theta_{p} = {theta[-1]:.6g}, "
        "too close a gap between the kept components and the rest"
    )


def _chebyshev_filter(cov, ritz, ritz_product, theta, r, work, spare):
    """f(C) X for the Ritz vectors X = ``ritz`` (C X = ``ritz_product``) and
    the scaled Chebyshev filter of Zhou and Saad (2007),
    f_m(t) = T_m((t - h) / h) / T_m((theta_1 - h) / h), h = theta_p / 2
    (0 if theta_p < 0).  It damps [0, theta_p] and is 1 at theta_1, so an
    eigenvalue lambda_k > theta_p gains about acosh(2 lambda_k / theta_p - 1)
    nepers per product on those below, where a power step gains
    ln(lambda_k / theta_p).  Each column holds one Ritz vector, so the
    columns grow apart without mixing, until the rounding a column carries
    in the top directions outgrows it (``_FILTER_RANGE``).

    f_1 = g_1 (t - h) with g_1 = 1 / (theta_1 - h), then
    f_{k+1} = 2 g_{k+1} ((t - h) f_k - h^2 g_k / 2 f_{k-1}) with
    g_{k+1} = 1 / (2 (theta_1 - h) - h^2 g_k); written with g rather than
    1 / h, it stays finite as theta_p goes to 0, where f_m(t) becomes
    (t / theta_1)^m.  The degree is ``_FILTER_DEGREE``, or the last below it
    whose |f(theta_r)| is at least 1 / ``_FILTER_RANGE`` (at least 1).
    Overwrites ``ritz`` and the work blocks; returns the block that holds
    the result."""
    h = max(theta[-1], 0.0) / 2
    top = theta[0] - h
    g = 1.0 / top
    shifted = theta[r - 1] - h
    at_r = (1.0, g * shifted)  # f_{k-1}(theta_r), f_k(theta_r)
    previous, current, following = ritz, work, spare
    np.multiply(ritz, h, out=current)
    np.subtract(ritz_product, current, out=current)
    current *= g
    for _ in range(_FILTER_DEGREE - 1):
        g_next = 1.0 / (2.0 * top - h * h * g)
        at_r = (at_r[1], 2.0 * g_next * (shifted * at_r[1] - h * h * g / 2.0 * at_r[0]))
        if abs(at_r[1]) * _FILTER_RANGE < 1.0:
            break
        # following = 2 g_next ((C f_k - h^2 g / 2 f_{k-1}) - h f_k), with no temporaries
        np.matmul(cov, current, out=following)
        previous *= h * h * g / 2.0
        following -= previous
        np.multiply(current, h, out=previous)
        following -= previous
        following *= 2.0 * g_next
        g = g_next
        previous, current, following = current, following, previous
    return current


def _tree_moments(ensemble, X):
    """Means of the per-tree outputs on the records ``X`` and their centred
    co-moment, sum_i (T(x_i) - mean)(T(x_i) - mean)^T, in one pass over
    blocks of about ``_PCA_BLOCK_CELLS`` outputs.  Each block is centred on
    its own means and merged pairwise (Chan, Golub and LeVeque, 1983):
    merging n_b rows into n_a moves the means by delta * n_b / n and adds
    delta delta^T * n_a n_b / n to the co-moment, delta the difference of
    the means."""
    n_trees = ensemble.n_trees
    means = np.zeros(n_trees)
    comoment = np.zeros((n_trees, n_trees))
    work = np.empty_like(comoment)
    seen = 0
    step = max(1, _PCA_BLOCK_CELLS // n_trees)
    for start in range(0, X.shape[0], step):
        block = per_tree_outputs(ensemble, X[start:start + step])
        size = block.shape[0]
        block_means = block.mean(axis=0)
        block -= block_means
        np.matmul(block.T, block, out=work)
        comoment += work
        del block  # freed before the next block is formed
        delta = block_means - means
        total = seen + size
        means += delta * (size / total)
        np.outer(delta, delta * (seen * size / total), out=work)
        comoment += work
        seen = total
    return means, comoment


def _tree_pca_writer(state, n_trees, columns):
    """A block consumer of the tree walk (``each_block`` of ``predict_raw``)
    that writes each block's columns into ``columns``: the kept trees'
    outputs, centred by the stored means, on the loadings.  The kept rows of
    a block are gathered into one work array, reused from block to block."""
    kept = state["kept_trees"].astype(np.intp)
    if kept.size and kept.max() >= n_trees:
        raise ValueError(f"tree-pca encoders need at least {kept.max() + 1} trees, the model has {n_trees}")
    means, loadings = state["tree_means"], state["loadings"]
    work = None

    def write(rows, outputs):
        nonlocal work
        if work is None or work.shape[1] != outputs.shape[1]:
            work = np.empty((kept.size, outputs.shape[1]))
        np.take(outputs, kept, axis=0, out=work, mode="clip")  # kept < n_trees: "clip" never clips
        centred = work.T
        centred -= means
        columns[rows] = centred @ loadings

    return write


# --------------------------------------------------------------------------
# marginal Shapley rebalancing
# --------------------------------------------------------------------------


def exact_marginal_shapley(model: Ensemble, X, background) -> np.ndarray:
    """Exact Shapley attributions of the marginal-expectation game, one row
    per record of ``X`` and one column per feature.

    The game value of a coalition S at record x is the background average of
    the model with the S-features pinned to x.  This is the interventional
    TreeSHAP of Lundberg et al. (2020), read off the ensemble's leaves.

    A leaf's path tests at most D distinct features, its slots; a record's
    mask at the leaf is the set of slots it meets (paths with fewer than D
    slots are padded with slots every record meets).  For one record x and
    one background record z, a hybrid reaches the leaf only when every slot
    is met by x or by z.  Then, with a slots met by x alone and b by z
    alone, the leaf value v, times the learning rate, goes
    (a-1)! b! / (a+b)! to each of the a features and -a! (b-1)! / (a+b)! to
    each of the b.  So the background enters only through a histogram of
    its masks at each leaf: ``_pair_weights`` tabulates every (mask, mask)
    pair once, and one product with the histograms gives each leaf's
    expected attributions at each mask of x.  A record then reads one table
    entry per slot and adds it to the slot's feature, in slot order, so its
    attributions do not depend on the other records of its block.  The cost
    is O((records + background) * leaves * D + leaves * 4^D * D).
    """
    X = np.asarray(X, dtype=float)
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a nonempty record matrix")
    model._check_features(X)
    model._check_features(background)
    values, lo, hi, tested, depth = treeshap_leaves(model)
    # slot d of leaf l: its d-th tested feature, then untested ones (met by every record)
    feature = np.argsort(~tested, axis=1, kind="stable")[:, :depth]
    lo, hi = np.take_along_axis(lo, feature, axis=1), np.take_along_axis(hi, feature, axis=1)
    slot_leaf, slot = np.nonzero(np.take_along_axis(tested, feature, axis=1))
    slot_feature = feature[slot_leaf, slot]
    weights = _pair_weights(depth).reshape(1 << depth, -1)
    scale = model.learning_rate * values / background.shape[0]
    phi = np.zeros(X.shape)
    n_features = X.shape[1]
    block_leaves = max(1, _TREESHAP_CELLS // max(weights.shape[1], 1))
    for first in range(0, values.size, block_leaves):
        n_leaves = min(block_leaves, values.size - first)
        leaves = slice(first, first + n_leaves)
        in_block = slice(*np.searchsorted(slot_leaf, [first, first + n_leaves]))
        leaf, d = slot_leaf[in_block] - first, slot[in_block]
        rows = max(1, _TREESHAP_CELLS // max(n_leaves * depth, 1))
        counts = np.zeros(n_leaves << depth)  # background masks per leaf
        for start in range(0, background.shape[0], rows):
            masks = _slot_masks(background[start:start + rows], feature[leaves], lo[leaves], hi[leaves])
            counts += np.bincount((masks + (np.arange(n_leaves) << depth)).ravel(), minlength=counts.size)
        # (leaves, 2^D * D): each slot's expected attribution, per mask of x
        table = (counts.reshape(n_leaves, -1) @ weights) * scale[leaves, None]
        entry = (leaf << depth) * depth + d
        for start in range(0, X.shape[0], rows):
            masks = _slot_masks(X[start:start + rows], feature[leaves], lo[leaves], hi[leaves])
            cell = np.arange(masks.shape[0])[:, None] * n_features + slot_feature[in_block]
            gathered = table.ravel()[masks[:, leaf] * depth + entry]
            # bincount adds in index order: each record's slots in slot order
            phi[start:start + rows] += np.bincount(
                cell.ravel(), gathered.ravel(), minlength=masks.shape[0] * n_features
            ).reshape(-1, n_features)
    return phi


def treeshap_leaves(model: Ensemble):
    """``leaf_boxes`` of ``model``, the (leaves, features) mask of the
    features each leaf's path tests, and D, the most any path tests.  A
    ``ValueError`` rejects D above ``_MAX_PATH_FEATURES``: the check that
    commands building Shapley columns run when they load the model."""
    values, lo, hi = leaf_boxes(model)
    tested = (lo > -np.inf) | (hi < np.inf)
    depth = int(tested.sum(axis=1).max(initial=0))
    if depth > _MAX_PATH_FEATURES:
        raise ValueError(
            f"a tree path tests {depth} distinct features; TreeSHAP tables grow as 4^{depth}, "
            f"more than {_MAX_PATH_FEATURES} are not supported"
        )
    return values, lo, hi, tested, depth


def _slot_masks(X, feature, lo, hi) -> np.ndarray:
    """(records, leaves) masks: bit d is set where the record meets slot d,
    the interval (lo, hi] of feature ``feature[:, d]``.  An infinite bound is
    met by every value; NaN goes right at every test, so it fails a finite
    ``hi`` and meets a finite ``lo``."""
    masks = np.zeros((X.shape[0], feature.shape[0]), dtype=np.intp)
    for d in range(feature.shape[1]):
        x = X[:, feature[:, d]]
        meets = (x <= hi[:, d]) | (hi[:, d] == np.inf)
        meets &= ~(x <= lo[:, d]) | (lo[:, d] == -np.inf)
        masks += meets * (1 << d)
    return masks


def _pair_weights(depth) -> np.ndarray:
    """(2^D, 2^D, D) table: entry [mz, mx, d] is slot d's share of a leaf of
    unit value, for a record with mask mx against a background record with
    mask mz (zero unless mx | mz holds every slot)."""
    bits = (np.arange(1 << depth)[:, None] >> np.arange(depth)) & 1 == 1
    x_only = bits[None, :, :] & ~bits[:, None, :]
    z_only = bits[:, None, :] & ~bits[None, :, :]
    covered = (bits[None, :, :] | bits[:, None, :]).all(axis=2, keepdims=True)
    a = x_only.sum(axis=2, keepdims=True)
    b = z_only.sum(axis=2, keepdims=True)
    fact = np.array([math.factorial(k) for k in range(depth + 1)], dtype=float)
    gain = fact[np.maximum(a - 1, 0)] * fact[b] / fact[a + b]
    loss = fact[a] * fact[np.maximum(b - 1, 0)] / fact[a + b]
    return np.where(covered & x_only, gain, np.where(covered & z_only, -loss, 0.0))


def shapley_encoders(
    model: Ensemble, X, background_size: int = DEFAULT_BACKGROUND_SIZE, seed: int = 0
) -> EncoderMatrix:
    """Columns {1} U {phi_i(x)} of exact marginal Shapley values of ``model``.

    Columns are centered to mean zero on the build records (the centres are
    the provenance's ``phi_centers``).  The background is ``background_size``
    build records drawn with ``seed``.
    """
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    take = min(background_size, X.shape[0])
    background = X[rng.choice(X.shape[0], size=take, replace=False)]
    values = exact_marginal_shapley(model, X, background)
    names = ["const"] + [f"shapley:x{i}" for i in range(X.shape[1])]
    provenance = {"kind": "shapley", "background": background, "phi_centers": values.mean(axis=0)}
    return _finish(_shapley_columns(values, provenance), names, provenance)


def _shapley_columns(values, state) -> np.ndarray:
    """Attributions centred by the build records' means."""
    return values - state["phi_centers"]
