"""Synthetic data generators, numeric CSV ingestion, deterministic splits,
and train-fitted mean imputation.

The two synthetic generators share one template: five conditionally normal
features whose group-0 means are shifted down by per-feature offsets, and a
Bernoulli label driven by the logistic of twice the centered feature sum.
Normal draws use the inverse-CDF method so any implementation with the same
marginals reproduces the moments (streams are not expected to match across
languages; statistical tolerances apply).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from ._util import fmt_float, sigmoid

_FEATURE_MEAN = 5.0
_LABEL_SHIFT = 24.5
_M1_OFFSETS = np.array([10.0, -4.0, 16.0, 1.0, -3.0]) / 20.0
_M2_OFFSETS = np.array([2.5, 1.0, 4.0, -0.25, 0.75]) / 10.0


def _m1_variances(g):
    return np.column_stack([0.5 + g, np.ones_like(g), np.ones_like(g), 1.0 - 0.5 * g, 1.0 - 0.75 * g])


def _m2_variances(g):
    return np.column_stack([0.5 + 0.75 * g, np.ones_like(g), np.ones_like(g), 1.0 - 0.75 * g, np.ones_like(g)])


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    g: np.ndarray
    feature_names: list
    preprocessing: dict = field(default=None)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.g = np.asarray(self.g, dtype=np.intp).ravel()
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size or self.y.size != self.g.size:
            raise ValueError("row counts disagree")
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("one name per feature required")

    @property
    def n_records(self) -> int:
        return self.y.size


def _standard_normal(rng: np.random.Generator, shape):
    # inverse-CDF sampling; clip away an exact 0 draw before ndtri
    u = rng.random(shape)
    return ndtri(np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16))


def _generate(n_records: int, seed: int, offsets, variance_fn) -> Dataset:
    if n_records < 2:
        raise ValueError("need at least two records")
    rng = np.random.default_rng(seed)
    g = (rng.random(n_records) < 0.5).astype(float)
    means = _FEATURE_MEAN - offsets[None, :] * (1.0 - g)[:, None]
    sd = np.sqrt(variance_fn(g))
    X = means + sd * _standard_normal(rng, (n_records, offsets.size))
    p = sigmoid(2.0 * (X.sum(axis=1) - _LABEL_SHIFT))
    y = (rng.random(n_records) < p).astype(float)
    names = [f"x{i + 1}" for i in range(offsets.size)]
    return Dataset(X, y, g.astype(np.intp), names)


def generate_m1(n_records: int, seed: int) -> Dataset:
    """Five-feature synthetic task whose group gaps all push bias one way."""
    return _generate(n_records, seed, _M1_OFFSETS, _m1_variances)


def generate_m2(n_records: int, seed: int) -> Dataset:
    """Variant with offsets of mixed sign, so some features cut bias at some
    thresholds and raise it at others."""
    return _generate(n_records, seed, _M2_OFFSETS, _m2_variances)


def split(dataset: Dataset, fraction: float = 0.5, seed: int = 0):
    """Deterministic shuffle split into (train, test)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_records)
    cut = int(round(fraction * dataset.n_records))
    tr, te = order[:cut], order[cut:]
    for part in (tr, te):
        present = np.unique(dataset.g[part])
        if present.size < np.unique(dataset.g).size:
            raise ValueError("a split lost an entire group; adjust fraction or seed")
    make = lambda rows: Dataset(
        dataset.X[rows], dataset.y[rows], dataset.g[rows], list(dataset.feature_names)
    )
    return make(tr), make(te)


def fit_preprocessor(train: Dataset) -> dict:
    """Imputation means, fitted on the train split only."""
    X = train.X
    with np.errstate(invalid="ignore"):
        means = np.nanmean(X, axis=0)
    means = np.where(np.isfinite(means), means, 0.0)
    return {
        "impute_means": means.tolist(),
        "had_missing": np.isnan(X).any(axis=0).tolist(),
    }


def apply_preprocessor(dataset: Dataset, prep: dict) -> Dataset:
    means = np.asarray(prep["impute_means"], dtype=float)
    X = np.where(np.isnan(dataset.X), means[None, :], dataset.X)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values survived preprocessing")
    return Dataset(X, dataset.y, dataset.g, list(dataset.feature_names), preprocessing=prep)


def save_csv(dataset: Dataset, path, label_column="label", group_column="group"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + [label_column, group_column])
        for i in range(dataset.n_records):
            row = ["" if np.isnan(v) else fmt_float(v) for v in dataset.X[i]]
            writer.writerow(row + [str(int(dataset.y[i])), str(int(dataset.g[i]))])


def save_sidecar(dataset: Dataset, path, extra: dict = None):
    doc = {
        "feature_names": list(dataset.feature_names),
        "n_records": int(dataset.n_records),
        "preprocessing": dataset.preprocessing,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def load_csv(path, label_column="label", group_column="group") -> Dataset:
    """Numeric CSV with a header; empty cells are missing values.

    Labels must be binary 0/1; group codes are arbitrary integers remapped to
    0..K-1 with 0 the most frequent group.
    Offending cells are reported with row and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    for required in (label_column, group_column):
        if required not in header:
            raise ValueError(f"{path}: missing column {required!r}")
    label_idx = header.index(label_column)
    group_idx = header.index(group_column)
    feature_idx = [i for i in range(len(header)) if i not in (label_idx, group_idx)]
    names = [header[i] for i in feature_idx]

    X = np.empty((len(rows), len(feature_idx)))
    y = np.empty(len(rows))
    g_raw = np.empty(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        for c, i in enumerate(feature_idx):
            cell = row[i].strip()
            if cell == "":
                X[r, c] = np.nan
                continue
            try:
                X[r, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} at row {r + 2}, column {header[i]!r}"
                ) from None
        try:
            y[r] = float(row[label_idx])
        except ValueError:
            raise ValueError(f"{path}: non-numeric label at row {r + 2}") from None
        if y[r] not in (0.0, 1.0):
            raise ValueError(f"{path}: non-binary label {row[label_idx]!r} at row {r + 2}")
        try:
            g_raw[r] = int(float(row[group_idx]))
        except ValueError:
            raise ValueError(f"{path}: non-integer group at row {r + 2}") from None

    codes, counts = np.unique(g_raw, return_counts=True)
    if codes.size < 2:
        raise ValueError(f"{path}: need at least two groups")
    order = codes[np.argsort(-counts, kind="stable")].tolist()
    remap = {code: k for k, code in enumerate(order)}
    g = np.array([remap[v] for v in g_raw], dtype=np.intp)
    return Dataset(X, y, g, names)
