"""Synthetic data generators, numeric CSV ingestion, deterministic splits,
and train-fitted mean imputation.

The two synthetic generators share one template: five conditionally normal
features whose group-0 means are shifted down by per-feature offsets, and a
Bernoulli label driven by the logistic of twice the centered feature sum.
Normal draws use the inverse-CDF method so any implementation with the same
marginals reproduces the moments (streams are not expected to match across
languages; statistical tolerances apply).  The inverse normal CDF is a numpy
port of Cephes ``ndtri``, the algorithm behind ``scipy.special.ndtri``, and
returns the same bits, so the package needs no scipy at run time.

``save_csv`` writes each feature cell in its shortest round-trip decimal
form (``repr`` of the float, so a load gives back the same bits), a missing
value as an empty cell, and the label and group as integers.  Both work
through blocks of 256 rows; ``load_csv`` converts each column of a block in
one pass and, where a file has several faults, reports the first in row
order (in a row: its cell count, the feature cells left to right, the label,
the group).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ._util import fmt_floats, sigmoid

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


# Cephes ndtri: a rational in (y - 1/2)^2 on the centre, |y - 1/2| < 1/2 - e^-2,
# and rationals in 1/z, z = sqrt(-2 log y), on the tails, split at z = 8
# (y = e^-32).  Coefficients highest degree first; the Q's leading 1 is left out.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule, coefficients highest degree first."""
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x, coef):
    """Horner's rule for a monic polynomial whose leading 1 is left out."""
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _libm_log(values):
    # np.log's SIMD loop may differ from libm by an ulp; Cephes takes libm's
    return np.array([math.log(v) for v in values.tolist()])


def _ndtri(y0):
    """Inverse of the standard normal CDF for y0 in the open interval (0, 1),
    bitwise equal to ``scipy.special.ndtri`` there."""
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    centre = y > _EXP_M2
    out = np.empty_like(y)
    c = y[centre] - 0.5
    c2 = c * c
    # each product and quotient in Cephes' order, so every rounding matches
    out[centre] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _p1evl(c2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~centre
    z = np.sqrt(-2.0 * _libm_log(y[tail]))
    inv = 1.0 / z
    near = inv * _polevl(inv, _NDTRI_P1) / _p1evl(inv, _NDTRI_Q1)
    far = inv * _polevl(inv, _NDTRI_P2) / _p1evl(inv, _NDTRI_Q2)
    x = (z - _libm_log(z) / z) - np.where(z < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _standard_normal(rng: np.random.Generator, shape):
    # inverse-CDF sampling; clip away an exact 0 draw before ndtri
    u = rng.random(shape)
    return _ndtri(np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16))


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


# rows per block written or read: a small block keeps the peak memory low
_BLOCK_ROWS = 256


def save_csv(dataset: Dataset, path, label_column="label", group_column="group"):
    """Write ``dataset`` as a numeric CSV with a header: each feature cell in
    its shortest round-trip decimal form, a missing (NaN) one empty, then the
    label and the group as integers (a NaN or infinite label raises)."""
    X, y, g = dataset.X, dataset.y, dataset.g
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(dataset.feature_names) + [label_column, group_column])
        for start in range(0, dataset.n_records, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = X[rows]
            lines = []
            for cells, missing, label, group in zip(
                block.tolist(), np.isnan(block).any(axis=1).tolist(), y[rows].tolist(), g[rows].tolist()
            ):
                cells = fmt_floats(cells)
                if missing:
                    cells = ["" if cell == "nan" else cell for cell in cells]
                cells += (str(int(label)), str(group))
                lines.append(",".join(cells))
            fh.write("\n".join(lines) + "\n")


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
    """Numeric CSV with a header.  An empty feature cell is a missing value,
    the only marker of one; a cell that parses to NaN or an infinity is an
    error.

    Labels must be binary 0/1; group codes are arbitrary integers remapped to
    0..K-1 with 0 the most frequent group.
    Offending cells are reported with row and column; where a file has more
    than one fault, the first in row order is reported (in a row: its length,
    the feature cells left to right, the label, the group).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for required in (label_column, group_column):
            if required not in header:
                raise ValueError(f"{path}: missing column {required!r}")
        label_idx = header.index(label_column)
        group_idx = header.index(group_column)
        feature_idx = [i for i in range(len(header)) if i not in (label_idx, group_idx)]
        # a block of rows at a time, so only one block's cells are held as
        # strings; the first faulty block holds the file's first fault
        blocks = []
        while True:
            rows = list(itertools.islice(reader, _BLOCK_ROWS))
            block = _columns(rows, len(header), feature_idx, label_idx, group_idx)
            if block is None:
                _first_fault(path, header, rows, _BLOCK_ROWS * len(blocks), feature_idx, label_idx, group_idx)
            blocks.append(block)
            if len(rows) < _BLOCK_ROWS:
                break
    X, y, g_raw = (np.concatenate(parts) for parts in zip(*blocks))

    codes, index, counts = np.unique(g_raw, return_inverse=True, return_counts=True)
    if codes.size < 2:
        raise ValueError(f"{path}: need at least two groups")
    rank = np.empty(codes.size, dtype=np.intp)
    rank[np.argsort(-counts, kind="stable")] = np.arange(codes.size)
    return Dataset(X, y, rank[index], [header[i] for i in feature_idx])


_INT64_END = 2.0**63


def _columns(rows, width, feature_idx, label_idx, group_idx):
    """``(X, y, groups)`` of ``rows``, converted a column at a time, or None
    where a row or a cell is at fault."""
    if set(map(len, rows)) - {width}:
        return None
    X = np.empty((len(rows), len(feature_idx)))
    for c, i in enumerate(feature_idx):
        values = _feature_column(rows, i)
        if values is None:
            return None
        X[:, c] = values
    y = _float_column(rows, label_idx)
    g = _float_column(rows, group_idx)
    if y is None or g is None or not np.all((y == 0.0) | (y == 1.0)):
        return None
    # whole numbers in int64's range; NaN fails every comparison
    if not np.all((g == np.floor(g)) & (g >= -_INT64_END) & (g < _INT64_END)):
        return None
    return X, y, g.astype(np.int64)


def _float_column(rows, i):
    """Cell ``i`` of every row as float64, or None where one does not parse.
    The cells are read in place: no list of the column is made."""
    try:
        return np.fromiter(map(float, map(itemgetter(i), rows)), dtype=float, count=len(rows))
    except ValueError:
        return None


def _feature_column(rows, i):
    """Feature column ``i`` as float64, an empty cell NaN; None where a cell
    does not parse or parses to NaN or an infinity."""
    values = _float_column(rows, i)
    if values is not None:
        return values if np.isfinite(values).all() else None
    cells = [row[i] for row in rows]
    present = [cell.strip() != "" for cell in cells]
    try:
        values = np.array([float(cell) if p else np.nan for cell, p in zip(cells, present)])
    except ValueError:
        return None
    return values if np.isfinite(values[present]).all() else None


def _first_fault(path, header, rows, start, feature_idx, label_idx, group_idx):
    """Raise the ``ValueError`` of the first fault of ``rows``, in row order;
    ``start`` records come before them in the file."""
    for r, row in enumerate(rows, start):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        for i in feature_idx:
            cell = row[i].strip()
            if cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} at row {r + 2}, column {header[i]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite cell {cell!r} at row {r + 2}, column {header[i]!r}")
        try:
            label = float(row[label_idx])
        except ValueError:
            raise ValueError(f"{path}: non-numeric label at row {r + 2}") from None
        if label not in (0.0, 1.0):
            raise ValueError(f"{path}: non-binary label {row[label_idx]!r} at row {r + 2}")
        try:
            group = float(row[group_idx])
        except ValueError:
            group = math.nan
        # a whole number in int64's range; not a fraction, NaN or an infinity
        if not (group.is_integer() and -_INT64_END <= group < _INT64_END):
            raise ValueError(f"{path}: non-integer group at row {r + 2}")
    raise AssertionError("a column failed to convert, yet no cell is at fault")
