"""Candidate evaluation and efficient-frontier extraction.

Candidates are scored with the exact metrics (cross-entropy, rank AUC with
midrank ties, and the W1 / Kolmogorov-Smirnov / invariant biases of the
probability scores by group), all but the cross-entropy read from one
stable sort of the candidate's scores, then weakly dominated points are
removed.
The raw nondominated frontier is reported, without a convex envelope, which
would discard achievable non-convex trade-offs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from ._util import cross_entropy, fmt_float
from .bias_metrics import GroupedScores, _require_two_groups, _snapped_invariant
from .distributions import EmpiricalDistribution, wasserstein1

_METRIC_FIELDS = ("ce", "auc", "w1_bias", "ks_bias", "inv_bias")


@dataclass
class FrontierPoint:
    method: str
    omega: float
    split: str
    ce: float
    auc: float
    w1_bias: float
    ks_bias: float
    inv_bias: float
    theta: np.ndarray = field(default=None)

    def __post_init__(self):
        for name in _METRIC_FIELDS:
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"non-finite metric {name}")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError("AUC outside [0, 1]")
        for name in ("w1_bias", "ks_bias", "inv_bias"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative bias metric {name}")


def _sorted_midranks(ordered) -> np.ndarray:
    """The midranks of the sorted values ``ordered``, in that order: 1-based
    positions with each tie run given its mean."""
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = np.cumsum(starts)
    # count[k - 1] .. count[k] - 1 are the 0-based sorted positions of run k
    count = np.r_[np.flatnonzero(starts), ordered.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _midranks(values) -> np.ndarray:
    """1-based ranks of ``values`` with each tie group given its mean rank
    (``scipy.stats.rankdata(method="average")``); NaN anywhere makes every
    rank NaN."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    ranks[order] = _sorted_midranks(values[order])
    return ranks


def _class_counts(labels):
    """The positives of ``labels`` and the two class counts, or ``ValueError``
    when a class is missing."""
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    return pos, n_pos, n_neg


def _auc(ranks, pos, n_pos, n_neg) -> float:
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rank_auc(scores, labels) -> float:
    """Probability a positive outranks a negative, with midrank ties."""
    counts = _class_counts(labels)
    return _auc(_midranks(scores), *counts)


def score_metrics(probs, labels, groups) -> dict:
    """Exact metric block for one candidate's probability scores.

    Every metric but the cross-entropy is read from one stable sort of the
    scores, group 0's then group 1's (the sort of ``GroupedScores.pooled``):
    each group's sorted scores and their pooled atoms, the midranks, and the
    W1, KS and invariant biases.  The KS distance reads the group scores on
    the pooled atoms, as the invariant bias does, so scores crowded within
    ``MERGE_TOL`` read as one atom.  Non-finite scores, a single class and
    more than two groups raise ``ValueError`` before the sort.
    """
    g = GroupedScores.from_labels(probs, groups)
    if not all(np.isfinite(s).all() for s in g.scores_by_group):
        raise ValueError("non-finite atom or weight")
    counts = _class_counts(labels)
    _require_two_groups(g)
    pooled, order, ordered, atom = g._pooled_sort()
    atoms = g._by_group(order, atom)
    cdfs, inv_bias = _snapped_invariant(pooled, atoms)
    raw = [EmpiricalDistribution._uniform_sorted(v) for v in g._by_group(order, ordered)]
    groups = np.asarray(groups).ravel()
    record = np.concatenate([np.flatnonzero(groups == k) for k in (0, 1)])
    ranks = np.empty(ordered.size)
    ranks[record[order]] = _sorted_midranks(ordered)
    return {
        "ce": cross_entropy(probs, labels),
        "auc": _auc(ranks, *counts),
        "w1_bias": wasserstein1(*raw),
        "ks_bias": float(np.max(np.abs(cdfs[0] - cdfs[1]))),
        "inv_bias": inv_bias,
    }


def evaluate(candidates, labels, groups, split: str, method: str):
    """FrontierPoints for scored candidates on one data split, in the order
    given.

    ``candidates`` yields ``(omega, theta, probs)``: a candidate's fairness
    weight, its parameters, and its probability scores on this split's
    records.  Every frontier (the sweep's and both baselines') is scored
    here, with the exact metrics of ``score_metrics``.
    """
    labels = np.asarray(labels, dtype=float).ravel()
    groups = np.asarray(groups).ravel()
    return [
        FrontierPoint(
            method, float(omega), split, theta=np.asarray(theta, dtype=float), **score_metrics(probs, labels, groups)
        )
        for omega, theta, probs in candidates
    ]


def pareto_filter(points):
    """Weakly dominated points removed; survivors sorted by bias ascending.

    A point is dropped when another has W1 bias and cross-entropy both no
    worse and one strictly better; exact metric-pair duplicates collapse to
    one.
    """
    if not points:
        raise ValueError("no points to filter")
    coords = [(p.w1_bias, p.ce) for p in points]
    order = sorted(range(len(points)), key=lambda i: coords[i])
    kept = []
    best_loss = np.inf
    for i in order:
        bias, loss = coords[i]
        # the sweep sees each bias level at its lowest loss first, so any
        # point not strictly improving the loss is weakly dominated (this
        # also collapses exact duplicates)
        if loss >= best_loss:
            continue
        kept.append(points[i])
        best_loss = loss
    return kept


CSV_HEADER = ["method", "omega", "split", "ce", "auc", "w1_bias", "ks_bias", "inv_bias", "theta_json"]


def _point_row(p: FrontierPoint):
    theta_json = "[]" if p.theta is None else "[" + ",".join(fmt_float(v) for v in p.theta) + "]"
    return [
        p.method,
        fmt_float(p.omega),
        p.split,
        fmt_float(p.ce),
        fmt_float(p.auc),
        fmt_float(p.w1_bias),
        fmt_float(p.ks_bias),
        fmt_float(p.inv_bias),
        theta_json,
    ]


def write_frontier_csv(points, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for p in points:
            writer.writerow(_point_row(p))


# the numeric columns of frontier.csv, each with the reading of its cells
_CELL_READERS = {
    **{name: float for name in ("omega", *_METRIC_FIELDS)},
    "theta_json": lambda cell: np.asarray(json.loads(cell), dtype=float),
}


def read_frontier_csv(path):
    """The points of a frontier.csv.  A missing column, a cell that does not
    parse, or a point that ``FrontierPoint`` rejects raises ``ValueError``
    naming the file, the row and, for a cell, its column."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in CSV_HEADER:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: missing column {name!r}")
        for r, row in enumerate(reader, 2):
            values = {}
            for name, read in _CELL_READERS.items():
                try:
                    values[name] = read(row[name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: row {r}, column {name!r}: {exc}") from None
            theta = values.pop("theta_json")
            try:
                points.append(FrontierPoint(row["method"], split=row["split"], theta=theta, **values))
            except ValueError as exc:
                raise ValueError(f"{path}: row {r}: {exc}") from None
    return points


# ---------------------------------------------------------------------------
# SVG report: two panels (cross-entropy vs W1, AUC vs KS), one polyline per
# method.  The plotted rows are embedded verbatim as a data table so reports
# can be compared independently of the graphics markup.
# ---------------------------------------------------------------------------

_PANEL = dict(width=420, height=340, margin=50)
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def _panel_svg(points_by_method, x_attr, y_attr, x_label, y_label, offset_x):
    w, h, m = _PANEL["width"], _PANEL["height"], _PANEL["margin"]
    xs = [getattr(p, x_attr) for pts in points_by_method.values() for p in pts]
    ys = [getattr(p, y_attr) for pts in points_by_method.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(v):
        return offset_x + m + (v - x_lo) / x_span * (w - 2 * m)

    def sy(v):
        return h - m - (v - y_lo) / y_span * (h - 2 * m)

    parts = [
        f'<rect x="{offset_x + m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{offset_x + w / 2:.1f}" y="{h - 12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="{offset_x + 14}" y="{h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 {offset_x + 14} {h / 2:.1f})">{y_label}</text>',
    ]
    for color, (method, pts) in zip(_COLORS * 8, sorted(points_by_method.items())):
        ordered = sorted(pts, key=lambda p: (getattr(p, x_attr), getattr(p, y_attr)))
        path = " ".join(f"{sx(getattr(p, x_attr)):.2f},{sy(getattr(p, y_attr)):.2f}" for p in ordered)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for p in ordered:
            parts.append(
                f'<circle cx="{sx(getattr(p, x_attr)):.2f}" cy="{sy(getattr(p, y_attr)):.2f}" '
                f'r="3" fill="{color}"/>'
            )
    return parts


def write_frontier_svg(points, path):
    """Two-panel frontier scatter with an embedded plain-text data table."""
    by_method = {}
    for p in points:
        by_method.setdefault(p.method, []).append(p)
    w, h = _PANEL["width"], _PANEL["height"]
    body = []
    body += _panel_svg(by_method, "w1_bias", "ce", "W1 bias", "cross-entropy", 0)
    body += _panel_svg(by_method, "ks_bias", "auc", "KS bias", "AUC", w + 20)
    legend = []
    for i, method in enumerate(sorted(by_method)):
        color = (_COLORS * 8)[i]
        legend.append(
            f'<rect x="{20 + 150 * i}" y="6" width="10" height="10" fill="{color}"/>'
            f'<text x="{34 + 150 * i}" y="15" font-size="11">{method}</text>'
        )
    table = "\n".join(",".join(_point_row(p)) for p in points)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * w + 20}" height="{h + 24}">\n'
        + "\n".join(legend)
        + f'\n<g transform="translate(0,24)">\n'
        + "\n".join(body)
        + "\n</g>\n"
        + f"<!--DATA\n{','.join(CSV_HEADER)}\n{table}\nDATA-->\n"
        + "</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(svg)
