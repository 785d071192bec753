"""Minimal deterministic gradient-boosted decision trees.

Logistic-loss boosting with squared-error regression trees fit to the
gradients, second-order leaf values, and optional early stopping on a
validation split.  Training labels may be soft, anywhere in [0, 1], one row
per record: the loss and its gradients are those of the label read as a
probability.  Split search is exact over sorted unique feature values, with
ties broken by lowest feature index then lowest threshold, so training is
bit-reproducible.  Each feature is sorted once per ``train`` call; a node's
rows stay in that order, filtered from its parent's, and one node searches
all features at once.  Each round's update of the training margins reads
every row's leaf from the fit.  The per-tree output matrix is exposed for
rebalancing, and ensembles serialize to a self-describing JSON document.

Prediction from a whole ensemble packs every tree into one node table and
walks all trees at once, a chunk of rows at a time: each distinct test is
compared once, the top two levels of every tree are read at once from its
three top tests' outcomes, and only an ensemble deeper than two walks on,
a level per step.  ``Tree.predict`` walks one tree and serves early
stopping's update of the validation margins.
One walk gives both the margins and the tree-pca columns: ``predict_raw``
hands each (trees, rows) block to an optional ``each_block`` callback (the
columns) before adding it into the margins.  ``per_tree_outputs`` copies
the blocks into a records x trees matrix; the tree-pca build takes its
moments from such matrices of bounded blocks of rows.
"""

from __future__ import annotations

import json
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from ._util import cross_entropy, json_field, logit, read_json, sigmoid

_LAMBDA = 1.0          # ridge term on leaf values
_MARGIN_CLAMP = 10.0
_MIN_GAIN = 1e-12
_CHUNK_ROWS = 256      # rows per packed walk: keeps the (trees x rows) blocks small


@dataclass
class GBDTParams:
    depth: int = 4
    rounds: int = 300
    learning_rate: float = 0.08
    min_leaf: float = 16.0       # minimum number of records per child
    early_stop_rounds: int = 25  # 0 disables early stopping

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be nonnegative, got {self.rounds}")
        # NaN fails every comparison, so each check is written to pass only finite values
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (np.isfinite(self.min_leaf) and self.min_leaf >= 0):
            raise ValueError(f"min_leaf must be finite and nonnegative, got {self.min_leaf}")
        if self.early_stop_rounds < 0:
            raise ValueError(f"early_stop_rounds must be nonnegative, got {self.early_stop_rounds}")


@dataclass
class Tree:
    """Array-encoded binary tree; ``feature == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.intp)
        active = self.feature[idx] >= 0
        while np.any(active):
            node = idx[active]
            go_left = X[active, self.feature[node]] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
            active = self.feature[idx] >= 0
        return self.value[idx]


@dataclass(frozen=True)
class _PackedTrees:
    """Every tree of an ensemble in one flat node table, and each tree's
    top two levels in tables of four.

    The trees' nodes lie end to end: node ``i`` of tree ``t`` sits at slot
    ``roots[t] + i``.  An internal node's test is an index into the
    ensemble's distinct (feature, threshold) pairs, so a chunk of rows
    compares each distinct test once.  A leaf is its own left and right
    child, and tests row ``U`` of the outcomes, a constant that goes left:
    so a row that reaches a leaf, NaN rows included, stays on it however
    many steps the walk takes.

    The walk reads a tree's top two levels at once: the outcomes of its
    root's test and of its two children's tests make a 2-bit code, root
    then child, 1 for right, and ``4 t + code`` indexes the slot two levels
    down (``slot``) and its value (``leaf``, used when no tree is deeper).
    """

    feature: np.ndarray    # (U,) distinct tests: x[feature] <= threshold goes left
    threshold: np.ndarray  # (U,)
    test: np.ndarray       # (nodes,) test of each internal node, U for a leaf
    child: np.ndarray      # (2 * nodes,) slot of the left, then right, child
    value: np.ndarray      # (nodes,) leaf values
    roots: np.ndarray      # (T,) slot of each root
    depth: int             # deepest leaf over all trees
    top: np.ndarray        # (3, T) tests of each root and of its left and right child
    slot: np.ndarray       # (4 T,) slot two levels below each root, by code
    leaf: np.ndarray       # (4 T,) value at that slot

    def blocks(self, X):
        """Yield ``(rows, outputs)`` per chunk of rows of ``X``: a row slice
        and the (T, rows) matrix of every tree's output on those rows.

        The work arrays, ``outputs`` included, are reused from chunk to
        chunk: a caller may overwrite ``outputs`` but is done with it
        before asking for the next chunk.
        """
        n_trees, n_tests = self.roots.size, self.feature.size
        threshold = self.threshold[:, None]
        quad = 4 * np.arange(n_trees)[:, None]
        work = None
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start:start + _CHUNK_ROWS].T
            n_rows = chunk.shape[1]
            if work is None or work[0].shape[1] != n_rows:
                work = (np.zeros((n_tests + 1, n_rows), bool), np.empty((n_tests, n_rows)),
                        np.empty((3, n_trees, n_rows), bool), np.empty((n_trees, n_rows), np.intp),
                        np.empty((n_trees, n_rows), np.intp), self.test * n_rows, np.arange(n_rows))
            outcome, tested, top, index, node, row_test, column = work
            # (U + 1, rows) outcomes, 1 for right; NaN fails <= and goes
            # right, as in Tree.predict; the last row stays 0
            np.take(chunk, self.feature, axis=0, out=tested, mode="clip")
            np.less_equal(tested, threshold, out=outcome[:-1])
            np.logical_not(outcome[:-1], out=outcome[:-1])
            # packing only stores valid indices, so "clip" never clips; it
            # lets take write into the work arrays without a copy
            np.take(outcome, self.top, axis=0, out=top, mode="clip")
            root, left, right = top
            right ^= left
            right &= root
            left ^= right  # the outcome of the child the root sends the row to
            code = root.view(np.uint8)
            np.add(code, code, out=code)
            np.add(code, left.view(np.uint8), out=code)
            np.add(code, quad, out=index)
            if self.depth <= 2:
                outputs = node.view(float)
                np.take(self.leaf, index, out=outputs, mode="clip")
            else:
                # the per-level walk from two levels down, in the same arrays
                np.take(self.slot, index, out=node, mode="clip")
                go_right = outcome.ravel()
                for _ in range(self.depth - 2):
                    np.take(row_test, node, out=index, mode="clip")
                    index += column
                    np.take(go_right, index, out=right, mode="clip")
                    np.left_shift(node, 1, out=index)
                    index += right
                    np.take(self.child, index, out=node, mode="clip")
                outputs = index.view(float)
                np.take(self.value, node, out=outputs, mode="clip")
            yield slice(start, start + n_rows), outputs


def _node_counts(counts) -> np.ndarray:
    """The node count of each tree from ``counts``, the (5, T) lengths of
    its node arrays (-1 for an array that is not flat); a tree whose arrays
    are empty or of unequal length raises ``ValueError`` naming it."""
    bad = (counts[0] <= 0) | np.any(counts != counts[0], axis=0)
    if bad.any():
        raise ValueError(f"tree {int(np.argmax(bad))}: node arrays must be nonempty, flat and of equal length")
    return counts[0]


def _pack(sizes, feature, threshold, left, right, value, n_features) -> _PackedTrees:
    """Pack trees for the joint walk, rejecting a malformed one.

    ``sizes`` holds each tree's node count and the node arrays hold the
    trees' nodes end to end.  The trees are walked together from their
    roots, a level at a time: a feature index outside ``[0, n_features)``, a
    child index out of range and a node reached twice (a cycle or a shared
    child) raise ``ValueError`` naming the lowest faulty tree and, within
    it, the shallowest faulty node.
    """
    n_trees, n_nodes = sizes.size, feature.size
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(n_trees), sizes)
    child = np.repeat(np.arange(n_nodes), 2)  # a leaf, or a node no path reaches, is its own child
    seen = np.zeros(n_nodes, bool)
    inner = [np.empty(0, np.intp)]
    node, level, depth, fault = roots, 0, 0, None
    while node.size:
        t = tree_of[node]
        f = feature[node]
        kids = np.stack([left[node], right[node]])
        again = seen[node]
        seen[node] = True
        order = np.argsort(node, kind="stable")
        again[order[1:][node[order[1:]] == node[order[:-1]]]] = True  # twice in this level
        split = f != -1
        bad_feature = split & ((f < 0) | (f >= n_features))
        bad_kids = split & np.any((kids < 0) | (kids >= sizes[t]), axis=0)
        faulty = again | bad_feature | bad_kids
        if faulty.any():
            k = np.flatnonzero(faulty & (t == t[faulty].min()))[0]  # the first in level order
            i = int(node[k] - roots[t[k]])
            if again[k]:
                message = f"node {i} is reached twice (a cycle or a shared child)"
            elif bad_feature[k]:
                message = f"node {i} splits on feature {f[k]}, outside [0, {n_features})"
            else:
                message = f"node {i} has children {tuple(kids[:, k].tolist())}, outside [0, {sizes[t[k]]})"
            fault = f"tree {t[k]}: {message}"
            keep = t < t[k]  # a lower tree's fault, however deep, comes first
            node, t, kids, split = node[keep], t[keep], kids[:, keep], split[keep]
        if not split.all():
            depth = level
        node, kids = node[split], kids[:, split] + roots[t[split]]
        inner.append(node)
        child[2 * node], child[2 * node + 1] = kids
        node = kids.T.ravel()  # each node's left child, then its right
        level += 1
    if fault is not None:
        raise ValueError(fault)
    inner = np.concatenate(inner)
    # distinct (feature, threshold) pairs; -0.0 and 0.0 are one test
    order = inner[np.lexsort((threshold[inner], feature[inner]))]
    f, thr = feature[order], threshold[order]
    first = np.ones(order.size, bool)
    first[1:] = (f[1:] != f[:-1]) | (thr[1:] != thr[:-1])
    test = np.full(n_nodes, int(first.sum()), dtype=np.intp)
    test[order] = np.cumsum(first) - 1
    level1 = child[2 * roots[:, None] + [0, 1]]
    slot = child[2 * level1[:, :, None] + [0, 1]].reshape(-1)
    return _PackedTrees(
        f[first],
        thr[first],
        test,
        child,
        value,
        roots,
        depth,
        np.stack([test[roots], test[level1[:, 0]], test[level1[:, 1]]]),
        slot,
        value[slot],
    )


@dataclass
class Ensemble:
    base_margin: float
    learning_rate: float
    trees: list = field(default_factory=list)
    n_features: int = 0
    # (trees packed, their packing); trees are not modified once added
    _packing: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def _packed(self) -> _PackedTrees:
        """The packing of ``trees``, rebuilt whenever the list has changed
        (training appends trees, early stopping rebinds the list)."""
        trees = tuple(self.trees)
        cached = self._packing
        if cached is None or len(cached[0]) != len(trees) or any(a is not b for a, b in zip(cached[0], trees)):
            columns = [[getattr(tree, name) for tree in trees] for name, _ in _TREE_FIELDS]
            counts = np.array([[a.size if a.ndim == 1 else -1 for a in column] for column in columns], np.intp)
            sizes = _node_counts(counts.reshape(len(columns), -1))
            arrays = (np.concatenate([*column, np.empty(0, dtype)]).astype(dtype, copy=False)
                      for column, (_, dtype) in zip(columns, _TREE_FIELDS))
            self._packing = cached = (trees, _pack(sizes, *arrays, self.n_features))
        return cached[1]

    def predict_raw(self, X, each_block=None) -> np.ndarray:
        """Raw margins of the records ``X``.  ``each_block(rows, outputs)``,
        when given, is handed each block of the same walk first: a row slice
        and the (trees, rows) outputs, which it must not modify, so a
        caller that needs the per-tree outputs walks the records once."""
        X = np.asarray(X, dtype=float)
        self._check_features(X)
        raw = np.full(X.shape[0], self.base_margin)
        for rows, outputs in self._packed().blocks(X):
            if each_block is not None:
                each_block(rows, outputs)
            outputs *= self.learning_rate
            part = raw[rows]
            if outputs.shape[0] == 0 or outputs.shape[1] < 2:
                # one add per tree in tree order: on a single row numpy's
                # reduction would sum pairwise and round differently
                for scaled in outputs:
                    part += scaled
                continue
            # base + first tree is exact either way round, and a reduction
            # over the first axis of two or more columns adds the rows one at
            # a time in tree order, so the sum rounds as the loop above does
            outputs[0] += self.base_margin
            np.add.reduce(outputs, axis=0, out=part)
        return raw

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.predict_raw(X))

    def _check_features(self, X):
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")

    def to_json(self) -> str:
        doc = {
            "kind": "fairfront-gbdt",
            "base_margin": self.base_margin,
            "learning_rate": self.learning_rate,
            "n_features": self.n_features,
            # the only link: predict_proba is the sigmoid of the margin
            "link": "logistic",
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in self.trees
            ],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Ensemble":
        """Parse an ensemble document, rejecting a malformed one with a
        ``ValueError`` before any prediction runs."""
        return cls._from_doc(json.loads(text))

    @classmethod
    def _from_doc(cls, doc) -> "Ensemble":
        if not isinstance(doc, dict) or doc.get("kind") != "fairfront-gbdt":
            raise ValueError("not an ensemble document")
        link = json_field(doc, "link", "ensemble", str)
        if link != "logistic":
            raise ValueError(f"ensemble: 'link' must be 'logistic', got {link!r}")
        columns = [[] for _ in _TREE_FIELDS]
        for t, tree_doc in enumerate(json_field(doc, "trees", "ensemble", list)):
            where = f"tree {t}"
            for column, (name, _) in zip(columns, _TREE_FIELDS):
                column.append(json_field(tree_doc, name, where, list))
        # each field of every tree in one array, checked at once; the
        # trees are views of these arrays
        counts = np.array([[len(values) for values in column] for column in columns], np.intp)
        counts = counts.reshape(len(columns), -1)
        arrays = [_node_column(column, dtype) for column, (_, dtype) in zip(columns, _TREE_FIELDS)]
        if any(a is None for a in arrays):
            _tree_fault(columns)
        ends = np.cumsum(counts, axis=1)
        faults = [
            (int(np.searchsorted(ends[k], np.argmin(finite), side="right")), name)
            for k, name in ((1, "threshold"), (4, "value"))
            if not (finite := np.isfinite(arrays[k])).all()
        ]
        if faults:
            raise ValueError("tree {}: non-finite {}".format(*min(faults)))
        base_margin = json_field(doc, "base_margin", "ensemble", _NUMBER)
        learning_rate = json_field(doc, "learning_rate", "ensemble", _NUMBER)
        GBDTParams(learning_rate=learning_rate)  # its rule, as when the model was trained
        if not np.isfinite(base_margin):
            raise ValueError(f"base_margin must be finite, got {base_margin}")
        n_features = json_field(doc, "n_features", "ensemble", int)
        sizes = _node_counts(counts)
        bounds = list(zip((ends[0] - sizes).tolist(), ends[0].tolist()))
        trees = [Tree(*(a[start:end] for a in arrays)) for start, end in bounds]
        ensemble = cls(base_margin, learning_rate, trees, n_features)
        ensemble._packing = (tuple(trees), _pack(sizes, *arrays, n_features))
        return ensemble

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Ensemble":
        """The ensemble saved at ``path``; a file that is not JSON, or not
        a well-formed ensemble document, raises ``ValueError`` naming it."""
        doc = read_json(path)
        try:
            return cls._from_doc(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


_TREE_FIELDS = (("feature", np.intp), ("threshold", float), ("left", np.intp), ("right", np.intp), ("value", float))
_NUMBER = (int, float)


def _node_column(column, dtype):
    """One field of every tree as one flat array, or None when the field
    does not convert as a whole."""
    try:
        values = np.asarray(list(chain.from_iterable(column)), dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return None
    return values if values.ndim == 1 else None


def _tree_fault(columns):
    """Raise the fault of the first tree, in tree then field order, whose
    field does not convert to a flat array."""
    for t, fields in enumerate(zip(*columns)):
        for values, (name, dtype) in zip(fields, _TREE_FIELDS):
            try:
                np.asarray(values, dtype=dtype)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"tree {t}: bad {name!r} ({exc})") from None
    for t, fields in enumerate(zip(*columns)):
        if any(np.asarray(values).ndim != 1 for values in fields):
            raise ValueError(f"tree {t}: node arrays must be nonempty, flat and of equal length")


def per_tree_outputs(ensemble: Ensemble, X) -> np.ndarray:
    """Matrix of raw per-tree outputs T_j(x), one column per tree."""
    X = np.asarray(X, dtype=float)
    ensemble._check_features(X)
    outputs = np.empty((X.shape[0], ensemble.n_trees))
    for rows, block in ensemble._packed().blocks(X):
        outputs[rows] = block.T
    return outputs


def leaf_boxes(ensemble: Ensemble):
    """Every leaf of every tree as ``(values, lo, hi)``.

    ``values`` (L,) holds the raw leaf values; ``lo`` and ``hi`` (L, F) hold
    the box of each leaf's path, the intersection of its tests: a record
    reaches leaf ``l`` exactly when every feature ``f`` has
    ``not x_f <= lo[l, f]`` (right at each right turn) and
    ``x_f <= hi[l, f]`` (left at each left turn).  An infinite bound marks a
    feature the path never tests in that direction, and every value meets
    it.  NaN fails ``<=``, so it goes right at every test, as in the walk.
    """
    packed = ensemble._packed()
    node = packed.roots
    lo = np.full((node.size, ensemble.n_features), -np.inf)
    hi = np.full((node.size, ensemble.n_features), np.inf)
    for _ in range(packed.depth):
        left, right = packed.child[2 * node], packed.child[2 * node + 1]
        split = left != node  # a leaf is its own child
        test = packed.test[node[split]]
        paths = np.arange(test.size)
        feature, threshold = packed.feature[test], packed.threshold[test]
        lo_left, hi_left = lo[split], hi[split]  # copies (boolean indexing)
        hi_left[paths, feature] = np.minimum(hi_left[paths, feature], threshold)
        lo_right, hi_right = lo[split], hi[split]
        lo_right[paths, feature] = np.maximum(lo_right[paths, feature], threshold)
        node = np.concatenate([node[~split], left[split], right[split]])
        lo = np.concatenate([lo[~split], lo_left, lo_right])
        hi = np.concatenate([hi[~split], hi_left, hi_right])
    return packed.value[node], lo, hi


def _best_split(xs, gs, g_total, n, min_leaf):
    """Exact split search on one node of ``n`` records, every feature at once.

    Row ``f`` of the (F, n) matrices ``xs`` and ``gs`` holds the node's
    values of feature ``f`` in ascending order, ties by row index, and the
    gradients of the same rows.  Maximizes the SSE reduction of the gradient
    targets, which only depends on the gradient sums and record counts of
    the two sides.  A boundary between distinct consecutive values is a
    candidate when both sides keep ``min_leaf`` records; each feature takes
    its first best candidate, and the first feature with the largest of
    those gains wins, so ties go to the lowest feature, then the lowest
    threshold.  Returns (gain, feature, threshold), or None where no gain
    exceeds ``_MIN_GAIN``.
    """
    if n < 2 or xs.shape[0] == 0:
        return None
    nl = np.arange(1.0, n)
    gl = np.cumsum(gs, axis=1)[:, :-1]
    nr = n - nl
    gr = g_total - gl
    cand = (xs[:, 1:] > xs[:, :-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    gain = np.where(cand, gl * gl / nl + gr * gr / nr - g_total * g_total / n, -np.inf)
    at = np.argmax(gain, axis=1)
    tops = gain[np.arange(gain.shape[0]), at]
    f = int(np.argmax(tops))
    if not tops[f] > _MIN_GAIN:
        return None
    k = at[f]
    return float(tops[f]), f, 0.5 * (xs[f, k] + xs[f, k + 1])


def _fit_tree(X, presorted, g, h, depth, min_leaf):
    """Fit one regression tree to the gradients ``g``; returns the tree and
    the leaf of every training row.

    ``presorted`` is the root's (rows, values) pair of (F, n) tables, each
    feature's row in that feature's stable ascending order (NaN last).  A
    node keeps its rows twice: in ascending row order, over which every sum
    is taken, and in that pair.  A child's rows are its parent's filtered by
    the split test, which keeps both orders, so no node sorts anything.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of = np.empty(X.shape[0], dtype=np.intp)

    def build(node_rows, sorted_node, level):
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        g_total = g[node_rows].sum()
        split = None
        if level < depth:
            order, xs = sorted_node
            split = _best_split(xs, g[order], g_total, node_rows.size, min_leaf)
        if split is None:
            value[node_id] = -g_total / (h[node_rows].sum() + _LAMBDA)
            leaf_of[node_rows] = node_id
            return node_id
        _, f, thr = split
        mask = X[node_rows, f] <= thr
        sorted_left = sorted_right = None  # a child at the depth limit is a leaf
        if level + 1 < depth:
            goes_left = X[order, f] <= thr
            sorted_left = tuple(a[goes_left].reshape(a.shape[0], -1) for a in sorted_node)
            sorted_right = tuple(a[~goes_left].reshape(a.shape[0], -1) for a in sorted_node)
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = build(node_rows[mask], sorted_left, level + 1)
        right[node_id] = build(node_rows[~mask], sorted_right, level + 1)
        return node_id

    build(np.arange(X.shape[0]), presorted, 0)
    tree = Tree(
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray(value, dtype=float),
    )
    return tree, leaf_of


def train(X, y, params: GBDTParams = None, valid=None) -> Ensemble:
    """Boost logistic-loss trees on (X, y), one record per row, optionally
    early-stopping on ``valid = (X_val, y_val)``.

    Training labels lie in [0, 1]; validation labels are 0/1.  The base
    margin is the clamped logit of the label mean; labels all 0 or all 1
    yield a margin-only ensemble with zero trees.
    """
    params = params or GBDTParams()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X and y must be row-aligned")
    if y.size == 0:
        raise ValueError("no training records")
    if not np.all((y >= 0) & (y <= 1)):  # NaN fails both
        raise ValueError("labels must lie in [0, 1]")
    if valid is not None:
        X_val = np.asarray(valid[0], dtype=float)
        y_val = np.asarray(valid[1], dtype=float).ravel()
        if X_val.ndim != 2 or X_val.shape[1] != X.shape[1]:
            raise ValueError(f"validation X has shape {X_val.shape}; expected (rows, {X.shape[1]})")
        if y_val.size != X_val.shape[0]:
            raise ValueError(f"validation y has {y_val.size} labels for {X_val.shape[0]} rows")
        if not np.all((y_val == 0) | (y_val == 1)):
            raise ValueError("validation labels must be binary 0/1")

    p_bar = float(y.mean())
    base_margin = float(np.clip(logit(p_bar), -_MARGIN_CLAMP, _MARGIN_CLAMP))
    ensemble = Ensemble(base_margin, params.learning_rate, [], X.shape[1])
    if p_bar in (0.0, 1.0) or params.rounds == 0:
        return ensemble

    order = np.argsort(X.T, axis=1, kind="stable")  # X is the same in every round
    presorted = (order, np.take_along_axis(X.T, order, axis=1))
    raw = np.full(y.size, base_margin)
    use_valid = valid is not None and params.early_stop_rounds > 0
    if use_valid:
        raw_val = np.full(y_val.size, base_margin)
        best_loss = cross_entropy(sigmoid(raw_val), y_val)
        best_round = 0
        stall = 0

    for round_idx in range(params.rounds):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree, leaf_of = _fit_tree(X, presorted, g, h, params.depth, params.min_leaf)
        ensemble.trees.append(tree)
        raw += params.learning_rate * tree.value[leaf_of]
        if use_valid:
            raw_val += params.learning_rate * tree.predict(X_val)
            loss = cross_entropy(sigmoid(raw_val), y_val)
            if loss < best_loss - 1e-12:
                best_loss = loss
                best_round = round_idx + 1
                stall = 0
            else:
                stall += 1
                if stall >= params.early_stop_rounds:
                    break
    if use_valid:
        ensemble.trees = ensemble.trees[:best_round]
    return ensemble
