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
walks all trees at once, a chunk of rows at a time; ``Tree.predict`` walks
one tree and serves early stopping's update of the validation margins.
One walk gives both the margins and the tree-pca columns: ``predict_raw``
hands each (trees, rows) block to an optional ``each_block`` callback (the
columns) before adding it into the margins.  ``per_tree_outputs`` copies
the blocks into a records x trees matrix; the tree-pca build takes its
moments from such matrices of bounded blocks of rows.
"""

from __future__ import annotations

import json
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

    @property
    def n_nodes(self) -> int:
        return self.feature.size


@dataclass(frozen=True)
class _PackedTrees:
    """Every tree of an ensemble in one flat node table.

    Tree ``t`` owns the ``width`` slots from ``t * width``; node ``i`` of it
    sits at slot ``t * width + i``.  An internal node's test is an index into
    the ensemble's distinct (feature, threshold) pairs, so a chunk of rows
    compares each distinct test once.  A leaf is its own left and right
    child, so after ``depth`` steps every row rests on its leaf in every
    tree, whatever the depth of that leaf and whichever way a NaN row goes.
    """

    feature: np.ndarray    # (U,) distinct tests: x[feature] <= threshold goes left
    threshold: np.ndarray  # (U,)
    test: np.ndarray       # (T * width,) test of each internal node
    child: np.ndarray      # (2 * T * width,) slot of the left, then right, child
    value: np.ndarray      # (T * width,) leaf values
    roots: np.ndarray      # (T,) slot of each root
    depth: int             # deepest leaf over all trees

    def blocks(self, X):
        """Yield ``(rows, outputs)`` per chunk of rows of ``X``: a row slice
        and the (T, rows) matrix of every tree's output on those rows.

        The work arrays, ``outputs`` included, are reused from chunk to
        chunk: a caller may overwrite ``outputs`` but is done with it
        before asking for the next chunk.
        """
        n_trees, n_tests = self.roots.size, self.feature.size
        work = None
        for start in range(0, X.shape[0], _CHUNK_ROWS):
            chunk = X[start:start + _CHUNK_ROWS]
            n_rows = chunk.shape[0]
            if work is None or work[0].shape[1] != n_rows:
                work = (np.empty((n_trees, n_rows), np.intp), np.empty((n_trees, n_rows), np.intp),
                        np.empty((n_trees, n_rows), bool), np.empty((n_rows, n_tests)),
                        np.empty((n_rows, n_tests), bool))
            node, index, right, tested, outcome = work
            # (rows, U) outcomes; NaN fails <= and goes right, as in Tree.predict
            np.take(chunk, self.feature, axis=1, out=tested, mode="clip")
            np.less_equal(tested, self.threshold, out=outcome)
            np.logical_not(outcome, out=outcome)
            go_right = outcome.ravel()
            row_offset = np.arange(n_rows) * n_tests
            node[:] = self.roots[:, None]
            # packing only stores valid slots, so "clip" never clips; it
            # lets take write into the work arrays without a copy
            for _ in range(self.depth):
                np.take(self.test, node, out=index, mode="clip")
                index += row_offset
                np.take(go_right, index, out=right, mode="clip")
                np.left_shift(node, 1, out=index)
                index += right
                np.take(self.child, index, out=node, mode="clip")
            outputs = index.view(float)
            np.take(self.value, node, out=outputs, mode="clip")
            yield slice(start, start + n_rows), outputs


def _pack(trees, n_features) -> _PackedTrees:
    """Pack ``trees`` for the joint walk, rejecting a malformed tree.

    Each tree is walked from its root, so a feature index outside
    ``[0, n_features)``, a child index out of range, a cycle and arrays of
    unequal length raise ``ValueError`` naming the tree.
    """
    width = max((tree.n_nodes for tree in trees), default=1)
    pairs = {}
    test = np.zeros(len(trees) * width, dtype=np.intp)
    child = np.zeros(2 * len(trees) * width, dtype=np.intp)
    value = np.zeros(len(trees) * width)
    depth = 0
    for t, tree in enumerate(trees):
        n = tree.n_nodes
        if n == 0 or any(a.shape != (n,) for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)):
            raise ValueError(f"tree {t}: node arrays must be nonempty, flat and of equal length")
        feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
        left, right, leaf = tree.left.tolist(), tree.right.tolist(), tree.value.tolist()
        offset = t * width
        seen = [False] * n
        stack = [(0, 0)]
        while stack:
            node, level = stack.pop()
            if seen[node]:
                raise ValueError(f"tree {t}: node {node} is reached twice (a cycle or a shared child)")
            seen[node] = True
            slot = offset + node
            f = feature[node]
            if f == -1:
                child[2 * slot] = child[2 * slot + 1] = slot
                value[slot] = leaf[node]
                depth = max(depth, level)
                continue
            if not 0 <= f < n_features:
                raise ValueError(f"tree {t}: node {node} splits on feature {f}, outside [0, {n_features})")
            kids = (left[node], right[node])
            if not all(0 <= k < n for k in kids):
                raise ValueError(f"tree {t}: node {node} has children {kids}, outside [0, {n})")
            test[slot] = pairs.setdefault((f, threshold[node]), len(pairs))
            child[2 * slot], child[2 * slot + 1] = offset + kids[0], offset + kids[1]
            stack += [(kids[0], level + 1), (kids[1], level + 1)]
    return _PackedTrees(
        np.asarray([f for f, _ in pairs], dtype=np.intp),
        np.asarray([thr for _, thr in pairs], dtype=float),
        test,
        child,
        value,
        np.arange(len(trees), dtype=np.intp) * width,
        depth,
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
            self._packing = cached = (trees, _pack(trees, self.n_features))
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
        trees = [
            Tree(*(_node_array(t, i, name, dtype) for name, dtype in _TREE_FIELDS))
            for i, t in enumerate(json_field(doc, "trees", "ensemble", list))
        ]
        for t, tree in enumerate(trees):
            for name in ("threshold", "value"):
                if not np.all(np.isfinite(getattr(tree, name))):
                    raise ValueError(f"tree {t}: non-finite {name}")
        ensemble = cls(
            json_field(doc, "base_margin", "ensemble", _NUMBER),
            json_field(doc, "learning_rate", "ensemble", _NUMBER),
            trees,
            json_field(doc, "n_features", "ensemble", int),
        )
        ensemble._packed()  # checks the structure of every tree
        return ensemble

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Ensemble":
        """The ensemble saved at ``path``; a file that is not JSON raises
        ``ValueError`` naming it."""
        return cls._from_doc(read_json(path))


_TREE_FIELDS = (("feature", np.intp), ("threshold", float), ("left", np.intp), ("right", np.intp), ("value", float))
_NUMBER = (int, float)


def _node_array(tree_doc, t, name, dtype):
    """One node array of tree ``t`` from its document."""
    values = json_field(tree_doc, name, f"tree {t}", list)
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"tree {t}: bad {name!r} ({exc})") from None


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
    its first best candidate, and a feature wins only by a strictly larger
    gain, so ties go to the lowest feature, then the lowest threshold.
    Returns (gain, feature, threshold) or None.
    """
    if n < 2:
        return None
    nl = np.arange(1.0, n)
    gl = np.cumsum(gs, axis=1)[:, :-1]
    nr = n - nl
    gr = g_total - gl
    cand = (xs[:, 1:] > xs[:, :-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    gain = np.where(cand, gl * gl / nl + gr * gr / nr - g_total * g_total / n, -np.inf)
    at = np.argmax(gain, axis=1)
    best = None
    for f, (top, k) in enumerate(zip(gain[np.arange(gain.shape[0]), at].tolist(), at.tolist())):
        if top > _MIN_GAIN and (best is None or top > best[0]):
            best = (top, f, k)
    if best is None:
        return None
    top, f, k = best
    return top, f, 0.5 * (xs[f, k] + xs[f, k + 1])


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
