"""Per-layer spans recorded from outside the program.

``install`` replaces each public fairfront callable, where its caller looks
it up, with a wrapper that records a span: name, parent span, start, end and
an optional count (rows, cells, trees).  Spans stay in memory; the traced
process writes them out once the subcommand returns, and ``layer_metrics``
turns them into the per-layer metrics the benchmark reports.

Timestamps come from CLOCK_MONOTONIC, which is shared by every process on
the machine, so the parent can place the child's spans on its own timeline.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time

CLOCK = time.CLOCK_MONOTONIC


def now() -> float:
    return time.clock_gettime(CLOCK)


class Tracer:
    """Span store.  Each span is ``[name, parent, start, end, count]``;
    ``parent`` is the index of the enclosing span or -1 at top level."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name, start, end, count=0, parent=-1):
        self.spans.append([name, parent, start, end, count])

    def wrap(self, fn, name, count=None):
        """Wrap ``fn``.  ``name`` is a string or ``f(args, kwargs) -> str``;
        ``count`` is ``f(args, kwargs, result) -> number`` or None."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            label = name(args, kwargs) if callable(name) else name
            span = [label, stack[-1] if stack else -1, now(), 0.0, 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, position, keyword, default=None):
    """An argument passed by position or by keyword."""
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def estimator_cells(spec, batch) -> int:
    """Grid or pairwise cells one estimator call forms, from its shapes.

    Threshold variants evaluate a (thresholds x records) relaxation grid per
    group; energy variants form the m0*m1, m0^2 and m1^2 pairwise matrices.
    """
    m0, m1 = batch.group0.size, batch.group1.size
    pool = 0 if batch.pool is None else batch.pool.size
    count, _ = spec.grid_shape()
    pairs = m0 * m1 + m0 * m0 + m1 * m1
    per_variant = {
        "threshold-mc": count * (m0 + m1),
        "threshold-discrete": count * (m0 + m1),
        "threshold-discrete-trapezoid": (count + 1) * (m0 + m1),
        "invariant-mc": pool * (m0 + m1),
        "invariant-kde-discrete": count * (m0 + m1 + pool),
        "energy": pairs,
        "invariant-energy-relaxed": pool * (m0 + m1) + pairs,
    }
    return per_variant[spec.variant]


def _rows(args, kwargs, result):
    """Rows of the record matrix ``X``, the argument after ``self`` or the
    predict function."""
    return len(_arg(args, kwargs, 1, "X"))


def _estimator_name(args, kwargs):
    need_grad = _arg(args, kwargs, 5, "need_grad", True)
    return "estimators.step" if need_grad else "estimators.snapshot"


def _estimator_cells(args, kwargs, result):
    return estimator_cells(_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 3, "batch"))


def _targets():
    """(owner, attribute, span name, count) for every traced callable.

    Module functions are wrapped in the namespace of the module that calls
    them (``fairfront.cli`` imports most of them by name); methods are
    wrapped on their class, which every caller shares.
    """
    from fairfront import cli, encoders, frontier, gbdt, linear_family, optimizer

    return [
        (cli, "load_csv", "data.load_csv", lambda args, kwargs, ds: ds.n_records),
        (cli, "train_gbdt", "gbdt.train", lambda args, kwargs, model: model.n_trees),
        (cli, "tree_pca_encoders", "encoders.build", None),
        (cli, "additive_encoders", "encoders.build", None),
        (cli, "shapley_encoders", "encoders.build", None),
        (cli, "loss_bias_ratio_scale", "optimizer.ratio_scale", None),
        (cli, "sgd_sweep", "optimizer.sweep", None),
        (cli, "evaluate_candidates", "frontier.evaluate", None),
        (cli, "pareto_filter", "frontier.pareto", None),
        (cli, "write_frontier_csv", "frontier.write", None),
        (cli, "write_frontier_svg", "frontier.write", None),
        (optimizer, "penalized_objective", "optimizer.objective", None),
        (optimizer, "bias_value_and_grad", _estimator_name, _estimator_cells),
        (encoders, "per_tree_outputs", "gbdt.per_tree_outputs", _rows),
        (encoders, "exact_marginal_shapley", "encoders.shapley", _rows),
        (frontier, "score_metrics", "frontier.score_metrics", None),
        (gbdt.Tree, "predict", "gbdt.tree_predict", _rows),
        (gbdt.Ensemble, "predict_raw", "gbdt.predict_raw", _rows),
        (gbdt.Ensemble, "save", "gbdt.serialize", None),
        (gbdt.Ensemble, "load", "gbdt.serialize", None),
        (encoders.EncoderMatrix, "reevaluate", "encoders.reevaluate", None),
        (encoders.EncoderMatrix, "save", "encoders.save", None),
        (linear_family.LinearFamily, "scores", "linear_family.scores", None),
        (linear_family.LinearFamily, "scores_and_grad", "linear_family.scores_and_grad", None),
        (optimizer.MitigationTrace, "to_csv", "optimizer.trace_csv", None),
    ]


def install(tracer: Tracer):
    """Wrap every traced callable in place, for the rest of the process."""
    for owner, attr, name, count in _targets():
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, count)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, count))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanTree:
    """Parent links, durations and self times of one traced run."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s[1] >= 0:
                child_time[s[1]] += d
        # single-threaded spans nest without overlap, so the children's
        # union is their sum
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]
        self.by_name = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def ancestors(self, i):
        parent = self.spans[i][1]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][1]

    def select(self, name, under=None):
        """Indices of outermost spans called ``name`` (a recursive call
        inside a span of the same name is not counted twice), optionally
        only those with an ancestor called ``under``."""
        out = []
        for i in self.by_name.get(name, []):
            chain = list(self.ancestors(i))
            if name in chain or (under is not None and under not in chain):
                continue
            out.append(i)
        return out

    def total(self, name, under=None):
        return sum(self.duration[i] for i in self.select(name, under))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.by_name.get(name, []))

    def calls(self, name, under=None):
        return len(self.select(name, under))

    def count(self, name, under=None):
        return sum(self.spans[i][4] for i in self.select(name, under))

    def durations_ms(self, name):
        return [1e3 * self.duration[i] for i in self.select(name)]

    def top_level_total(self):
        return sum(d for s, d in zip(self.spans, self.duration) if s[1] < 0)


# (metric name, unit, better) of every per-layer metric a traced run
# reports.  "computed" marks a figure derived from shapes, not measured.
LAYER_METRICS = [
    ("cli.import.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.self_share", "ratio", "lower"),
    ("data.load_csv.s", "s", "lower"),
    ("data.load_csv.rows", "count", "lower"),
    ("data.generate.s", "s", "lower"),
    ("gbdt.train.s", "s", "lower"),
    ("gbdt.train.self_s", "s", "lower"),
    ("gbdt.trees", "count", "lower"),
    ("gbdt.tree_predict.s", "s", "lower"),
    ("gbdt.tree_predict.calls", "count", "lower"),
    ("gbdt.tree_predict.rows", "count", "lower"),
    ("gbdt.predict_raw.s", "s", "lower"),
    ("gbdt.predict_raw.rows", "count", "lower"),
    ("gbdt.per_tree_outputs.s", "s", "lower"),
    ("gbdt.per_tree_outputs.rows", "count", "lower"),
    ("gbdt.serialize.s", "s", "lower"),
    ("encoders.build.s", "s", "lower"),
    ("encoders.reevaluate.s", "s", "lower"),
    ("encoders.save.s", "s", "lower"),
    ("encoders.shapley.s", "s", "lower"),
    ("encoders.shapley.rows", "count", "lower"),
    ("encoders.shapley.model_rows", "count", "lower"),
    ("estimators.step.s", "s", "lower"),
    ("estimators.step.calls", "count", "lower"),
    ("estimators.step.p50_ms", "ms", "lower"),
    ("estimators.step.p99_ms", "ms", "lower"),
    ("estimators.step.cells", "count", "lower"),
    ("estimators.snapshot.s", "s", "lower"),
    ("estimators.snapshot.calls", "count", "lower"),
    ("estimators.snapshot.p50_ms", "ms", "lower"),
    ("estimators.snapshot.cells", "count", "lower"),
    ("estimators.snapshot.pair_mb", "MB-computed", "lower"),
    ("linear_family.scores.s", "s", "lower"),
    ("linear_family.scores.calls", "count", "lower"),
    ("linear_family.scores_and_grad.s", "s", "lower"),
    ("linear_family.scores_and_grad.calls", "count", "lower"),
    ("optimizer.sweep.s", "s", "lower"),
    ("optimizer.sweep.self_s", "s", "lower"),
    ("optimizer.objective.self_s", "s", "lower"),
    ("optimizer.steps", "count", "lower"),
    ("optimizer.snapshots", "count", "lower"),
    ("optimizer.ratio_scale.s", "s", "lower"),
    ("optimizer.trace_csv.s", "s", "lower"),
    ("frontier.evaluate.s", "s", "lower"),
    ("frontier.score_metrics.calls", "count", "lower"),
    ("frontier.pareto.s", "s", "lower"),
    ("frontier.write.s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.probe_s", "s", "lower"),
]


def layer_metrics(spans, launched: float, finished: float) -> dict:
    """Per-layer figures of one traced run.

    ``launched`` is when the parent started the process and ``finished``
    when the subcommand returned, both on CLOCK_MONOTONIC.  ``cli.self_s``
    is the run time no top-level span covers: interpreter start-up and the
    subcommand's own glue code.  The other ``trace.*`` and the
    ``data.generate.s`` figures come from outside the traced process and are
    filled in by the caller.
    """
    t = SpanTree(spans)
    run_s = finished - launched
    cli_self = run_s - t.top_level_total()
    pair_cells = max((t.spans[i][4] for i in t.select("estimators.snapshot")), default=0)
    return {
        "cli.import.s": t.total("cli.import"),
        "cli.self_s": cli_self,
        "cli.self_share": cli_self / run_s,
        "data.load_csv.s": t.total("data.load_csv"),
        "data.load_csv.rows": t.count("data.load_csv"),
        "gbdt.train.s": t.total("gbdt.train"),
        "gbdt.train.self_s": t.self_total("gbdt.train"),
        "gbdt.trees": t.count("gbdt.train"),
        "gbdt.tree_predict.s": t.total("gbdt.tree_predict"),
        "gbdt.tree_predict.calls": t.calls("gbdt.tree_predict"),
        "gbdt.tree_predict.rows": t.count("gbdt.tree_predict"),
        "gbdt.predict_raw.s": t.total("gbdt.predict_raw"),
        "gbdt.predict_raw.rows": t.count("gbdt.predict_raw"),
        "gbdt.per_tree_outputs.s": t.total("gbdt.per_tree_outputs"),
        "gbdt.per_tree_outputs.rows": t.count("gbdt.per_tree_outputs"),
        "gbdt.serialize.s": t.total("gbdt.serialize"),
        "encoders.build.s": t.total("encoders.build"),
        "encoders.reevaluate.s": t.total("encoders.reevaluate"),
        "encoders.save.s": t.total("encoders.save"),
        "encoders.shapley.s": t.total("encoders.shapley"),
        "encoders.shapley.rows": t.count("encoders.shapley"),
        "encoders.shapley.model_rows": t.count("gbdt.predict_raw", under="encoders.shapley"),
        "estimators.step.s": t.total("estimators.step"),
        "estimators.step.calls": t.calls("estimators.step"),
        "estimators.step.p50_ms": _percentile(t.durations_ms("estimators.step"), 50),
        "estimators.step.p99_ms": _percentile(t.durations_ms("estimators.step"), 99),
        "estimators.step.cells": t.count("estimators.step"),
        "estimators.snapshot.s": t.total("estimators.snapshot"),
        "estimators.snapshot.calls": t.calls("estimators.snapshot"),
        "estimators.snapshot.p50_ms": _percentile(t.durations_ms("estimators.snapshot"), 50),
        "estimators.snapshot.cells": t.count("estimators.snapshot"),
        "estimators.snapshot.pair_mb": 8 * pair_cells / 1e6,
        "linear_family.scores.s": t.total("linear_family.scores"),
        "linear_family.scores.calls": t.calls("linear_family.scores"),
        "linear_family.scores_and_grad.s": t.total("linear_family.scores_and_grad"),
        "linear_family.scores_and_grad.calls": t.calls("linear_family.scores_and_grad"),
        "optimizer.sweep.s": t.total("optimizer.sweep"),
        "optimizer.sweep.self_s": t.self_total("optimizer.sweep"),
        "optimizer.objective.self_s": t.self_total("optimizer.objective"),
        "optimizer.steps": t.calls("optimizer.objective"),
        "optimizer.snapshots": t.calls("estimators.snapshot", under="optimizer.sweep"),
        "optimizer.ratio_scale.s": t.total("optimizer.ratio_scale"),
        "optimizer.trace_csv.s": t.total("optimizer.trace_csv"),
        "frontier.evaluate.s": t.total("frontier.evaluate"),
        "frontier.score_metrics.calls": t.calls("frontier.score_metrics"),
        "frontier.pareto.s": t.total("frontier.pareto"),
        "frontier.write.s": t.total("frontier.write"),
        "trace.run_s": run_s,
    }


def median_metrics(runs: list) -> dict:
    """Metric-wise median over several runs' metric dicts."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
