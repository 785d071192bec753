"""Batch command-line front end.

Subcommands: generate, train-base, encode, mitigate, baseline-rescale,
baseline-ot, evaluate, report.  Every option is declared once in ``FLAGS``
(its argparse keywords, the conversion its value goes through, and the range
rule that value must meet), and every subcommand once in ``COMMANDS`` (its
function, the default of each flag it takes, and the flags it needs).  A run
takes each setting from its flag, else from the JSON config document, else
from that default.  ``main`` resolves them, checks each against its range
rule before the command runs, and writes a manifest recording the resolved
configuration, its hash, library versions, timings, the artifacts produced
and the run's status, including when it fails.  All randomness is seeded
from the resolved config, so repeated runs produce byte-identical CSV
artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._util import config_hash, cross_entropy, fmt_float, json_field, read_json
from .baselines import DEFAULT_THETA_GRID, OT_REGRESSOR_PARAMS, ot_projection, random_search_rescaling
from .data import (
    Dataset,
    apply_preprocessor,
    fit_preprocessor,
    generate_m1,
    generate_m2,
    load_csv,
    save_csv,
    save_sidecar,
    split,
)
from .distributions import CostFunction
from .encoders import (
    DEFAULT_BACKGROUND_SIZE,
    EncoderMatrix,
    additive_encoders,
    shapley_encoders,
    tree_pca_encoders,
    treeshap_leaves,
)
from .estimators import BiasEstimatorSpec
from .frontier import (
    evaluate as evaluate_candidates,
    pareto_filter,
    read_frontier_csv,
    write_frontier_csv,
    write_frontier_svg,
)
from .gbdt import Ensemble, GBDTParams, train as train_gbdt
from .optimizer import SweepConfig, default_omegas, loss_bias_ratio_scale, sgd_sweep
from .relaxation import RelaxationFamily

ESTIMATOR_ALIASES = {
    "mc": "threshold-mc",
    "discrete": "threshold-discrete",
    "trapezoid": "threshold-discrete-trapezoid",
    "energy": "energy",
    "invariant-mc": "invariant-mc",
    "invariant-kde": "invariant-kde-discrete",
    "invariant-energy": "invariant-energy-relaxed",
}


class CliError(Exception):
    pass


def _load_config(path_str) -> dict:
    if path_str is None:
        return {}
    path = Path(path_str)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config {path}: expected a JSON object")
    return doc


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> str:
    """Name and version of the BLAS numpy was built with, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Manifest:
    def __init__(self, command: str, resolved: dict, out_dir: Path):
        self.doc = {
            "command": command,
            "config": resolved,
            "config_hash": config_hash(resolved),
            "versions": {
                "fairfront": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                # the BLAS and its thread count can set the last bits of
                # BLAS products, the tree-pca co-moment among them
                "blas": _blas(),
                "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
            },
            "timings": {},
            "artifacts": [],
            "status": "incomplete",
        }
        self.out_dir = out_dir
        self._stage_start = time.perf_counter()

    def stage(self, name: str):
        now = time.perf_counter()
        self.doc["timings"][name] = round(now - self._stage_start, 3)
        self._stage_start = now

    def artifact(self, path: Path):
        self.doc["artifacts"].append(path.name)

    def write(self):
        # this process's high-water mark so far: in a process that ran
        # other work before main, that work's peak too
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB; bytes on macOS
        self.doc["peak_rss_mb"] = round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(self.doc, fh, indent=2, sort_keys=True)


def _out_dir(path_str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _both_classes(ds, path, label):
    """Reject a split whose labels are all one class: a model fit to it has
    nothing to learn, and its AUC is undefined."""
    if np.unique(ds.y).size < 2:
        raise ValueError(f"{path}: every record has label {ds.y[0]:g} in column {label!r}; both 0 and 1 are needed")


def _load_dataset(path, label, group, scored=False) -> Dataset:
    """Load one CSV; with ``scored`` (a split that a frontier is scored on),
    reject a file with more than two groups (the bias metrics and the sweep
    compare group 0 with group 1) or with one class (AUC needs both)."""
    ds = load_csv(path, label_column=label, group_column=group)
    if scored:
        n_groups = np.unique(ds.g).size
        if n_groups > 2:
            raise ValueError(f"{path}: {n_groups} groups in column {group!r}; only two are supported")
        _both_classes(ds, path, label)
    return ds


def _load_splits(resolved, scored=False) -> list:
    """Load whichever of train and test is named, imputing missing cells with
    means fitted on train (on test when there is no train), so every
    downstream stage sees finite values."""
    splits = [
        _load_dataset(path, resolved["label"], resolved["group"], scored) if path else None
        for path in (resolved["train"], resolved.get("test"))
    ]
    present = [ds for ds in splits if ds is not None]
    if any(np.isnan(ds.X).any() for ds in present):
        prep = fit_preprocessor(present[0])
        splits = [apply_preprocessor(ds, prep) if ds is not None else None for ds in splits]
    return splits


def _load_inputs(resolved, base_path, scored=False, shapley=False):
    """The named splits (see ``_load_splits``) and the base model at
    ``base_path``, if one is named.  A split whose feature count is not the
    model's is rejected here, before any stage, and so is a model with a
    path too deep for TreeSHAP when ``shapley`` columns will be built."""
    splits = _load_splits(resolved, scored)
    model = Ensemble.load(base_path) if base_path else None
    if shapley:
        treeshap_leaves(model)
    for path, ds in zip((resolved["train"], resolved.get("test")), splits):
        if model is not None and ds is not None and ds.X.shape[1] != model.n_features:
            raise ValueError(
                f"{path} has {ds.X.shape[1]} features, but the model {base_path} has n_features {model.n_features}"
            )
    return splits, model


# --------------------------------------------------------------------------
# subcommands: each reads only its resolved options
# --------------------------------------------------------------------------


def cmd_generate(resolved, manifest, out):
    generator = {"m1": generate_m1, "m2": generate_m2}[resolved["model"]]
    ds = generator(resolved["n"], resolved["seed"])
    manifest.stage("generate")
    save_csv(ds, out / "data.csv")
    save_sidecar(ds, out / "data.json", extra={"model": resolved["model"], "seed": resolved["seed"]})
    manifest.artifact(out / "data.csv")
    manifest.artifact(out / "data.json")
    if resolved["split"] is not None:
        train_ds, test_ds = split(ds, resolved["split"], seed=resolved["seed"])
        for name, part in (("train", train_ds), ("test", test_ds)):
            save_csv(part, out / f"{name}.csv")
            manifest.artifact(out / f"{name}.csv")
    manifest.stage("write")


# flag -> field of the config object it fills, in the flags' order
_GBDT_FIELDS = {
    "depth": "depth",
    "rounds": "rounds",
    "learning-rate": "learning_rate",
    "min-leaf": "min_leaf",
    "early-stop": "early_stop_rounds",
}
# the omegas wait for the encoders, and the seed is every command's own flag
_SWEEP_FIELDS = {
    "objective": "objective",
    "loss": "loss",
    "epochs": "n_epochs",
    "batches": "n_batches",
    "batch-size": "batch_size",
    "sgd-rate": "learning_rate",
    "theta-box": "theta_box",
}


def _from_flags(kind, fields, resolved, **others):
    """A ``kind`` config object, each field in ``fields`` from its flag."""
    return kind(**{name: resolved[flag] for flag, name in fields.items()}, **others)


def _flag_defaults(fields, config) -> dict:
    """The flags of ``fields``, each defaulting to its field of ``config``."""
    return {flag: getattr(config, name) for flag, name in fields.items()}


GRID = [
    {"depth": 2, "learning_rate": 0.04},
    {"depth": 2, "learning_rate": 0.08},
    {"depth": 3, "learning_rate": 0.02},
    {"depth": 3, "learning_rate": 0.04},
    {"depth": 4, "learning_rate": 0.02},
]


def _select_by_gap_rule(entries):
    """Lowest validation loss among models whose train/validation loss gap is
    below 10 percent; if none qualify, the smallest gap wins."""
    qualified = [e for e in entries if e["gap"] < 0.10]
    pool = qualified or sorted(entries, key=lambda e: e["gap"])[:1]
    return min(pool, key=lambda e: e["val_loss"])


def cmd_train_base(resolved, manifest, out):
    params = _from_flags(GBDTParams, _GBDT_FIELDS, resolved)
    train_ds, test_ds = _load_splits(resolved)
    _both_classes(train_ds, resolved["train"], resolved["label"])
    valid = (test_ds.X, test_ds.y) if test_ds is not None else None
    manifest.stage("load")

    if resolved["grid"]:
        entries = []
        for combo in GRID:
            model = train_gbdt(train_ds.X, train_ds.y, params=replace(params, **combo), valid=valid)
            train_loss = cross_entropy(model.predict_proba(train_ds.X), train_ds.y)
            val_loss = (
                cross_entropy(model.predict_proba(valid[0]), valid[1]) if valid else train_loss
            )
            gap = abs(val_loss - train_loss) / max(train_loss, 1e-12)
            entries.append(
                {"params": combo, "model": model, "train_loss": train_loss, "val_loss": val_loss, "gap": gap}
            )
        chosen = _select_by_gap_rule(entries)
        model = chosen["model"]
        manifest.doc["grid_selection"] = {
            "chosen": chosen["params"],
            "val_loss": chosen["val_loss"],
            "gap": chosen["gap"],
        }
    else:
        model = train_gbdt(train_ds.X, train_ds.y, params=params, valid=valid)
    manifest.stage("train")
    model.save(out / "model.json")
    manifest.artifact(out / "model.json")


def _build_encoders(resolved, model, train_ds) -> EncoderMatrix:
    method = resolved["method"]
    if method == "tree-pca":
        return tree_pca_encoders(model, train_ds.X, r=min(resolved["components"], model.n_trees))
    if method == "additive":
        return additive_encoders(
            train_ds.X, degree=resolved["degree"], basis=resolved["basis"], feature_names=train_ds.feature_names
        )
    return shapley_encoders(model, train_ds.X, background_size=resolved["background"], seed=resolved["seed"])


def _save_encoders(enc, out, manifest):
    enc.save(out / "encoders.csv", out / "encoders.json")
    manifest.artifact(out / "encoders.csv")
    manifest.artifact(out / "encoders.json")


def cmd_encode(resolved, manifest, out):
    if resolved["method"] != "additive" and not resolved["base"]:
        raise CliError(f"{resolved['method']} encoders need --base")
    (train_ds, _), model = _load_inputs(resolved, resolved["base"], shapley=resolved["method"] == "shapley")
    manifest.stage("load")
    enc = _build_encoders(resolved, model, train_ds)
    manifest.stage("build")
    _save_encoders(enc, out, manifest)


def _estimator_spec(resolved) -> BiasEstimatorSpec:
    return BiasEstimatorSpec(
        variant=ESTIMATOR_ALIASES[resolved["estimator"]],
        relaxation=RelaxationFamily(resolved["relaxation"], resolved["scale"]),
        cost=CostFunction(resolved["cost"]),
        thresholds=resolved["grid-step"],
        kde_bandwidth=resolved["kde-bandwidth"],
        rng_seed=resolved["seed"],
        unbiased=resolved["unbiased"],
    )


def _write_frontier_artifacts(points, out, manifest):
    write_frontier_csv(points, out / "frontier.csv")
    manifest.artifact(out / "frontier.csv")
    write_frontier_svg(points, out / "frontier.svg")
    manifest.artifact(out / "frontier.svg")


def _write_frontier(method, splits, scored, out, manifest):
    """The frontier of every scoring command.  ``scored(ds)`` yields a
    split's candidates as ``(omega, theta, probs)``; each present split of
    ``splits`` (train, test) is scored through ``evaluate_candidates`` and
    keeps its nondominated points, and the points of both are written to
    frontier.csv and frontier.svg."""
    points = []
    for name, ds in zip(("train", "test"), splits):
        if ds is not None:
            points += pareto_filter(evaluate_candidates(scored(ds), ds.y, ds.g, name, method))
    _write_frontier_artifacts(points, out, manifest)


def cmd_mitigate(resolved, manifest, out):
    # the estimator and the sweep settings are checked before any stage; the
    # omega ladder waits for the encoders when it is scaled by the loss/bias ratio
    spec = _estimator_spec(resolved)
    sweep_cfg = _from_flags(SweepConfig, _SWEEP_FIELDS, resolved, seed=resolved["seed"])
    (train_ds, test_ds), model = _load_inputs(
        resolved, resolved["base"], scored=True, shapley=resolved["method"] == "shapley"
    )
    manifest.stage("load")

    enc = _build_encoders(resolved, model, train_ds)
    _save_encoders(enc, out, manifest)
    manifest.stage("encoders")

    fam_train = enc.family(model, train_ds.X)
    scale = resolved["omega-scale-mult"]
    if resolved["omega-scale"] == "ratio":
        scale *= loss_bias_ratio_scale(fam_train, spec, train_ds.y, train_ds.g)
    sweep_cfg = replace(sweep_cfg, omegas=default_omegas(scale, resolved["omegas"]))
    candidates, trace = sgd_sweep(fam_train, spec, sweep_cfg, train_ds.y, train_ds.g)
    manifest.stage("sweep")

    trace.to_csv(out / "trace.csv")
    manifest.artifact(out / "trace.csv")
    doc = {
        "method": resolved["method"],
        "label": resolved["label"],
        "group": resolved["group"],
        "theta_box": sweep_cfg.theta_box,
        "estimator": {
            "variant": spec.variant,
            "relaxation": spec.relaxation.kind,
            "scale": spec.relaxation.scale,
            "cost": spec.cost.kind,
            "grid_step": spec.grid_shape()[1],
            "unbiased": spec.unbiased,
            "kde_bandwidth": spec.kde_bandwidth,
        },
        "omegas": [float(w) for w in sweep_cfg.omegas],
        "candidates": [
            {"omega": float(w), "theta": [float(v) for v in theta]} for w, theta in candidates
        ],
        "theta_original_units": [
            [float(v) for v in enc.original_theta(theta)] for _, theta in candidates
        ],
        "seed": resolved["seed"],
    }
    with open(out / "candidates.json", "w") as fh:
        json.dump(doc, fh, indent=2)
    manifest.artifact(out / "candidates.json")

    def scored(ds):
        # the train family is the sweep's; the test split gets its columns rebuilt
        family = fam_train if ds is train_ds else enc.reevaluate(ds.X, model=model).family(model, ds.X)
        return ((omega, theta, family.scores(theta)) for omega, theta in candidates)

    _write_frontier(resolved["method"], (train_ds, test_ds), scored, out, manifest)
    manifest.stage("evaluate")


def _read_candidates(path):
    """A mitigate run's candidates.json: the document and its ``(omega,
    theta)`` pairs, checked before any stage for the fields that ``evaluate``
    reads: each ω a finite number and each θ a list of finite numbers."""
    doc = read_json(path)
    keys = doc if isinstance(doc, dict) else {}
    missing = [key for key in ("method", "label", "group", "candidates") if key not in keys]
    if missing:
        raise ValueError(f"{path} lacks {', '.join(map(repr, missing))}: it is not the candidates.json of a mitigate run")
    if not json_field(doc, "candidates", path, list):
        raise ValueError(f"{path}: the candidates list is empty, so there is no frontier to score")
    pairs = []
    for k, cand in enumerate(doc["candidates"]):
        if not (isinstance(cand, dict) and "omega" in cand and "theta" in cand):
            raise ValueError(f"{path}: candidate {k} needs an 'omega' and a 'theta'")
        where = f"{path}: candidate {k}"
        omega = json_field(cand, "omega", where, (int, float))
        if not np.isfinite(omega):
            raise ValueError(f"{where}: 'omega' must be finite, got {omega}")
        theta = json_field(cand, "theta", where, list)
        if not all(isinstance(v, (int, float)) for v in theta):
            raise ValueError(f"{where}: 'theta' holds a value that is not a number")
        theta = np.asarray(theta, dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError(f"{where}: 'theta' holds {theta[~np.isfinite(theta)][0]}, not a finite number")
        pairs.append((omega, theta))
    return doc, pairs


def cmd_evaluate(resolved, manifest, out):
    if not (resolved["train"] or resolved["test"]):
        raise CliError("evaluate needs --train and/or --test")
    cand_path = Path(resolved["candidates"])
    doc, candidates = _read_candidates(cand_path)
    run_dir = cand_path.parent
    base_path = Path(resolved["base"]) if resolved["base"] else run_dir / "model.json"
    if not base_path.exists():
        raise CliError(f"base model not found at {base_path}; pass --base")
    enc_prefix = Path(resolved["encoders"]) if resolved["encoders"] else run_dir / "encoders"
    enc = EncoderMatrix.load(f"{enc_prefix}.csv", f"{enc_prefix}.json")
    kind = enc.provenance["kind"]
    if doc["method"] != kind:
        raise ValueError(f"{cand_path}: method {doc['method']!r}, but {enc_prefix}.json holds {kind!r} encoders")
    for k, (_, theta) in enumerate(candidates):
        if theta.shape != (enc.n_columns,):
            raise ValueError(
                f"{cand_path}: candidate {k} has {theta.size} theta values, but the encoders "
                f"{enc_prefix}.csv have {enc.n_columns} columns"
            )
    splits, model = _load_inputs(
        {**resolved, "label": doc["label"], "group": doc["group"]}, base_path, scored=True,
        shapley=kind == "shapley",
    )
    manifest.stage("load")

    def scored(ds):
        family = enc.reevaluate(ds.X, model=model).family(model, ds.X)
        return ((omega, theta, family.scores(theta)) for omega, theta in candidates)

    _write_frontier(doc["method"], splits, scored, out, manifest)
    manifest.stage("evaluate")


def _selected_features(value, n_features) -> list:
    """``--features``: 'all', or distinct indices of the split's features."""
    if value == "all":
        return list(range(n_features))
    try:
        selected = [int(i) for i in value.split(",") if i != ""]
    except ValueError:
        raise CliError(f"--features must be 'all' or comma-separated feature indices, got {value!r}") from None
    if not selected:
        raise CliError("--features names no feature")
    for k, i in enumerate(selected):
        if not 0 <= i < n_features:
            raise CliError(f"--features index {i} is outside the split's {n_features} features (0 to {n_features - 1})")
        if i in selected[:k]:
            raise CliError(f"--features names feature {i} twice")
    return selected


def cmd_baseline_rescale(resolved, manifest, out):
    omegas = np.linspace(0.0, resolved["omega-max"], resolved["omegas"])
    (train_ds, test_ds), model = _load_inputs(resolved, resolved["base"], scored=True)
    selected = _selected_features(resolved["features"], train_ds.X.shape[1])
    manifest.stage("load")
    result = random_search_rescaling(
        model,
        train_ds.X,
        train_ds.y,
        train_ds.g,
        selected,
        omegas,
        n_iter=resolved["iterations"],
        seed=resolved["seed"],
    )
    manifest.stage("search")

    def scored(ds):
        # each weight's best candidate, its theta the slopes then the anchors;
        # train reuses the search's probabilities, and on test the weights
        # that pick the same candidate share one walk of the model
        probs = dict(result.train_probs) if ds is train_ds else {}
        for omega in omegas:
            index = result.best_per_omega[float(omega)]
            cand = result.candidates[index]
            if index not in probs:
                probs[index] = model.predict_proba(cand.apply(ds.X, selected))
            yield omega, np.concatenate([cand.a, cand.x_star]), probs[index]

    _write_frontier("rescale", (train_ds, test_ds), scored, out, manifest)
    with open(out / "candidates.json", "w") as fh:
        json.dump(
            {
                "method": "rescale",
                "selected_features": selected,
                "best_per_omega": {fmt_float(k): v for k, v in result.best_per_omega.items()},
                "candidates": [
                    {"a": [float(v) for v in c.a], "x_star": [float(v) for v in c.x_star]}
                    for c in result.candidates
                ],
            },
            fh,
            indent=2,
        )
    manifest.artifact(out / "candidates.json")
    manifest.stage("evaluate")


def cmd_baseline_ot(resolved, manifest, out):
    thetas = np.linspace(0.0, 1.0, resolved["thetas"])
    params = _from_flags(GBDTParams, _GBDT_FIELDS, resolved)
    (train_ds, test_ds), model = _load_inputs(resolved, resolved["base"], scored=True)
    manifest.stage("load")
    proj = ot_projection(model, train_ds.X, train_ds.g, params=params, thetas=thetas)
    proj.projected_model.save(out / "projected_model.json")
    manifest.artifact(out / "projected_model.json")
    manifest.stage("project")
    # the projection already walked the base model on train
    scored = lambda ds: proj.candidates(proj.base_probs if ds is train_ds else model.predict_proba(ds.X), ds.X)
    _write_frontier("ot", (train_ds, test_ds), scored, out, manifest)
    manifest.stage("evaluate")


def cmd_report(resolved, manifest, out):
    points = []
    for path in resolved["inputs"]:
        points.extend(read_frontier_csv(path))
    if not points:
        raise ValueError(f"no frontier points to report in {', '.join(resolved['inputs'])}")
    manifest.stage("load")
    _write_frontier_artifacts(points, out, manifest)
    manifest.stage("write")


# --------------------------------------------------------------------------
# the option table
# --------------------------------------------------------------------------


def _switch(value):
    """A JSON bool or the integer 0/1; anything else is an error."""
    if type(value) is bool or (type(value) is int and value in (0, 1)):
        return bool(value)
    raise ValueError(f"expected true, false, 0 or 1, got {value!r}")


def _path_list(value):
    return [str(p) for p in ([value] if isinstance(value, str) else value)]


def _typed(kind, help, rule=None):
    """A flag parsed by ``kind``; a config value is converted by it too."""
    return {"type": kind, "help": help}, kind, rule


def _choice(choices, help):
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value

    return {"choices": choices, "help": help}, convert, None


# range rules: (test of a converted value, what the value must be).  With a
# count below 1 there is no frontier or no encoder column; a weight must be a
# finite nonnegative number; numpy seeds its streams only from a seed >= 0
_AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")
_NONNEGATIVE = (lambda v: 0.0 <= v < np.inf, "must be finite and nonnegative")
_UNIT_INTERVAL = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")

# flag -> (argparse keywords, conversion of the resolved value, range rule or None)
FLAGS = {
    # data and runs
    "train": _typed(str, "training CSV"),
    "test": _typed(str, "held-out CSV: scored next to train, and train-base validates on it"),
    "label": _typed(str, "label column (binary)"),
    "group": _typed(str, "protected-group column (0 and 1)"),
    "base": _typed(str, "base model, the model.json of train-base"),
    "seed": _typed(int, "seed of every random draw", _NONNEGATIVE),
    "out": _typed(str, "output directory"),
    # generate
    "model": _choice(("m1", "m2"), "synthetic model"),
    "n": _typed(int, "records to generate"),
    "split": _typed(float, "train share; also writes train.csv and test.csv", _UNIT_INTERVAL),
    # GBDT
    "grid": ({"action": "store_true", "default": None, "help": "select depth and rate on a small grid"}, _switch, None),
    "depth": _typed(int, "tree depth"),
    "rounds": _typed(int, "boosting rounds"),
    "learning-rate": _typed(float, "boosting learning rate"),
    "min-leaf": _typed(float, "least number of records in a leaf"),
    "early-stop": _typed(int, "stop after this many rounds without test improvement; 0 never stops"),
    # encoders
    "method": _choice(("tree-pca", "additive", "shapley"), "encoder family"),
    "components": _typed(int, "tree-pca: principal components, at most one per tree", _AT_LEAST_ONE),
    "degree": _typed(int, "additive: polynomial degree", _AT_LEAST_ONE),
    "basis": _choice(("monomial", "legendre"), "additive: polynomial basis"),
    "background": _typed(int, "shapley: background records", _AT_LEAST_ONE),
    # bias estimator
    "estimator": _choice(tuple(ESTIMATOR_ALIASES), "bias estimator"),
    "relaxation": _choice(("ramp", "logistic", "shifted-logistic"), "relaxation of the threshold step"),
    "scale": _typed(float, "relaxation scale s"),
    "cost": _choice(("abs", "square"), "cost of the CDF gap"),
    "grid-step": _typed(float, "threshold grid step"),
    "kde-bandwidth": _typed(float, "invariant-kde: kernel bandwidth; Silverman's rule when unset"),
    "unbiased": (
        {"type": int, "help": "1 or 0: subtract the within-group variance (square-cost threshold estimators)"},
        _switch,
        None,
    ),
    # sweep
    "omegas": _typed(int, "number of fairness weights", _AT_LEAST_ONE),
    "omega-scale": _choice(("one", "ratio"), "unit of the weight ladder: 1, or the base loss/bias ratio"),
    "omega-scale-mult": _typed(float, "multiplier of that unit", _NONNEGATIVE),
    "objective": _choice(("penalized", "lagrangian"), "objective form"),
    "loss": _choice(("cross-entropy", "distill"), "performance loss"),
    "epochs": _typed(int, "SGD epochs per weight"),
    "batches": _typed(int, "SGD batches per epoch"),
    "batch-size": _typed(int, "records per SGD batch, for the loss and for the bias"),
    "sgd-rate": _typed(float, "SGD learning rate"),
    "theta-box": _typed(float, "half-width of the box that bounds each theta coordinate"),
    # baselines
    "features": _typed(str, "comma-separated feature indices, or 'all'"),
    "iterations": _typed(int, "random-search candidates", _NONNEGATIVE),
    "omega-max": _typed(float, "largest fairness weight", _NONNEGATIVE),
    "thetas": _typed(int, "interpolation points between the base and projected models", _AT_LEAST_ONE),
    # evaluate and report
    "candidates": _typed(str, "candidates.json of a mitigate run"),
    "encoders": _typed(str, "encoder files without extension; the run's encoders by default"),
    "inputs": ({"nargs": "+", "help": "frontier.csv files to merge"}, _path_list, None),
}


@dataclass(frozen=True)
class Command:
    run: object                 # cmd_*(resolved, manifest, out)
    defaults: dict              # {flag: default} of every flag the command takes
    needs: tuple = ()           # flags that must be set
    convert: dict = field(default_factory=dict)  # conversions that replace a flag's own


_COLUMNS = {"label": "label", "group": "group"}
_DATA = {"train": None, "test": None, **_COLUMNS}
_SEED = {"seed": 0}
_ENCODER = {
    "method": "tree-pca",
    "components": 40,
    "degree": 1,
    # plain powers are the CLI's additive columns (the library's basis is legendre)
    "basis": "monomial",
    "background": DEFAULT_BACKGROUND_SIZE,
}
# the base model: shallow, slow-learning trees on large leaves keep its
# scores smooth (GBDTParams is a general-purpose 4/300/0.08/16/25)
_BASE_MODEL = GBDTParams(depth=2, rounds=800, learning_rate=0.04, min_leaf=64.0, early_stop_rounds=30)
_OMEGA_COUNT = default_omegas().size

COMMANDS = {
    "generate": Command(cmd_generate, {"model": "m1", "n": 20_000, **_SEED, "split": None, "out": "data"}),
    "train-base": Command(
        cmd_train_base,
        {**_DATA, "grid": False, **_flag_defaults(_GBDT_FIELDS, _BASE_MODEL), **_SEED, "out": "model"},
        needs=("train",),
    ),
    "encode": Command(
        cmd_encode,
        {"train": None, "base": None, **_COLUMNS, **_ENCODER, **_SEED, "out": "encoders"},
        needs=("train",),
    ),
    "mitigate": Command(
        cmd_mitigate,
        {
            **_DATA,
            "base": None,
            **_ENCODER,
            # the library's default variant, by its alias
            "estimator": next(a for a, v in ESTIMATOR_ALIASES.items() if v == BiasEstimatorSpec.variant),
            "relaxation": BiasEstimatorSpec.relaxation.kind,
            "scale": BiasEstimatorSpec.relaxation.scale,
            "cost": BiasEstimatorSpec.cost.kind,
            "grid-step": BiasEstimatorSpec.thresholds,
            "kde-bandwidth": BiasEstimatorSpec.kde_bandwidth,
            # a sweep scores small batches, whose squared gaps carry a sampling-variance inflation
            "unbiased": True,
            "omegas": _OMEGA_COUNT,
            "omega-scale": "ratio",
            "omega-scale-mult": 1.5,
            # the ratio-scaled ladder passes omega = 1, where the penalized loss weight 1 - omega turns negative
            **_flag_defaults(_SWEEP_FIELDS, SweepConfig(objective="lagrangian")),
            **_SEED,
            "out": "run",
        },
        needs=("train", "base"),
    ),
    "baseline-rescale": Command(
        cmd_baseline_rescale,
        {
            **_DATA,
            "base": None,
            "features": "all",
            "iterations": 1150,
            "omegas": _OMEGA_COUNT,
            "omega-max": 10.0,
            **_SEED,
            "out": "rescale",
        },
        needs=("train", "base"),
    ),
    "baseline-ot": Command(
        cmd_baseline_ot,
        {
            **_DATA, "base": None, "thetas": DEFAULT_THETA_GRID,
            **_flag_defaults(_GBDT_FIELDS, OT_REGRESSOR_PARAMS), **_SEED, "out": "ot",
        },
        needs=("train", "base"),
    ),
    "evaluate": Command(
        cmd_evaluate,
        {"candidates": None, "base": None, "encoders": None, "train": None, "test": None, "out": "evaluation"},
        needs=("candidates",),
    ),
    # report records its output directory normalised
    "report": Command(
        cmd_report, {"inputs": (), "out": "report"}, needs=("inputs",), convert={"out": lambda v: str(Path(v))}
    ),
}


def _resolve_options(name, args) -> dict:
    """Each option of the command from its flag, else the config document,
    else the table's default, then through the flag's conversion; a
    missing required flag, or a group column that is the label, is an
    error."""
    command = COMMANDS[name]
    config = _load_config(args.config)
    resolved = {}
    for flag, default in command.defaults.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is None:
            value = config.get(flag)
        if value is None:
            value = default
        if value is not None:
            convert = command.convert.get(flag, FLAGS[flag][1])
            try:
                value = convert(value)
            except (TypeError, ValueError) as exc:
                raise CliError(f"option {flag!r}: {exc}") from exc
        resolved[flag] = value
    for flag in command.needs:
        if not resolved[flag]:
            raise CliError(f"{name} needs --{flag}")
    # the group is used only to mitigate and to evaluate; named as the
    # label, the real group column would be left among the features
    if "group" in resolved and resolved["group"] == resolved["label"]:
        raise CliError(f"--label and --group both name column {resolved['label']!r}")
    return resolved


# --------------------------------------------------------------------------
# argument parsing and the run
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfront",
        description="Post-processing bias mitigation with efficient frontiers.",
    )
    parser.add_argument("--version", action="version", version=f"fairfront {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document; flags override its fields")
        for flag, default in command.defaults.items():
            kwargs = FLAGS[flag][0]
            shown = "" if default in (None, ()) else f" (default: {default})"
            p.add_argument(f"--{flag}", **{**kwargs, "help": kwargs["help"] + shown})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = None
    try:
        resolved = _resolve_options(args.command, args)
        out = _out_dir(resolved["out"])
        manifest = Manifest(args.command, resolved, out)
        _check_ranges(resolved)
        COMMANDS[args.command].run(resolved, manifest, out)
        manifest.doc["status"] = "ok"
        return 0
    except CliError as exc:
        return _failed(manifest, exc, 2)
    except (ValueError, OSError) as exc:
        return _failed(manifest, exc, 1)
    except Exception as exc:
        # a defect: the manifest names it, and its traceback propagates
        if manifest is not None:
            manifest.doc.update(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        if manifest is not None:
            manifest.write()


def _check_ranges(resolved):
    """Each resolved value against its flag's range rule, in the command's
    flag order; the first that breaks its rule fails the run before any
    stage."""
    for flag, value in resolved.items():
        rule = FLAGS[flag][2]
        if rule is not None and value is not None and not rule[0](value):
            raise CliError(f"--{flag} {rule[1]}, got {value}")


def _failed(manifest, exc, code) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if manifest is not None:
        manifest.doc.update(status="error", error=str(exc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
