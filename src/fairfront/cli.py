"""Batch command-line front end.

Subcommands: generate, train-base, encode, mitigate, baseline-rescale,
baseline-ot, evaluate, report.  Every run takes its settings from flags, a
JSON config document, or both (flags override config fields), and writes a
manifest recording the resolved configuration, its hash, library versions,
timings, and the artifacts produced.  All randomness is seeded from the
resolved config, so repeated runs produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._util import config_hash, fmt_float
from .baselines import ot_projection, random_search_rescaling
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
from .encoders import EncoderMatrix, additive_encoders, shapley_encoders, tree_pca_encoders
from .estimators import BiasEstimatorSpec
from .frontier import (
    FrontierPoint,
    evaluate as evaluate_candidates,
    pareto_filter,
    score_metrics,
    write_frontier_csv,
    write_frontier_svg,
)
from .gbdt import Ensemble, GBDTParams, train as train_gbdt
from .linear_family import LinearFamily
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


def _resolve(args, config: dict, key: str, default):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config {path}: expected a JSON object")
    return doc


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
            },
            "timings": {},
            "artifacts": [],
            "status": "incomplete",
        }
        self.out_dir = out_dir
        self._stage_start = time.time()

    def stage(self, name: str):
        now = time.time()
        self.doc["timings"][name] = round(now - self._stage_start, 3)
        self._stage_start = now

    def artifact(self, path: Path):
        self.doc["artifacts"].append(path.name)

    def write(self, status="ok"):
        self.doc["status"] = status
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(self.doc, fh, indent=2, sort_keys=True)


def _out_dir(path_str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(path, label, group, two_groups=False) -> Dataset:
    """Load one CSV; with ``two_groups``, reject a file with more than two
    groups (the bias metrics and the sweep compare group 0 with group 1)."""
    if path is None:
        raise CliError("a dataset path is required")
    ds = load_csv(path, label_column=label, group_column=group)
    n_groups = np.unique(ds.g).size if two_groups else 0
    if n_groups > 2:
        raise ValueError(f"{path}: {n_groups} groups in column {group!r}; only two are supported")
    return ds


def _load_splits(resolved, two_groups=False) -> tuple:
    """Load train (and optional test), imputing missing cells with
    train-fitted means so every downstream stage sees finite values."""
    train_ds = _load_dataset(resolved["train"], resolved["label"], resolved["group"], two_groups)
    test_ds = (
        _load_dataset(resolved["test"], resolved["label"], resolved["group"], two_groups)
        if resolved.get("test")
        else None
    )
    if np.isnan(train_ds.X).any() or (test_ds is not None and np.isnan(test_ds.X).any()):
        prep = fit_preprocessor(train_ds, standardize=False)
        train_ds = apply_preprocessor(train_ds, prep)
        if test_ds is not None:
            test_ds = apply_preprocessor(test_ds, prep)
    return train_ds, test_ds


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_generate(args):
    config = _load_config(args)
    resolved = {
        "model": _resolve(args, config, "model", "m1"),
        "n": int(_resolve(args, config, "n", 20_000)),
        "seed": int(_resolve(args, config, "seed", 0)),
        "split": _resolve(args, config, "split", None),
        "out": _resolve(args, config, "out", "data"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("generate", resolved, out)
    generator = {"m1": generate_m1, "m2": generate_m2}.get(resolved["model"])
    if generator is None:
        raise CliError(f"unknown synthetic model {resolved['model']!r}")
    ds = generator(resolved["n"], resolved["seed"])
    manifest.stage("generate")
    save_csv(ds, out / "data.csv")
    save_sidecar(ds, out / "data.json", extra={"model": resolved["model"], "seed": resolved["seed"]})
    manifest.artifact(out / "data.csv")
    manifest.artifact(out / "data.json")
    if resolved["split"] is not None:
        train_ds, test_ds = split(ds, float(resolved["split"]), seed=resolved["seed"])
        for name, part in (("train", train_ds), ("test", test_ds)):
            save_csv(part, out / f"{name}.csv")
            manifest.artifact(out / f"{name}.csv")
    manifest.stage("write")
    manifest.write()
    return 0


def _gbdt_params(args, config) -> GBDTParams:
    return GBDTParams(
        depth=int(_resolve(args, config, "depth", 2)),
        rounds=int(_resolve(args, config, "rounds", 800)),
        learning_rate=float(_resolve(args, config, "learning-rate", 0.04)),
        min_leaf=float(_resolve(args, config, "min-leaf", 64.0)),
        early_stop_rounds=int(_resolve(args, config, "early-stop", 30)),
        seed=int(_resolve(args, config, "seed", 0)),
    )


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


def cmd_train_base(args):
    from ._util import cross_entropy

    config = _load_config(args)
    resolved = {
        "train": _resolve(args, config, "train", None),
        "test": _resolve(args, config, "test", None),
        "label": _resolve(args, config, "label", "label"),
        "group": _resolve(args, config, "group", "group"),
        "grid": bool(_resolve(args, config, "grid", False)),
        "depth": int(_resolve(args, config, "depth", 2)),
        "rounds": int(_resolve(args, config, "rounds", 800)),
        "learning-rate": float(_resolve(args, config, "learning-rate", 0.04)),
        "min-leaf": float(_resolve(args, config, "min-leaf", 64.0)),
        "early-stop": int(_resolve(args, config, "early-stop", 30)),
        "seed": int(_resolve(args, config, "seed", 0)),
        "out": _resolve(args, config, "out", "model"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("train-base", resolved, out)
    train_ds, test_ds = _load_splits(resolved)
    valid = (test_ds.X, test_ds.y) if test_ds is not None else None
    manifest.stage("load")

    if resolved["grid"]:
        entries = []
        for combo in GRID:
            params = GBDTParams(
                depth=combo["depth"],
                rounds=resolved["rounds"],
                learning_rate=combo["learning_rate"],
                min_leaf=resolved["min-leaf"],
                early_stop_rounds=resolved["early-stop"],
                seed=resolved["seed"],
            )
            model = train_gbdt(train_ds.X, train_ds.y, params=params, valid=valid)
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
        model = train_gbdt(train_ds.X, train_ds.y, params=_gbdt_params(args, config), valid=valid)
    manifest.stage("train")
    model.save(out / "model.json")
    manifest.artifact(out / "model.json")
    manifest.write()
    return 0


def _build_encoders(method, model, train_ds, args, config) -> EncoderMatrix:
    if method == "tree-pca":
        r = int(_resolve(args, config, "components", 40))
        return tree_pca_encoders(model, train_ds.X, r=min(r, model.n_trees))
    if method == "additive":
        return additive_encoders(
            train_ds.X,
            degree=int(_resolve(args, config, "degree", 1)),
            basis=_resolve(args, config, "basis", "monomial"),
            feature_names=train_ds.feature_names,
        )
    if method == "shapley":
        return shapley_encoders(
            model.predict_raw,
            train_ds.X,
            background_size=int(_resolve(args, config, "background", 256)),
            seed=int(_resolve(args, config, "seed", 0)),
        )
    raise CliError(f"unknown encoder method {method!r}")


def cmd_encode(args):
    config = _load_config(args)
    resolved = {
        "method": _resolve(args, config, "method", "tree-pca"),
        "train": _resolve(args, config, "train", None),
        "base": _resolve(args, config, "base", None),
        "label": _resolve(args, config, "label", "label"),
        "group": _resolve(args, config, "group", "group"),
        "components": int(_resolve(args, config, "components", 40)),
        "degree": int(_resolve(args, config, "degree", 1)),
        "basis": _resolve(args, config, "basis", "monomial"),
        "background": int(_resolve(args, config, "background", 256)),
        "seed": int(_resolve(args, config, "seed", 0)),
        "out": _resolve(args, config, "out", "encoders"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("encode", resolved, out)
    train_ds, _ = _load_splits(resolved)
    model = Ensemble.load(resolved["base"]) if resolved["base"] else None
    if resolved["method"] != "additive" and model is None:
        raise CliError(f"{resolved['method']} encoders need --base")
    enc = _build_encoders(resolved["method"], model, train_ds, args, config)
    manifest.stage("build")
    enc.save(out / "encoders.csv", out / "encoders.json")
    manifest.artifact(out / "encoders.csv")
    manifest.artifact(out / "encoders.json")
    manifest.write()
    return 0


def _estimator_spec(args, config, seed) -> BiasEstimatorSpec:
    name = _resolve(args, config, "estimator", "trapezoid")
    variant = ESTIMATOR_ALIASES.get(name, name)
    return BiasEstimatorSpec(
        variant=variant,
        relaxation=RelaxationFamily(
            _resolve(args, config, "relaxation", "logistic"),
            float(_resolve(args, config, "scale", 20.0)),
        ),
        cost=CostFunction(_resolve(args, config, "cost", "square")),
        thresholds=float(_resolve(args, config, "grid-step", 1.0 / 129.0)),
        kde_bandwidth=_resolve(args, config, "kde-bandwidth", None),
        rng_seed=seed,
        unbiased=bool(_resolve(args, config, "unbiased", True)),
    )


def _evaluate_splits(candidates, fam_train, train_ds, fam_test, test_ds, method):
    points = []
    if fam_train is not None:
        points += evaluate_candidates(candidates, fam_train, train_ds.y, train_ds.g, "train", method)
    if fam_test is not None:
        points += evaluate_candidates(candidates, fam_test, test_ds.y, test_ds.g, "test", method)
    return points


def _filtered_frontier(points):
    kept = []
    for split_name in ("train", "test"):
        subset = [p for p in points if p.split == split_name]
        if subset:
            kept.extend(pareto_filter(subset))
    return kept


def _write_frontier_artifacts(points, out, manifest):
    write_frontier_csv(points, out / "frontier.csv")
    manifest.artifact(out / "frontier.csv")
    write_frontier_svg(points, out / "frontier.svg")
    manifest.artifact(out / "frontier.svg")


def cmd_mitigate(args):
    config = _load_config(args)
    resolved = {
        "method": _resolve(args, config, "method", "tree-pca"),
        "estimator": _resolve(args, config, "estimator", "trapezoid"),
        "train": _resolve(args, config, "train", None),
        "test": _resolve(args, config, "test", None),
        "base": _resolve(args, config, "base", None),
        "label": _resolve(args, config, "label", "label"),
        "group": _resolve(args, config, "group", "group"),
        "components": int(_resolve(args, config, "components", 40)),
        "degree": int(_resolve(args, config, "degree", 1)),
        "basis": _resolve(args, config, "basis", "monomial"),
        "background": int(_resolve(args, config, "background", 256)),
        "omegas": int(_resolve(args, config, "omegas", 21)),
        "omega-scale": _resolve(args, config, "omega-scale", "ratio"),
        "omega-scale-mult": float(_resolve(args, config, "omega-scale-mult", 1.5)),
        "objective": _resolve(args, config, "objective", "lagrangian"),
        "loss": _resolve(args, config, "loss", "cross-entropy"),
        "epochs": int(_resolve(args, config, "epochs", 20)),
        "batches": int(_resolve(args, config, "batches", 10)),
        "batch-size": int(_resolve(args, config, "batch-size", 1024)),
        "sgd-rate": float(_resolve(args, config, "sgd-rate", 0.01)),
        "relaxation": _resolve(args, config, "relaxation", "logistic"),
        "scale": float(_resolve(args, config, "scale", 20.0)),
        "cost": _resolve(args, config, "cost", "square"),
        "grid-step": float(_resolve(args, config, "grid-step", 1.0 / 129.0)),
        "unbiased": bool(_resolve(args, config, "unbiased", True)),
        "theta-box": float(_resolve(args, config, "theta-box", 10.0)),
        "seed": int(_resolve(args, config, "seed", 0)),
        "out": _resolve(args, config, "out", "run"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("mitigate", resolved, out)
    if resolved["base"] is None:
        raise CliError("mitigate needs --base (train one with train-base)")
    train_ds, test_ds = _load_splits(resolved, two_groups=True)
    model = Ensemble.load(resolved["base"])
    manifest.stage("load")

    enc = _build_encoders(resolved["method"], model, train_ds, args, config)
    enc.save(out / "encoders.csv", out / "encoders.json")
    manifest.artifact(out / "encoders.csv")
    manifest.artifact(out / "encoders.json")
    manifest.stage("encoders")

    seed = resolved["seed"]
    spec = _estimator_spec(args, config, seed)
    box = resolved["theta-box"]
    n_cols = enc.n_columns
    theta_box = np.column_stack([np.full(n_cols, -box), np.full(n_cols, box)])
    fam_train = enc.to_linear_family(model.predict_raw(train_ds.X), theta_box=theta_box)
    if resolved["omega-scale"] == "ratio":
        scale = resolved["omega-scale-mult"] * loss_bias_ratio_scale(fam_train, spec, train_ds.y, train_ds.g)
    else:
        scale = resolved["omega-scale-mult"]
    sweep_cfg = SweepConfig(
        omegas=default_omegas(scale, resolved["omegas"]),
        learning_rate=resolved["sgd-rate"],
        n_epochs=resolved["epochs"],
        n_batches=resolved["batches"],
        n_perf=resolved["batch-size"],
        n_bias=resolved["batch-size"],
        objective=resolved["objective"],
        loss=resolved["loss"],
        seed=seed,
    )
    candidates, trace = sgd_sweep(fam_train, spec, sweep_cfg, train_ds.y, train_ds.g)
    manifest.stage("sweep")

    trace.to_csv(out / "trace.csv")
    manifest.artifact(out / "trace.csv")
    doc = {
        "method": resolved["method"],
        "label": resolved["label"],
        "group": resolved["group"],
        "theta_box": box,
        "estimator": {
            "variant": spec.variant,
            "relaxation": spec.relaxation.kind,
            "scale": spec.relaxation.scale,
            "cost": spec.cost.kind,
            "grid_step": spec.grid_shape()[1],
            "unbiased": spec.unbiased,
        },
        "omegas": [float(w) for w in sweep_cfg.omegas],
        "candidates": [
            {"omega": float(w), "theta": [float(v) for v in theta]} for w, theta in candidates
        ],
        "theta_original_units": [
            [float(v) for v in enc.original_theta(theta)] for _, theta in candidates
        ],
        "seed": seed,
    }
    with open(out / "candidates.json", "w") as fh:
        json.dump(doc, fh, indent=2)
    manifest.artifact(out / "candidates.json")

    fam_test = None
    if test_ds is not None:
        enc_test = enc.reevaluate(test_ds.X, model=model)
        fam_test = enc_test.to_linear_family(model.predict_raw(test_ds.X), theta_box=theta_box)
    points = _evaluate_splits(candidates, fam_train, train_ds, fam_test, test_ds, resolved["method"])
    frontier_points = _filtered_frontier(points)
    _write_frontier_artifacts(frontier_points, out, manifest)
    manifest.stage("evaluate")
    manifest.write()
    return 0


def cmd_evaluate(args):
    config = _load_config(args)
    resolved = {
        "candidates": _resolve(args, config, "candidates", None),
        "base": _resolve(args, config, "base", None),
        "encoders": _resolve(args, config, "encoders", None),
        "train": _resolve(args, config, "train", None),
        "test": _resolve(args, config, "test", None),
        "out": _resolve(args, config, "out", "evaluation"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("evaluate", resolved, out)
    if resolved["candidates"] is None:
        raise CliError("evaluate needs --candidates")
    cand_path = Path(resolved["candidates"])
    with open(cand_path) as fh:
        doc = json.load(fh)
    run_dir = cand_path.parent
    base_path = Path(resolved["base"]) if resolved["base"] else run_dir / "model.json"
    if not base_path.exists():
        raise CliError(f"base model not found at {base_path}; pass --base")
    enc_prefix = Path(resolved["encoders"]) if resolved["encoders"] else run_dir / "encoders"
    enc = EncoderMatrix.load(f"{enc_prefix}.csv", f"{enc_prefix}.json")
    model = Ensemble.load(base_path)
    label, group = doc["label"], doc["group"]
    candidates = [(c["omega"], np.asarray(c["theta"], dtype=float)) for c in doc["candidates"]]
    box = float(doc.get("theta_box", 10.0))
    theta_box = np.column_stack([np.full(enc.n_columns, -box), np.full(enc.n_columns, box)])
    manifest.stage("load")

    fam_train = train_ds = fam_test = test_ds = None
    if resolved["train"]:
        train_ds = _load_dataset(resolved["train"], label, group, two_groups=True)
    if resolved["test"]:
        test_ds = _load_dataset(resolved["test"], label, group, two_groups=True)
    has_nan = any(ds is not None and np.isnan(ds.X).any() for ds in (train_ds, test_ds))
    if has_nan:
        # impute the way mitigate does: with means fitted on the train split
        prep = fit_preprocessor(train_ds if train_ds is not None else test_ds, standardize=False)
        train_ds = apply_preprocessor(train_ds, prep) if train_ds is not None else None
        test_ds = apply_preprocessor(test_ds, prep) if test_ds is not None else None
    if train_ds is not None:
        enc_train = enc.reevaluate(train_ds.X, model=model)
        fam_train = enc_train.to_linear_family(model.predict_raw(train_ds.X), theta_box=theta_box)
    if test_ds is not None:
        enc_test = enc.reevaluate(test_ds.X, model=model)
        fam_test = enc_test.to_linear_family(model.predict_raw(test_ds.X), theta_box=theta_box)
    if fam_train is None and fam_test is None:
        raise CliError("evaluate needs --train and/or --test")
    points = _evaluate_splits(candidates, fam_train, train_ds, fam_test, test_ds, doc["method"])
    frontier_points = _filtered_frontier(points)
    _write_frontier_artifacts(frontier_points, out, manifest)
    manifest.stage("evaluate")
    manifest.write()
    return 0


def cmd_baseline_rescale(args):
    config = _load_config(args)
    resolved = {
        "train": _resolve(args, config, "train", None),
        "test": _resolve(args, config, "test", None),
        "base": _resolve(args, config, "base", None),
        "label": _resolve(args, config, "label", "label"),
        "group": _resolve(args, config, "group", "group"),
        "features": _resolve(args, config, "features", "all"),
        "iterations": int(_resolve(args, config, "iterations", 1150)),
        "omegas": int(_resolve(args, config, "omegas", 21)),
        "omega-max": float(_resolve(args, config, "omega-max", 10.0)),
        "seed": int(_resolve(args, config, "seed", 0)),
        "out": _resolve(args, config, "out", "rescale"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("baseline-rescale", resolved, out)
    train_ds, test_ds = _load_splits(resolved, two_groups=True)
    model = Ensemble.load(resolved["base"])
    if resolved["features"] == "all":
        selected = list(range(train_ds.X.shape[1]))
    else:
        selected = [int(i) for i in str(resolved["features"]).split(",") if i != ""]
    omegas = np.linspace(0.0, resolved["omega-max"], resolved["omegas"])
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
    points = []
    for omega in omegas:
        cand = result.candidates[result.best_per_omega[float(omega)]]
        for split_name, ds in (("train", train_ds), ("test", test_ds)):
            if ds is None:
                continue
            probs = model.predict_proba(cand.apply(ds.X, selected))
            metrics = score_metrics(probs, ds.y, ds.g)
            points.append(
                FrontierPoint(
                    "rescale", float(omega), split_name, theta=np.concatenate([cand.a, cand.x_star]), **metrics
                )
            )
    frontier_points = _filtered_frontier(points)
    _write_frontier_artifacts(frontier_points, out, manifest)
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
    manifest.write()
    return 0


def cmd_baseline_ot(args):
    config = _load_config(args)
    resolved = {
        "train": _resolve(args, config, "train", None),
        "test": _resolve(args, config, "test", None),
        "base": _resolve(args, config, "base", None),
        "label": _resolve(args, config, "label", "label"),
        "group": _resolve(args, config, "group", "group"),
        "thetas": int(_resolve(args, config, "thetas", 15)),
        "depth": int(_resolve(args, config, "depth", 5)),
        "rounds": int(_resolve(args, config, "rounds", 400)),
        "learning-rate": float(_resolve(args, config, "learning-rate", 0.1)),
        "min-leaf": float(_resolve(args, config, "min-leaf", 8.0)),
        "early-stop": int(_resolve(args, config, "early-stop", 0)),
        "seed": int(_resolve(args, config, "seed", 0)),
        "out": _resolve(args, config, "out", "ot"),
    }
    out = _out_dir(resolved["out"])
    manifest = Manifest("baseline-ot", resolved, out)
    train_ds, test_ds = _load_splits(resolved, two_groups=True)
    model = Ensemble.load(resolved["base"])
    manifest.stage("load")
    params = GBDTParams(
        depth=resolved["depth"],
        rounds=resolved["rounds"],
        learning_rate=resolved["learning-rate"],
        min_leaf=resolved["min-leaf"],
        early_stop_rounds=resolved["early-stop"],
        seed=resolved["seed"],
    )
    proj = ot_projection(
        model,
        train_ds.X,
        train_ds.g,
        params=params,
        thetas=np.linspace(0.0, 1.0, resolved["thetas"]),
    )
    proj.projected_model.save(out / "projected_model.json")
    manifest.artifact(out / "projected_model.json")
    manifest.stage("project")
    points = []
    for split_name, ds in (("train", train_ds), ("test", test_ds)):
        if ds is None:
            continue
        base_probs = model.predict_proba(ds.X)
        for theta, probs in proj.candidates(base_probs, ds.X):
            metrics = score_metrics(probs, ds.y, ds.g)
            points.append(FrontierPoint("ot", theta, split_name, theta=np.array([theta]), **metrics))
    frontier_points = _filtered_frontier(points)
    _write_frontier_artifacts(frontier_points, out, manifest)
    manifest.stage("evaluate")
    manifest.write()
    return 0


def cmd_report(args):
    from .frontier import read_frontier_csv

    config = _load_config(args)
    inputs = _resolve(args, config, "inputs", None) or []
    out = _out_dir(_resolve(args, config, "out", "report"))
    resolved = {"inputs": [str(p) for p in inputs], "out": str(out)}
    manifest = Manifest("report", resolved, out)
    if not inputs:
        raise CliError("report needs at least one frontier.csv input")
    points = []
    for path in inputs:
        points.extend(read_frontier_csv(path))
    manifest.stage("load")
    _write_frontier_artifacts(points, out, manifest)
    manifest.stage("write")
    manifest.write()
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfront",
        description="Post-processing bias mitigation with efficient frontiers.",
    )
    parser.add_argument("--version", action="version", version=f"fairfront {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document; flags override its fields")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(fn=fn)
        return p

    add(
        "generate",
        cmd_generate,
        {
            "model": {"choices": ["m1", "m2"]},
            "n": {"type": int},
            "seed": {"type": int},
            "split": {"type": float},
            "out": {},
        },
    )
    gbdt_flags = {
        "depth": {"type": int},
        "rounds": {"type": int},
        "learning-rate": {"type": float},
        "min-leaf": {"type": float},
        "early-stop": {"type": int},
    }
    add(
        "train-base",
        cmd_train_base,
        {
            "train": {},
            "test": {},
            "label": {},
            "group": {},
            "grid": {"action": "store_true", "default": None},
            "seed": {"type": int},
            "out": {},
            **gbdt_flags,
        },
    )
    encoder_flags = {
        "method": {"choices": ["tree-pca", "additive", "shapley"]},
        "components": {"type": int},
        "degree": {"type": int},
        "basis": {"choices": ["monomial", "legendre"]},
        "background": {"type": int},
    }
    add(
        "encode",
        cmd_encode,
        {"train": {}, "base": {}, "label": {}, "group": {}, "seed": {"type": int}, "out": {}, **encoder_flags},
    )
    add(
        "mitigate",
        cmd_mitigate,
        {
            "train": {},
            "test": {},
            "base": {},
            "label": {},
            "group": {},
            "estimator": {"choices": list(ESTIMATOR_ALIASES)},
            "relaxation": {"choices": ["ramp", "logistic", "shifted-logistic"]},
            "scale": {"type": float},
            "cost": {"choices": ["abs", "square"]},
            "grid-step": {"type": float},
            "kde-bandwidth": {"type": float},
            "unbiased": {"type": int},
            "omegas": {"type": int},
            "omega-scale": {"choices": ["one", "ratio"]},
            "omega-scale-mult": {"type": float},
            "objective": {"choices": ["penalized", "lagrangian"]},
            "loss": {"choices": ["cross-entropy", "distill"]},
            "epochs": {"type": int},
            "batches": {"type": int},
            "batch-size": {"type": int},
            "sgd-rate": {"type": float},
            "theta-box": {"type": float},
            "seed": {"type": int},
            "out": {},
            **encoder_flags,
        },
    )
    add(
        "baseline-rescale",
        cmd_baseline_rescale,
        {
            "train": {},
            "test": {},
            "base": {},
            "label": {},
            "group": {},
            "features": {"help": "comma-separated feature indices, or 'all'"},
            "iterations": {"type": int},
            "omegas": {"type": int},
            "omega-max": {"type": float},
            "seed": {"type": int},
            "out": {},
        },
    )
    add(
        "baseline-ot",
        cmd_baseline_ot,
        {
            "train": {},
            "test": {},
            "base": {},
            "label": {},
            "group": {},
            "thetas": {"type": int},
            "seed": {"type": int},
            "out": {},
            **gbdt_flags,
        },
    )
    add(
        "evaluate",
        cmd_evaluate,
        {"candidates": {}, "base": {}, "encoders": {}, "train": {}, "test": {}, "out": {}},
    )
    report = add("report", cmd_report, {"out": {}})
    report.add_argument("--inputs", nargs="+")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
