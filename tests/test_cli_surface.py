"""The pinned command-line surface: every subcommand's flag set, the
resolved config of a run with only its required flags, and the manifest
config and config hash of the benchmark workloads' flags.  The literals were
recorded from the CLI as it stood before its option table, except that
mitigate has since recorded ``kde-bandwidth`` (null by default), which moved
the two mitigate hashes.  A change to any of them changes what a manifest
records for the same flags.  The last pins are the set of names the library
exports, the encoder kinds that a sidecar may hold, and the config fields
that the flag tables fill, with their defaults."""

import dataclasses
import inspect
import types

import pytest

import fairfront
import fairfront.cli as cli
from fairfront.baselines import OT_REGRESSOR_PARAMS
from fairfront.encoders import _STATE_FIELDS, additive_encoders, shapley_encoders
from fairfront.estimators import BiasEstimatorSpec
from fairfront.gbdt import GBDTParams
from fairfront.optimizer import SweepConfig

FLAG_SETS = {
    "generate": {"--config", "--model", "--n", "--out", "--seed", "--split"},
    "train-base": {
        "--config", "--depth", "--early-stop", "--grid", "--group", "--label", "--learning-rate", "--min-leaf",
        "--out", "--rounds", "--seed", "--test", "--train",
    },
    "encode": {
        "--background", "--base", "--basis", "--components", "--config", "--degree", "--group", "--label",
        "--method", "--out", "--seed", "--train",
    },
    "mitigate": {
        "--background", "--base", "--basis", "--batch-size", "--batches", "--components", "--config", "--cost",
        "--degree", "--epochs", "--estimator", "--grid-step", "--group", "--kde-bandwidth", "--label", "--loss",
        "--method", "--objective", "--omega-scale", "--omega-scale-mult", "--omegas", "--out", "--relaxation",
        "--scale", "--seed", "--sgd-rate", "--test", "--theta-box", "--train", "--unbiased",
    },
    "baseline-rescale": {
        "--base", "--config", "--features", "--group", "--iterations", "--label", "--omega-max", "--omegas",
        "--out", "--seed", "--test", "--train",
    },
    "baseline-ot": {
        "--base", "--config", "--depth", "--early-stop", "--group", "--label", "--learning-rate", "--min-leaf",
        "--out", "--rounds", "--seed", "--test", "--thetas", "--train",
    },
    "evaluate": {"--base", "--candidates", "--config", "--encoders", "--out", "--test", "--train"},
    "report": {"--config", "--inputs", "--out"},
}

TRAIN, TEST, MODEL = "data/train.csv", "data/test.csv", "model/model.json"

MINIMAL_RUNS = {
    "generate": (
        [],
        {"model": "m1", "n": 20000, "out": "data", "seed": 0, "split": None},
    ),
    "train-base": (
        ["--train", TRAIN],
        {
            "depth": 2, "early-stop": 30, "grid": False, "group": "group", "label": "label",
            "learning-rate": 0.04, "min-leaf": 64.0, "out": "model", "rounds": 800, "seed": 0, "test": None,
            "train": TRAIN,
        },
    ),
    "encode": (
        ["--train", TRAIN, "--base", MODEL],
        {
            "background": 256, "base": MODEL, "basis": "monomial", "components": 40, "degree": 1,
            "group": "group", "label": "label", "method": "tree-pca", "out": "encoders", "seed": 0, "train": TRAIN,
        },
    ),
    "mitigate": (
        ["--train", TRAIN, "--base", MODEL],
        {
            "background": 256, "base": MODEL, "basis": "monomial", "batch-size": 1024, "batches": 10,
            "components": 40, "cost": "square", "degree": 1, "epochs": 20, "estimator": "trapezoid",
            "grid-step": 0.007751937984496124, "group": "group", "kde-bandwidth": None, "label": "label",
            "loss": "cross-entropy", "method": "tree-pca", "objective": "lagrangian", "omega-scale": "ratio",
            "omega-scale-mult": 1.5, "omegas": 21, "out": "run", "relaxation": "logistic", "scale": 20.0,
            "seed": 0, "sgd-rate": 0.01, "test": None, "theta-box": 10.0, "train": TRAIN, "unbiased": True,
        },
    ),
    "baseline-rescale": (
        ["--train", TRAIN, "--base", MODEL],
        {
            "base": MODEL, "features": "all", "group": "group", "iterations": 1150, "label": "label",
            "omega-max": 10.0, "omegas": 21, "out": "rescale", "seed": 0, "test": None, "train": TRAIN,
        },
    ),
    "baseline-ot": (
        ["--train", TRAIN, "--base", MODEL],
        {
            "base": MODEL, "depth": 5, "early-stop": 0, "group": "group", "label": "label", "learning-rate": 0.1,
            "min-leaf": 8.0, "out": "ot", "rounds": 400, "seed": 0, "test": None, "thetas": 15, "train": TRAIN,
        },
    ),
    "evaluate": (
        ["--candidates", "run/candidates.json"],
        {
            "base": None, "candidates": "run/candidates.json", "encoders": None, "out": "evaluation",
            "test": None, "train": None,
        },
    ),
    # report records its output directory as str(Path(out))
    "report": (
        ["--inputs", "run/frontier.csv", "--out", "dir/"],
        {"inputs": ["run/frontier.csv"], "out": "dir"},
    ),
}

# The flags of the four benchmark workloads, at seed 101 and with fixed paths.
WORKLOADS = {
    "train-base": (
        ["train-base", "--train", TRAIN, "--test", TEST, "--early-stop", "0", "--out", "out"],
        "cd7de5950e108b159308ea0c0c71977fb9d5693ddbb939e4a7fbc812101cb989",
        {"early-stop": 0, "test": TEST, "out": "out"},
    ),
    "mitigate-grid": (
        [
            "mitigate", "--method", "tree-pca", "--components", "40", "--estimator", "trapezoid", "--omegas", "3",
            "--omega-scale-mult", "15", "--epochs", "3", "--train", TRAIN, "--test", TEST, "--base", MODEL,
            "--seed", "101", "--out", "out",
        ],
        "3b08010de42423d7cdaaa5bc2236dfc1eb696f9fab52947c771a08a0e8a95b07",
        {"omegas": 3, "omega-scale-mult": 15.0, "epochs": 3, "test": TEST, "seed": 101, "out": "out"},
    ),
    "mitigate-energy": (
        [
            "mitigate", "--method", "additive", "--estimator", "energy", "--omegas", "2", "--omega-scale-mult",
            "30", "--epochs", "2", "--train", TRAIN, "--test", TEST, "--base", MODEL, "--seed", "101",
            "--out", "out",
        ],
        "d87c6bf4b21df323963f95ef1350ef6e1482c6538e2087b25a89146d8f06de2f",
        {
            "method": "additive", "estimator": "energy", "omegas": 2, "omega-scale-mult": 30.0, "epochs": 2,
            "test": TEST, "seed": 101, "out": "out",
        },
    ),
    "shapley-encode": (
        [
            "encode", "--method", "shapley", "--background", "24", "--train", "slice.csv", "--base", MODEL,
            "--seed", "101", "--out", "out",
        ],
        "e1572849357cb0f67dec03b0e80c0b116732d09013c4ade0a4e9f06624075360",
        {"method": "shapley", "background": 24, "train": "slice.csv", "seed": 101, "out": "out"},
    ),
}


class Captured(Exception):
    pass


@pytest.fixture
def capture(monkeypatch, tmp_path):
    """Run ``main`` up to the manifest it would write, and return that
    manifest's document; nothing after it runs, so no input file is read."""

    class CapturingManifest(cli.Manifest):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            raise Captured(self.doc)

    monkeypatch.setattr(cli, "Manifest", CapturingManifest)
    monkeypatch.chdir(tmp_path)

    def run(argv):
        with pytest.raises(Captured) as caught:
            cli.main(argv)
        return caught.value.args[0]

    return run


def test_flag_sets():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert set(sub.choices) == set(FLAG_SETS)
    for name, p in sub.choices.items():
        flags = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == FLAG_SETS[name], name


@pytest.mark.parametrize("command", list(MINIMAL_RUNS))
def test_minimal_run_config(capture, command):
    flags, expected = MINIMAL_RUNS[command]
    doc = capture([command, *flags])
    assert doc["command"] == command
    assert doc["config"] == expected
    assert [type(doc["config"][k]) for k in sorted(expected)] == [type(expected[k]) for k in sorted(expected)]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_config_and_hash(capture, workload):
    argv, expected_hash, flagged = WORKLOADS[workload]
    doc = capture(argv)
    expected = {**MINIMAL_RUNS[argv[0]][1], **flagged}
    assert doc["config"] == expected
    assert doc["config_hash"] == expected_hash


# every public name of the library, so an export added or dropped shows here
EXPORTS = {
    "ABS", "ABS_LOG_RATIO", "BiasEstimatorSpec", "CostFunction", "Dataset", "EmpiricalDistribution",
    "EncoderMatrix", "Ensemble", "EstimatorBatch", "FrontierPoint", "GBDTParams", "GroupedScores",
    "LinearFamily", "MitigationTrace", "OtProjection", "RelaxationFamily", "SQUARE", "SweepConfig",
    "ThresholdMeasure", "Tree", "additive_encoders", "apply_preprocessor", "bias_value_and_grad", "cost_bias",
    "default_omegas", "distill_loss", "evaluate", "exact_marginal_shapley", "fit_preprocessor", "generate_m1",
    "generate_m2", "invariant_bias", "load_csv", "loss_bias_ratio_scale", "multi_attribute_bias",
    "ot_projection", "ot_repair", "pareto_filter", "penalized_objective", "per_tree_outputs",
    "random_search_rescaling", "read_frontier_csv", "repair_scores_by_label", "rescale_transform", "save_csv",
    "score_metrics", "sgd_sweep", "shapley_encoders", "split", "train_gbdt",
    "tree_pca_encoders", "wasserstein1", "write_frontier_csv", "write_frontier_svg",
}


def test_library_exports():
    public = {
        name
        for name, value in vars(fairfront).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


def test_sidecar_kinds_are_the_method_choices():
    # a kind that EncoderMatrix.load accepts but no subcommand writes is a
    # path that nothing in the pipeline reaches
    assert set(_STATE_FIELDS) == set(cli.FLAGS["method"][0]["choices"])


def test_flag_tables_cover_their_config_objects():
    # each field is filled from its one flag; a sweep's omegas wait for the
    # encoders, and its seed is the command's own --seed
    def names(kind):
        return {f.name for f in dataclasses.fields(kind)}

    assert set(cli._GBDT_FIELDS.values()) == names(GBDTParams)
    assert set(cli._SWEEP_FIELDS.values()) == names(SweepConfig) - {"omegas", "seed"}
    assert set(cli._GBDT_FIELDS) | set(cli._SWEEP_FIELDS) <= set(cli.FLAGS)

    # and each default of those flags is its object's default: the library
    # route runs what the command line runs
    for command, fields, config in (("train-base", cli._GBDT_FIELDS, GBDTParams()),
                                    ("baseline-ot", cli._GBDT_FIELDS, OT_REGRESSOR_PARAMS),
                                    ("mitigate", cli._SWEEP_FIELDS, SweepConfig())):
        defaults = cli.COMMANDS[command].defaults
        assert {flag: defaults[flag] for flag in fields} == cli._flag_defaults(fields, config), command
    assert cli._estimator_spec(cli.COMMANDS["mitigate"].defaults) == BiasEstimatorSpec()
    basis = inspect.signature(additive_encoders).parameters["basis"].default
    background = inspect.signature(shapley_encoders).parameters["background_size"].default
    for command in ("encode", "mitigate"):
        assert cli.COMMANDS[command].defaults["basis"] == basis
        assert cli.COMMANDS[command].defaults["background"] == background
