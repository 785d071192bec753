"""The supported envelope of the command line, as one table: each cell is
an input at the edge of what a subcommand supports, and the outcome it
must have.

- *rejected at resolution*: a missing required flag, a value that its
  flag's conversion refuses, a bad ``--config``, or ``--label`` and
  ``--group`` naming one column; exit 2, an ``error:`` line, and no output
  directory.
- *fails before any stage*: a value outside its flag's range rule (exit 2),
  or a setting, split, model, candidates file, encoder sidecar or frontier
  file that the run cannot use (exit 1 or 2); the exact ``error:`` line,
  and ``manifest.json`` as the only file, with ``status: error``, that
  error and empty timings.
- *completes*: exit 0.

Flags and errors name the fixture files by placeholders, ``{train}`` and
the like, filled in from ``paths``.
"""

import csv
import json

import numpy as np
import pytest

from fairfront import cli
from fairfront.cli import main
from conftest import run_mitigate

AT_RESOLUTION = "rejected at resolution"
BEFORE_ANY_STAGE = "fails before any stage"
COMPLETES = "completes"


def rejected(command, flags, error, id):
    return pytest.param(command, flags, AT_RESOLUTION, 2, error, id=id)


def fails(command, flags, code, error, id):
    return pytest.param(command, flags, BEFORE_ANY_STAGE, code, error, id=id)


def completes(command, flags, id):
    return pytest.param(command, flags, COMPLETES, 0, None, id=id)


TRAIN = ["--train", "{train}"]
SPLITS = ["--train", "{train}", "--test", "{test}"]
BASE = ["--base", "{base}"]
EVALUATE = [*SPLITS, *BASE, "--candidates", "{run}/candidates.json"]
SEED = "--seed must be finite and nonnegative, got -1"
ONE_CLASS = "{one_class}: every record has label 1 in column 'label'; both 0 and 1 are needed"
NON_FINITE = "{non_finite}: non-finite cell 'inf' at row 5, column 'x2'"
SHORT = "{short} has 4 features, but the model {base} has n_features 5"
SWAPPED = ("{swapped} has features ['x2', 'x1', 'x3', 'x4', 'x5'], but {train} has ['x1', 'x2', 'x3', 'x4', 'x5']; "
           "a run's splits must name the same features in the same order")
THREE_GROUPS = "{three_groups}: 3 groups in column 'group'; only two are supported"
DEEP_PATH = "a tree path tests 10 distinct features; TreeSHAP tables grow as 4^10, more than 8 are not supported"
SWITCH = "option {!r}: expected true, false, 0 or 1, got {!r}"
BAD_MODEL = "{bad_model}: invalid JSON (Expecting value: line 1 column 1 (char 0))"

CELLS = [
    # --- option resolution ---------------------------------------------------
    rejected("mitigate", TRAIN, "mitigate needs --base", id="mitigate-no-base"),
    rejected("baseline-rescale", TRAIN, "baseline-rescale needs --base", id="baseline-rescale-no-base"),
    rejected("baseline-ot", TRAIN, "baseline-ot needs --base", id="baseline-ot-no-base"),
    rejected("mitigate", ["--config", "{cfg_unbiased_false}"], SWITCH.format("unbiased", "false"),
             id="mitigate-config-unbiased-false"),
    rejected("train-base", ["--config", "{cfg_grid_false}"], SWITCH.format("grid", "false"),
             id="train-base-config-grid-false"),
    rejected("mitigate", ["--config", "{cfg_unbiased_2}"], SWITCH.format("unbiased", 2), id="mitigate-config-unbiased-2"),
    rejected("mitigate", ["--config", "{cfg_unbiased_1_0}"], SWITCH.format("unbiased", 1.0),
             id="mitigate-config-unbiased-1.0"),
    rejected("mitigate", [*TRAIN, *BASE, "--unbiased", "2"], SWITCH.format("unbiased", 2), id="mitigate-unbiased-2"),
    rejected("encode", ["--config", "{cfg_method_pca}"],
             "option 'method': expected one of tree-pca, additive, shapley, got 'pca'", id="encode-config-method-pca"),
    rejected("generate", ["--config", "{cfg_not_json}"],
             "config {cfg_not_json}: invalid JSON (Expecting value: line 1 column 1 (char 0))",
             id="generate-config-not-json"),
    # the group as the label once made the real group column a model feature
    *[rejected(command, [*TRAIN, *base, "--group", "label"], "--label and --group both name column 'label'",
               id=f"{command}-group-is-label")
      for command, base in (("train-base", []), ("encode", []), ("mitigate", BASE), ("baseline-rescale", BASE),
                            ("baseline-ot", BASE))],
    # --- range rules of FLAGS: exit 2 ----------------------------------------
    # a train share outside (0, 1) once failed after the generate stage
    *[fails("generate", ["--n", "200", "--split", v], 2, f"--split must lie in (0, 1), got {float(v)}",
            id=f"generate-split-{v}") for v in ("1.5", "1", "0", "-0.2", "nan")],
    fails("generate", ["--n", "200", "--seed", "-1"], 2, SEED, id="generate-seed-negative"),
    fails("train-base", [*SPLITS, "--seed", "-1"], 2, SEED, id="train-base-seed-negative"),
    fails("encode", [*TRAIN, *BASE, "--method", "shapley", "--seed", "-1"], 2, SEED, id="encode-seed-negative"),
    fails("mitigate", [*SPLITS, *BASE, "--seed", "-1"], 2, SEED, id="mitigate-seed-negative"),
    fails("baseline-rescale", [*SPLITS, *BASE, "--seed", "-1"], 2, SEED, id="baseline-rescale-seed-negative"),
    fails("baseline-ot", [*SPLITS, *BASE, "--seed", "-1"], 2, SEED, id="baseline-ot-seed-negative"),
    fails("mitigate", [*TRAIN, *BASE, "--omegas", "0"], 2, "--omegas must be at least 1, got 0", id="mitigate-omegas-0"),
    fails("mitigate", [*TRAIN, *BASE, "--omegas", "-2"], 2, "--omegas must be at least 1, got -2",
          id="mitigate-omegas-negative"),
    fails("mitigate", ["--config", "{cfg_omegas_0}"], 2, "--omegas must be at least 1, got 0",
          id="mitigate-config-omegas-0"),
    fails("baseline-rescale", [*TRAIN, *BASE, "--omegas", "0"], 2, "--omegas must be at least 1, got 0",
          id="baseline-rescale-omegas-0"),
    fails("baseline-rescale", [*TRAIN, *BASE, "--omegas", "-2"], 2, "--omegas must be at least 1, got -2",
          id="baseline-rescale-omegas-negative"),
    *[fails("mitigate", [*TRAIN, *BASE, "--omega-scale-mult", v], 2,
            f"--omega-scale-mult must be finite and nonnegative, got {float(v)}", id=f"mitigate-omega-scale-mult-{v}")
      for v in ("nan", "inf", "-1")],
    *[fails("baseline-rescale", [*TRAIN, *BASE, "--omega-max", v], 2,
            f"--omega-max must be finite and nonnegative, got {float(v)}", id=f"baseline-rescale-omega-max-{v}")
      for v in ("nan", "-1")],
    # -5 iterations once ran the identity candidate alone
    fails("baseline-rescale", [*TRAIN, *BASE, "--iterations", "-5"], 2,
          "--iterations must be finite and nonnegative, got -5", id="baseline-rescale-iterations-negative"),
    fails("baseline-ot", [*TRAIN, *BASE, "--thetas", "0"], 2, "--thetas must be at least 1, got 0", id="baseline-ot-thetas-0"),
    # encoder counts, whichever method is set: -2 components once escaped
    # main as an IndexError traceback, 0 made a family of the constant column
    # alone, a negative background failed with numpy's message, naming no
    # flag, and a degree below 1 failed only after the load stage
    *[fails(command, [*TRAIN, *BASE, *method, f"--{flag}", v], 2, f"--{flag} must be at least 1, got {v}",
            id=f"{command}-{flag}-{v}")
      for command in ("encode", "mitigate")
      for method, flag, values in ((["--method", "tree-pca"], "components", ("-2", "0")),
                                   (["--method", "shapley"], "background", ("-3", "0")),
                                   (["--method", "additive"], "degree", ("0",)))
      for v in values],
    fails("mitigate", [*TRAIN, *BASE, "--degree", "-1"], 2, "--degree must be at least 1, got -1",
          id="mitigate-degree-negative-tree-pca"),
    # --- the library's own checks: exit 1 ------------------------------------
    *[fails("mitigate", [*TRAIN, *BASE, "--sgd-rate", v], 1, error, id=f"mitigate-sgd-rate-{v}")
      for v, error in (("nan", "learning rate must be finite, got nan"), ("inf", "learning rate must be finite, got inf"),
                       ("-1", "learning rate must be positive, got -1.0"))],
    fails("mitigate", [*TRAIN, *BASE, "--batch-size", "0"], 1, "batch_size must be at least 1, got 0",
          id="mitigate-batch-size-0"),
    fails("mitigate", [*TRAIN, *BASE, "--theta-box", "nan"], 1, "theta box half-width must be nonnegative, got nan",
          id="mitigate-theta-box-nan"),
    fails("mitigate", [*TRAIN, *BASE, "--theta-box", "-1"], 1, "theta box half-width must be nonnegative, got -1.0",
          id="mitigate-theta-box-negative"),
    *[fails("mitigate", [*TRAIN, *BASE, "--grid-step", v], 1, error, id=f"mitigate-grid-step-{v}")
      for v, error in (("0", "grid step must lie in (0, 1), got 0.0"), ("1e-400", "grid step must lie in (0, 1), got 0.0"),
                       ("nan", "grid step must lie in (0, 1), got nan"),
                       ("0.03", "grid step 0.03 does not divide [0, 1] into whole steps; use 1/33 or 1/34"),
                       ("0.6", "grid step 0.6 does not divide [0, 1] into whole steps; use 1/2"))],
    fails("mitigate", [*TRAIN, *BASE, "--scale", "inf"], 1, "relaxation scale must be finite and positive, got inf",
          id="mitigate-scale-inf"),
    fails("mitigate", [*TRAIN, *BASE, "--epochs", "-1"], 1, "n_epochs must be nonnegative, got -1",
          id="mitigate-epochs-negative"),
    fails("mitigate", [*TRAIN, *BASE, "--batches", "0"], 1, "n_batches must be at least 1, got 0", id="mitigate-batches-0"),
    # GBDT settings once failed only after the load stage
    fails("train-base", [*TRAIN, "--depth", "0"], 1, "depth must be at least 1, got 0", id="train-base-depth-0"),
    fails("train-base", [*TRAIN, "--rounds", "-1"], 1, "rounds must be nonnegative, got -1", id="train-base-rounds-negative"),
    fails("train-base", [*SPLITS, "--min-leaf", "nan"], 1, "min_leaf must be finite and nonnegative, got nan",
          id="train-base-min-leaf-nan"),
    fails("baseline-ot", [*TRAIN, *BASE, "--learning-rate", "nan"], 1,
          "learning_rate must be finite and positive, got nan", id="baseline-ot-learning-rate-nan"),
    # --- --features, which needs the split's feature count: exit 2 -----------
    # 0,9 once escaped main as an IndexError traceback after the load stage,
    # -1 rescaled the last feature, 0,0 applied two transforms to one column,
    # and x failed naming no flag
    *[fails("baseline-rescale", [*TRAIN, *BASE, "--features", v], 2, error, id=f"baseline-rescale-features-{name}")
      for v, name, error in (("0,9", "out-of-range", "--features index 9 is outside the split's 5 features (0 to 4)"),
                             ("-1", "negative", "--features index -1 is outside the split's 5 features (0 to 4)"),
                             ("0,0", "repeated", "--features names feature 0 twice"),
                             ("x", "not-indices", "--features must be 'all' or comma-separated feature indices, got 'x'"),
                             (",", "none", "--features names no feature"))],
    # --- splits that cannot be used: exit 1 ----------------------------------
    fails("train-base", [*SPLITS, "--rounds", "5", "--train", "{one_class}"], 1, ONE_CLASS, id="train-base-train-one-class"),
    fails("mitigate", [*SPLITS, *BASE, "--train", "{one_class}"], 1, ONE_CLASS, id="mitigate-train-one-class"),
    fails("mitigate", [*SPLITS, *BASE, "--test", "{one_class}"], 1, ONE_CLASS, id="mitigate-test-one-class"),
    fails("baseline-rescale", [*SPLITS, *BASE, "--iterations", "5", "--test", "{one_class}"], 1, ONE_CLASS,
          id="baseline-rescale-test-one-class"),
    fails("baseline-ot", [*SPLITS, *BASE, "--rounds", "5", "--train", "{one_class}"], 1, ONE_CLASS,
          id="baseline-ot-train-one-class"),
    fails("evaluate", [*EVALUATE, "--test", "{one_class}"], 1, ONE_CLASS, id="evaluate-test-one-class"),
    fails("train-base", [*SPLITS, "--rounds", "5", "--train", "{non_finite}"], 1, NON_FINITE,
          id="train-base-train-non-finite"),
    fails("mitigate", [*SPLITS, *BASE, "--method", "additive", "--train", "{non_finite}"], 1, NON_FINITE,
          id="mitigate-train-non-finite"),
    fails("mitigate", [*SPLITS, *BASE, "--method", "tree-pca", "--test", "{non_finite}"], 1, NON_FINITE,
          id="mitigate-test-non-finite"),
    # the feature count once went unchecked until the tree walk, whose error
    # named neither the file nor the model
    fails("encode", [*TRAIN, *BASE, "--method", "tree-pca", "--train", "{short}"], 1, SHORT, id="encode-train-short"),
    fails("mitigate", [*SPLITS, *BASE, "--train", "{short}"], 1, SHORT, id="mitigate-train-short"),
    fails("mitigate", [*SPLITS, *BASE, "--method", "additive", "--test", "{short}"], 1, SHORT, id="mitigate-test-short"),
    fails("baseline-rescale", [*SPLITS, *BASE, "--iterations", "5", "--test", "{short}"], 1, SHORT,
          id="baseline-rescale-test-short"),
    fails("baseline-ot", [*SPLITS, *BASE, "--rounds", "5", "--train", "{short}"], 1, SHORT, id="baseline-ot-train-short"),
    fails("evaluate", [*EVALUATE, "--test", "{short}"], 1, SHORT, id="evaluate-test-short"),
    # a model reads features by position: these once completed, scoring x2
    # as x1 and x1 as x2
    fails("train-base", [*SPLITS, "--rounds", "5", "--test", "{swapped}"], 1, SWAPPED, id="train-base-test-swapped"),
    fails("mitigate", [*SPLITS, *BASE, "--test", "{swapped}"], 1, SWAPPED, id="mitigate-test-swapped"),
    fails("baseline-rescale", [*SPLITS, *BASE, "--iterations", "5", "--test", "{swapped}"], 1, SWAPPED,
          id="baseline-rescale-test-swapped"),
    fails("baseline-ot", [*SPLITS, *BASE, "--rounds", "5", "--test", "{swapped}"], 1, SWAPPED,
          id="baseline-ot-test-swapped"),
    fails("evaluate", [*EVALUATE, "--test", "{swapped}"], 1, SWAPPED, id="evaluate-test-swapped"),
    # every stage after loading compares group 0 with group 1
    fails("mitigate", [*SPLITS, *BASE, "--method", "additive", "--estimator", "energy", "--test", "{three_groups}"], 1,
          THREE_GROUPS, id="mitigate-test-three-groups"),
    fails("baseline-rescale", [*SPLITS, *BASE, "--iterations", "5", "--test", "{three_groups}"], 1, THREE_GROUPS,
          id="baseline-rescale-test-three-groups"),
    fails("baseline-ot", [*SPLITS, *BASE, "--rounds", "5", "--test", "{three_groups}"], 1, THREE_GROUPS,
          id="baseline-ot-test-three-groups"),
    fails("evaluate", ["--candidates", "{run}/candidates.json", *BASE, "--test", "{three_groups}"], 1, THREE_GROUPS,
          id="evaluate-test-three-groups"),
    # train-base and encode never read the group; shapley-encode builds on a
    # small slice, which may hold one class
    completes("train-base", ["--train", "{three_groups}", "--rounds", "5"], id="train-base-train-three-groups"),
    completes("encode", ["--train", "{three_groups}", *BASE, "--method", "tree-pca", "--components", "2"],
              id="encode-train-three-groups"),
    completes("encode", ["--train", "{one_class}", *BASE, "--method", "tree-pca", "--components", "2"],
              id="encode-train-one-class"),
    # --- a model with a path that tests more than 8 distinct features, wherever
    # Shapley columns would be built from it; these once failed inside the build
    fails("encode", ["--method", "shapley", "--train", "{wide}", "--base", "{deep}"], 1, DEEP_PATH, id="encode-deep-path"),
    fails("mitigate", ["--method", "shapley", "--train", "{wide}", "--test", "{wide}", "--base", "{deep}"], 1, DEEP_PATH,
          id="mitigate-deep-path"),
    fails("evaluate", ["--candidates", "{shapley_run}/candidates.json", "--test", "{wide}", "--base", "{deep}"], 1,
          DEEP_PATH, id="evaluate-deep-path"),
    # --- evaluate's candidates.json ------------------------------------------
    # the list emptied once failed after the load stage; the other faults
    # escaped as KeyError or TypeError tracebacks, failed after the load stage
    # with numpy's message, or named no file
    fails("evaluate", [*EVALUATE, "--candidates", "{no_candidates}"], 1,
          "{no_candidates}: the candidates list is empty, so there is no frontier to score",
          id="evaluate-candidates-empty"),
    fails("evaluate", [*EVALUATE, "--candidates", "{rescale_candidates}"], 1,
          "{rescale_candidates} lacks 'label', 'group': it is not the candidates.json of a mitigate run",
          id="evaluate-candidates-of-rescale"),
    fails("evaluate", [*EVALUATE, "--candidates", "{no_theta}"], 1,
          "{no_theta}: candidate 0 needs an 'omega' and a 'theta'", id="evaluate-candidate-without-theta"),
    fails("evaluate", [*EVALUATE, "--candidates", "{wide_theta}"], 1,
          "{wide_theta}: candidate 0 has {wider} theta values, but the encoders {encoders}.csv have {width} columns",
          id="evaluate-candidate-theta-too-wide"),
    fails("evaluate", [*EVALUATE, "--candidates", "{not_json}"], 1,
          "{not_json}: invalid JSON (Expecting value: line 1 column 1 (char 0))", id="evaluate-candidates-not-json"),
    fails("evaluate", [*EVALUATE, "--candidates", "{candidates_not_list}"], 1,
          "{candidates_not_list}: 'candidates' has type int", id="evaluate-candidates-not-a-list"),
    fails("evaluate", [*EVALUATE, "--candidates", "{candidate_not_object}"], 1,
          "{candidate_not_object}: candidate 0 needs an 'omega' and a 'theta'", id="evaluate-candidate-not-an-object"),
    fails("evaluate", [*EVALUATE, "--candidates", "{omega_string}"], 1,
          "{omega_string}: candidate 1: 'omega' has type str", id="evaluate-candidate-omega-string"),
    fails("evaluate", [*EVALUATE, "--candidates", "{theta_strings}"], 1,
          "{theta_strings}: candidate 2: 'theta' holds a value that is not a number",
          id="evaluate-candidate-theta-strings"),
    # a NaN omega once wrote a nan row into frontier.csv; a NaN theta failed
    # after the load stage, naming no file
    fails("evaluate", [*EVALUATE, "--candidates", "{omega_nan}"], 1,
          "{omega_nan}: candidate 1: 'omega' must be finite, got nan", id="evaluate-candidate-omega-nan"),
    fails("evaluate", [*EVALUATE, "--candidates", "{theta_nan}"], 1,
          "{theta_nan}: candidate 2: 'theta' holds nan, not a finite number", id="evaluate-candidate-theta-nan"),
    # these labelled every frontier row with the candidates' method
    fails("evaluate", [*EVALUATE, "--candidates", "{method_additive}"], 1,
          "{method_additive}: method 'additive', but {encoders}.json holds 'tree-pca' encoders",
          id="evaluate-candidates-method-not-the-encoders-kind"),
    # --- evaluate's encoders.json: these escaped as KeyError tracebacks, or
    # failed after the load stage
    fails("evaluate", [*EVALUATE, "--encoders", "{no_provenance}"], 1, "{no_provenance}.json: missing key 'provenance'",
          id="evaluate-encoders-without-provenance"),
    fails("evaluate", [*EVALUATE, "--encoders", "{no_scales}"], 1, "{no_scales}.json: missing key 'scales'",
          id="evaluate-encoders-without-scales"),
    fails("evaluate", [*EVALUATE, "--encoders", "{no_loadings}"], 1,
          "{no_loadings}.json provenance: missing key 'loadings'", id="evaluate-encoders-without-loadings"),
    fails("evaluate", [*EVALUATE, "--encoders", "{unknown_kind}"], 1,
          "{unknown_kind}.json provenance: unknown kind 'pca'", id="evaluate-encoders-unknown-kind"),
    # no subcommand writes combined encoders, so no sidecar may hold them
    fails("evaluate", [*EVALUATE, "--encoders", "{combined_kind}"], 1,
          "{combined_kind}.json provenance: unknown kind 'combined'", id="evaluate-encoders-combined-kind"),
    # --- a sidecar written while it also held the column names and the
    # centres evaluates: load reads neither, whatever they hold
    completes("evaluate", [*EVALUATE, "--encoders", "{legacy_keys}"], id="evaluate-encoders-legacy-keys"),
    # --- shapes and cells that do not fit: these failed after the load stage
    # with numpy's message or named no file
    fails("evaluate", [*EVALUATE, "--encoders", "{short_scales}"], 1,
          "{short_scales}.json: 'scales' has shape ({narrower},), not ({width},): one entry per column of "
          "{short_scales}.csv", id="evaluate-encoders-scales-short"),
    fails("evaluate", [*EVALUATE, "--encoders", "{short_tree_means}"], 1,
          "{short_tree_means}.json provenance: 'tree_means' has shape ({fewer_kept},), not ({kept},): one entry per "
          "kept tree", id="evaluate-encoders-tree-means-short"),
    fails("evaluate", [*EVALUATE, "--encoders", "{narrow_loadings}"], 1,
          "{narrow_loadings}.json provenance: 'loadings' has shape ({kept}, {narrowest}), not ({kept}, {narrower}): "
          "one row per kept tree, one column per non-constant column of {narrow_loadings}.csv",
          id="evaluate-encoders-loadings-narrow"),
    fails("evaluate", [*EVALUATE, "--encoders", "{ragged}"], 1, "{ragged}.csv: row 4: {narrower} cells under a header of "
          "{width}", id="evaluate-encoders-ragged-row"),
    fails("evaluate", [*EVALUATE, "--encoders", "{header_only}"], 1, "{header_only}.csv: no rows of encoder columns",
          id="evaluate-encoders-header-only"),
    fails("evaluate", [*EVALUATE, "--encoders", "{const_2}"], 1, "{const_2}.csv: column 0 must be identically 1",
          id="evaluate-encoders-constant-column-2"),
    fails("evaluate", [*EVALUATE, "--encoders", "{cell_inf}"], 1, "{cell_inf}.csv: non-finite encoder column",
          id="evaluate-encoders-infinite-cell"),
    # these named neither the file nor the row or key
    fails("evaluate", [*EVALUATE, "--encoders", "{cell_x}"], 1,
          "{cell_x}.csv: row 4: could not convert string to float: 'x'", id="evaluate-encoders-non-numeric-cell"),
    fails("evaluate", [*EVALUATE, "--encoders", "{loading_x}"], 1,
          "{loading_x}.json provenance: 'loadings' holds a value that is not a number",
          id="evaluate-encoders-non-numeric-loading"),
    # --- a base model that is not JSON: this named no file
    fails("encode", [*TRAIN, "--base", "{bad_model}", "--method", "tree-pca"], 1, BAD_MODEL, id="encode-base-not-json"),
    fails("baseline-ot", [*TRAIN, "--base", "{bad_model}"], 1, BAD_MODEL, id="baseline-ot-base-not-json"),
    # --- a base model that is JSON but not a well-formed ensemble: these
    # named no file
    fails("encode", [*TRAIN, "--base", "{empty_model}", "--method", "tree-pca"], 1,
          "{empty_model}: not an ensemble document", id="encode-base-empty-object"),
    fails("encode", [*TRAIN, "--base", "{feature_99}", "--method", "tree-pca"], 1,
          "{feature_99}: tree 0: node 0 splits on feature 99, outside [0, 5)", id="encode-base-feature-99"),
    # a learning rate of -1 once evaluated; NaN, and a base margin of inf,
    # failed after the load stage, naming no file
    *[fails("evaluate", [*EVALUATE, "--base", f"{{{name}}}"], 1, f"{{{name}}}: {error}",
            id=f"evaluate-base-{name}".replace("_", "-"))
      for name, error in (("learning_rate_negative", "learning_rate must be finite and positive, got -1"),
                          ("learning_rate_nan", "learning_rate must be finite and positive, got nan"),
                          ("base_margin_inf", "base_margin must be finite, got inf"))],
    # a well-formed model that is not the run's once scored the run's thetas
    # on its own scores
    fails("evaluate", [*EVALUATE, "--base", "{other_model}"], 1,
          "{other_model} is not the model that {run}/candidates.json was swept with: their sha256 digests differ",
          id="evaluate-base-not-the-runs"),
    # --- report's frontier.csv files: a missing column escaped as a KeyError
    # traceback, a bad cell named no file, and no points failed after the
    # load stage, leaving a header-only frontier.csv
    fails("report", ["--inputs", "{frontier}", "{frontier_no_ce}"], 1, "{frontier_no_ce}: missing column 'ce'",
          id="report-frontier-without-ce"),
    fails("report", ["--inputs", "{frontier_non_numeric}"], 1,
          "{frontier_non_numeric}: row 3, column 'w1_bias': could not convert string to float: 'x'",
          id="report-frontier-non-numeric"),
    fails("report", ["--inputs", "{frontier_bad_theta}"], 1,
          "{frontier_bad_theta}: row 2, column 'theta_json': Expecting value: line 1 column 2 (char 1)",
          id="report-frontier-bad-theta"),
    fails("report", ["--inputs", "{frontier_non_finite}"], 1, "{frontier_non_finite}: row 2: non-finite metric ce",
          id="report-frontier-non-finite"),
    fails("report", ["--inputs", "{frontier_empty}"], 1, "no frontier points to report in {frontier_empty}",
          id="report-no-points"),
    completes("report", ["--inputs", "{frontier_empty}", "{frontier}"], id="report-header-only-and-points"),
]


def write_csv(path, rows):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def deep_path_inputs(root):
    """A 10-feature CSV, a one-tree model whose right spine tests every
    feature (node 2k tests x_k, its left child 2k + 1 is a leaf, the last
    right child a leaf too), and a Shapley run of a shallow model on that
    CSV."""
    n = 10
    rng = np.random.default_rng(41)
    X = rng.normal(size=(300, n))
    y = (rng.random(300) < 0.3 + 0.4 * (X[:, 0] > 0)).astype(int)
    wide = write_csv(root / "wide.csv", [[f"x{i}" for i in range(n)] + ["label", "group"]]
                     + [[*map(repr, row), label, i % 2] for i, (row, label) in enumerate(zip(X.tolist(), y))])
    spine = [k % 2 == 0 and k < 2 * n for k in range(2 * n + 1)]
    tree = {
        "feature": [k // 2 if inner else -1 for k, inner in enumerate(spine)],
        "threshold": [0.0] * (2 * n + 1),
        "left": [k + 1 if inner else -1 for k, inner in enumerate(spine)],
        "right": [k + 2 if inner else -1 for k, inner in enumerate(spine)],
        "value": [0.1 * k for k in range(2 * n + 1)],
    }
    deep = write_json(root / "deep.json", {"kind": "fairfront-gbdt", "base_margin": 0.0, "learning_rate": 0.1,
                                           "n_features": n, "link": "logistic", "trees": [tree]})
    flags = ["--train", str(wide), "--test", str(wide)]
    assert main(["train-base", *flags, "--rounds", "10", "--out", str(root / "model")]) == 0
    run = root / "shapley-run"
    assert main(["mitigate", "--method", "shapley", "--background", "16", *flags,
                 "--base", str(root / "model" / "model.json"), "--omegas", "1", "--epochs", "1",
                 "--batches", "1", "--batch-size", "64", "--out", str(run)]) == 0
    return {"wide": wide, "deep": deep, "shapley_run": run}


class TestEnvelope:
    @pytest.fixture(scope="class")
    def paths(self, workspace, tmp_path_factory):
        """Every file that a cell names, by its placeholder."""
        _, data, model_dir = workspace
        run = run_mitigate(workspace, "run-envelope")
        root = tmp_path_factory.mktemp("envelope")
        paths = {"train": data / "train.csv", "test": data / "test.csv", "base": model_dir / "model.json", "run": run}

        # splits
        rows = list(csv.reader((data / "train.csv").open()))
        label, group = rows[0].index("label"), rows[0].index("group")
        non_finite = [list(row) for row in rows]
        non_finite[4][1] = "inf"
        three_groups = [list(row) for row in csv.reader((data / "test.csv").open())]
        for row in three_groups[1::3]:
            row[group] = "7"
        swapped = [[row[1], row[0], *row[2:]] for row in csv.reader((data / "test.csv").open())]
        for name, table in (("one_class", [rows[0]] + [row for row in rows[1:] if row[label] == "1"]),
                            ("non_finite", non_finite), ("short", [row[1:] for row in rows]),
                            ("three_groups", three_groups), ("swapped", swapped)):
            paths[name] = write_csv(root / f"{name}.csv", table)

        # candidates files, beside a copy of the run's encoders, where
        # evaluate looks by default; and encoder files with a faulty sidecar
        for suffix in (".csv", ".json"):
            (root / f"encoders{suffix}").write_bytes((run / f"encoders{suffix}").read_bytes())
        paths["encoders"] = root / "encoders"
        doc = json.loads((run / "candidates.json").read_text())
        good = doc["candidates"][0]
        paths["width"], paths["wider"] = len(good["theta"]), len(good["theta"]) + 1
        faulty = {
            "no_candidates": {**doc, "candidates": []},
            "rescale_candidates": {"method": "rescale", "candidates": [{"a": [1.0], "x_star": [0.0]}]},
            "no_theta": {**doc, "candidates": [{"omega": 0.0}]},
            "wide_theta": {**doc, "candidates": [{"omega": 0.0, "theta": good["theta"] + [0.0]}]},
            "candidates_not_list": {**doc, "candidates": 5},
            "candidate_not_object": {**doc, "candidates": [5]},
            "omega_string": {**doc, "candidates": [good, {**good, "omega": "x"}]},
            "theta_strings": {**doc, "candidates": [good, good, {**good, "theta": ["x"] * len(good["theta"])}]},
            "omega_nan": {**doc, "candidates": [good, {**good, "omega": float("nan")}]},
            "theta_nan": {**doc, "candidates": [good, good, {**good, "theta": good["theta"][:-1] + [float("nan")]}]},
            "method_additive": {**doc, "method": "additive"},
        }
        for name, faulty_doc in faulty.items():
            paths[name] = write_json(root / f"{name}.json", faulty_doc)
        paths["not_json"] = root / "not_json.json"
        paths["not_json"].write_text("not json")
        paths["bad_model"] = root / "bad_model.json"
        paths["bad_model"].write_text("not json")
        paths["empty_model"] = write_json(root / "empty_model.json", {})
        model_doc = json.loads(paths["base"].read_text())
        model_doc["trees"][0]["feature"][0] = 99
        paths["feature_99"] = write_json(root / "feature_99.json", model_doc)
        model_doc = json.loads(paths["base"].read_text())
        for name, key, value in (("learning_rate_negative", "learning_rate", -1),
                                 ("learning_rate_nan", "learning_rate", float("nan")),
                                 ("base_margin_inf", "base_margin", float("inf"))):
            paths[name] = write_json(root / f"{name}.json", {**model_doc, key: value})
        paths["other_model"] = write_json(root / "other_model.json", {**model_doc, "base_margin": 0.0})
        sidecar = json.loads((run / "encoders.json").read_text())
        provenance = sidecar["provenance"]
        loadings_x = json.loads(json.dumps(provenance["loadings"]))
        loadings_x["__array__"][0][0] = "x"
        loadings, means = provenance["loadings"]["__array__"], provenance["tree_means"]["__array__"]
        paths["kept"], paths["fewer_kept"] = len(means), len(means) - 1
        paths["narrower"], paths["narrowest"] = paths["width"] - 1, paths["width"] - 2
        sidecars = {
            "no_provenance": {k: v for k, v in sidecar.items() if k != "provenance"},
            "no_scales": {k: v for k, v in sidecar.items() if k != "scales"},
            "no_loadings": {**sidecar, "provenance": {k: v for k, v in provenance.items() if k != "loadings"}},
            "unknown_kind": {**sidecar, "provenance": {**provenance, "kind": "pca"}},
            "combined_kind": {**sidecar, "provenance": {"kind": "combined", "parts": [provenance]}},
            "loading_x": {**sidecar, "provenance": {**provenance, "loadings": loadings_x}},
            "short_scales": {**sidecar, "scales": sidecar["scales"][:-1]},
            # the keys a sidecar also held before: names that are not the
            # CSV header's, and a centres list one short
            "legacy_keys": {**sidecar, "names": ["x"], "centers": [0.0] * (paths["width"] - 1)},
            "short_tree_means": {**sidecar, "provenance": {**provenance, "tree_means": {"__array__": means[:-1]}}},
            "narrow_loadings": {
                **sidecar, "provenance": {**provenance, "loadings": {"__array__": [row[:-1] for row in loadings]}},
            },
            "cell_x": sidecar,
            "ragged": sidecar,
            "header_only": sidecar,
            "const_2": sidecar,
            "cell_inf": sidecar,
        }
        for name, faulty_sidecar in sidecars.items():
            paths[name] = root / name
            (root / f"{name}.csv").write_bytes((run / "encoders.csv").read_bytes())
            write_json(root / f"{name}.json", faulty_sidecar)
        cells = list(csv.reader((run / "encoders.csv").open()))
        write_csv(root / "header_only.csv", cells[:1])
        write_csv(root / "ragged.csv", cells[:3] + [cells[3][:-1]] + cells[4:])
        for name, column, value in (("cell_x", 1, "x"), ("const_2", 0, "2.0"), ("cell_inf", 1, "inf")):
            faulty_cells = [list(row) for row in cells]
            faulty_cells[3][column] = value
            write_csv(root / f"{name}.csv", faulty_cells)

        # frontier files
        frontier = list(csv.reader((run / "frontier.csv").open()))
        paths["frontier"] = run / "frontier.csv"
        ce = frontier[0].index("ce")
        non_numeric = [list(row) for row in frontier]
        non_numeric[2][frontier[0].index("w1_bias")] = "x"
        bad_theta = [list(row) for row in frontier]
        bad_theta[1][-1] = "[x]"
        non_finite_ce = [list(row) for row in frontier]
        non_finite_ce[1][ce] = "nan"
        for name, table in (("frontier_no_ce", [row[:ce] + row[ce + 1:] for row in frontier]),
                            ("frontier_non_numeric", non_numeric), ("frontier_bad_theta", bad_theta),
                            ("frontier_non_finite", non_finite_ce),
                            ("frontier_empty", frontier[:1])):
            paths[name] = write_csv(root / f"{name}.csv", table)

        # config documents
        inputs = {"train": str(paths["train"]), "base": str(paths["base"])}
        for name, setting in (("cfg_unbiased_false", {"unbiased": "false"}), ("cfg_grid_false", {"grid": "false"}),
                              ("cfg_unbiased_2", {"unbiased": 2}), ("cfg_unbiased_1_0", {"unbiased": 1.0}),
                              ("cfg_method_pca", {"method": "pca"}), ("cfg_omegas_0", {"omegas": 0})):
            paths[name] = write_json(root / f"{name}.json", {**inputs, **setting})
        paths["cfg_not_json"] = root / "cfg_not_json.json"
        paths["cfg_not_json"].write_text("not json")

        paths.update(deep_path_inputs(root))
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("command, flags, outcome, code, error", CELLS)
    def test_cell(self, paths, tmp_path, capsys, command, flags, outcome, code, error):
        out = tmp_path / "out"
        assert main([command, *(flag.format(**paths) for flag in flags), "--out", str(out)]) == code
        if outcome == COMPLETES:
            return
        error = error.format(**paths)
        assert f"error: {error}\n" in capsys.readouterr().err
        if outcome == AT_RESOLUTION:
            assert not out.exists()
            return
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["error"] == error
        assert manifest["timings"] == {}
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_every_range_rule_has_a_failing_cell_per_command():
    failing = {(cell.values[0], cell.values[4].split(" ")[0]) for cell in CELLS if cell.values[2] != COMPLETES}
    for name, command in cli.COMMANDS.items():
        for flag in command.defaults:
            if cli.FLAGS[flag][2] is not None:
                assert (name, f"--{flag}") in failing, (name, flag)


def test_every_cell_flag_is_taken_by_its_command():
    for cell in CELLS:
        command, flags = cell.values[:2]
        taken = {"--config", *(f"--{flag}" for flag in cli.COMMANDS[command].defaults)}
        assert {flag for flag in flags if flag.startswith("--")} <= taken, cell.id
