"""The four benchmark workloads: set-up, CLI flags and output checks.

Every workload runs one unmodified ``fairfront`` subcommand on synthetic M1
data generated from the benchmark seed.  Sizes are chosen so that one
benchmark run (several set-ups plus repetitions of the subcommand) fits the
run length in BENCHMARK.json on a 2-core machine; perfbench/README.md records
why each workload exists and which layers it stresses.

The gates come from runs of the seed commit: the criterion-5 window on the
base model's test W1 bias and its cross-entropy box, windows around the
values the seed commit produced on seeds 101-112, byte-identical artifacts
across repetitions (acceptance criterion 8), and the Shapley efficiency
identity.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# M1 records and the train share: 1000 train records keep training cheap,
# 9000 test records keep the test metrics steady from seed to seed (with
# 4000 the base test cross-entropy spread 7% over ten seeds, with 9000 3%)
N_RECORDS = 10000
TRAIN_SHARE = "0.1"
SHAPLEY_ROWS = 32      # train records explained by shapley-encode
# Early stopping would make the tree count, and with it the work of every
# workload, depend on the seed; without it every model has 800 trees.
TRAIN_FLAGS = ["--early-stop", "0"]
BASE_W1_WINDOW = (0.10, 0.25)   # acceptance criterion 5
CE_RATIO_MAX = 1.25             # acceptance criterion 5
BASE_CE_WINDOW = (0.25, 0.40)   # seed commit, seeds 101-112, 201-230: 0.303-0.345
SHAPLEY_EFFICIENCY_TOL = 1e-9


class CheckFailed(Exception):
    """A subcommand's outputs are missing or wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@dataclass
class Workload:
    name: str
    argv: list            # subcommand and flags; {placeholders} filled per run
    artifacts: tuple      # files hashed and compared across repetitions
    needs_model: bool = True
    w1_ratio_max: float = None   # best test W1 / base test W1 must stay below
    sweep_rows: int = 0          # trace.csv rows: omegas x epochs


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "train-base",
            ["train-base", "--train", "{train}", "--test", "{test}", *TRAIN_FLAGS],
            ("model.json",),
            needs_model=False,
        ),
        Workload(
            "mitigate-grid",
            [
                "mitigate", "--method", "tree-pca", "--components", "40", "--estimator", "trapezoid",
                "--omegas", "3", "--omega-scale-mult", "15", "--epochs", "3",
                "--train", "{train}", "--test", "{test}", "--base", "{model}", "--seed", "{seed}",
            ],
            ("frontier.csv", "trace.csv", "encoders.csv"),
            w1_ratio_max=0.98,
            sweep_rows=3 * 3,
        ),
        Workload(
            "mitigate-energy",
            [
                "mitigate", "--method", "additive", "--estimator", "energy",
                "--omegas", "2", "--omega-scale-mult", "30", "--epochs", "2",
                "--train", "{train}", "--test", "{test}", "--base", "{model}", "--seed", "{seed}",
            ],
            ("frontier.csv", "trace.csv", "encoders.csv"),
            w1_ratio_max=1.02,
            sweep_rows=2 * 2,
        ),
        Workload(
            "shapley-encode",
            ["encode", "--method", "shapley", "--background", "24", "--train", "{slice}", "--base", "{model}",
             "--seed", "{seed}"],
            ("encoders.csv",),
        ),
    ]
}


@dataclass
class Inputs:
    """Files the set-up leaves for the subcommand, under one directory."""

    root: Path
    seed: int
    _cache: dict = field(default_factory=dict)

    @property
    def train(self):
        return self.root / "data" / "train.csv"

    @property
    def test(self):
        return self.root / "data" / "test.csv"

    @property
    def model(self):
        return self.root / "model" / "model.json"

    @property
    def slice(self):
        return self.root / "slice.csv"

    def argv(self, workload: Workload, out: Path) -> list:
        fill = {"train": self.train, "test": self.test, "model": self.model, "slice": self.slice, "seed": self.seed}
        return [a.format(**fill) for a in workload.argv] + ["--out", str(out)]

    def test_set(self):
        from fairfront.data import load_csv

        if "test" not in self._cache:
            self._cache["test"] = load_csv(self.test)
        return self._cache["test"]

    def base_metrics(self, model_path=None) -> dict:
        """Exact test-split metrics of a base model (the set-up model by
        default)."""
        from fairfront.frontier import score_metrics
        from fairfront.gbdt import Ensemble

        key = ("base", str(model_path))
        if key not in self._cache:
            test = self.test_set()
            model = Ensemble.load(model_path or self.model)
            self._cache[key] = score_metrics(model.predict_proba(test.X), test.y, test.g)
        return self._cache[key]


def setup(workload: Workload, inputs: Inputs, clock) -> float:
    """Generate the data (and train the base model where the workload needs
    one) through the CLI, in process.  Returns the generation time."""
    from fairfront.cli import main

    start = clock()
    code = main(["generate", "--model", "m1", "--n", str(N_RECORDS), "--seed", str(inputs.seed),
                 "--split", TRAIN_SHARE, "--out", str(inputs.root / "data")])
    generated = clock()
    require(code == 0, f"generate exited with {code}")
    if workload.needs_model:
        code = main(["train-base", "--train", str(inputs.train), "--test", str(inputs.test),
                     *TRAIN_FLAGS, "--out", str(inputs.root / "model")])
        require(code == 0, f"train-base exited with {code}")
    if workload.name == "shapley-encode":
        with open(inputs.train) as src, open(inputs.slice, "w") as dst:
            for _ in range(SHAPLEY_ROWS + 1):
                dst.write(src.readline())
    return generated - start


# ---------------------------------------------------------------------------
# output checks: each returns the quality values of one run or raises
# ---------------------------------------------------------------------------


def check(workload: Workload, inputs: Inputs, out: Path) -> dict:
    """Gate one subcommand's outputs; returns w1_ratio, ce_ratio and
    base_test_ce (ratios are 1 where the workload mitigates nothing)."""
    for name in workload.artifacts:
        require((out / name).is_file(), f"missing artifact {name}")
    if workload.name == "train-base":
        return _check_train_base(inputs, out)
    if workload.name == "shapley-encode":
        return _check_shapley(inputs, out)
    return _check_mitigate(workload, inputs, out)


def _base_ce(metrics) -> float:
    ce = metrics["ce"]
    require(BASE_CE_WINDOW[0] <= ce <= BASE_CE_WINDOW[1], f"base test CE {ce:.4f} outside {BASE_CE_WINDOW}")
    return ce


def _check_train_base(inputs, out):
    from fairfront.gbdt import Ensemble

    model = Ensemble.load(out / "model.json")
    require(1 <= model.n_trees <= 800, f"{model.n_trees} trees")
    ce = _base_ce(inputs.base_metrics(out / "model.json"))
    return {"w1_ratio": 1.0, "ce_ratio": 1.0, "base_test_ce": ce}


def _check_mitigate(workload, inputs, out):
    base = inputs.base_metrics()
    lo, hi = BASE_W1_WINDOW
    require(lo <= base["w1_bias"] <= hi, f"base test W1 {base['w1_bias']:.4f} outside {BASE_W1_WINDOW}")
    with open(out / "trace.csv", newline="") as fh:
        trace = list(csv.reader(fh))[1:]
    require(len(trace) == workload.sweep_rows, f"trace.csv has {len(trace)} rows, expected {workload.sweep_rows}")
    require(all(math.isfinite(float(v)) for row in trace for v in row), "non-finite value in trace.csv")
    with open(out / "frontier.csv", newline="") as fh:
        test_points = [r for r in csv.DictReader(fh) if r["split"] == "test"]
    require(test_points, "no test points in frontier.csv")
    best = min(test_points, key=lambda r: float(r["w1_bias"]))
    w1_ratio = float(best["w1_bias"]) / base["w1_bias"]
    ce_ratio = float(best["ce"]) / base["ce"]
    require(w1_ratio < workload.w1_ratio_max, f"w1_ratio {w1_ratio:.4f} >= {workload.w1_ratio_max}")
    require(ce_ratio <= CE_RATIO_MAX, f"ce_ratio {ce_ratio:.4f} > {CE_RATIO_MAX}")
    return {"w1_ratio": w1_ratio, "ce_ratio": ce_ratio, "base_test_ce": _base_ce(base)}


def _check_shapley(inputs, out):
    """Efficiency: attributions + stored centres + background mean of the
    model = predict_raw(x), row by row."""
    import numpy as np
    from fairfront.data import load_csv
    from fairfront.encoders import EncoderMatrix
    from fairfront.gbdt import Ensemble

    enc = EncoderMatrix.load(out / "encoders.csv", out / "encoders.json")
    model = Ensemble.load(inputs.model)
    X = load_csv(inputs.slice).X
    require(enc.columns.shape == (X.shape[0], X.shape[1] + 1), f"encoder shape {enc.columns.shape}")
    phi = enc.columns[:, 1:] + enc.centers[1:]
    reference = float(np.mean(model.predict_raw(enc.provenance["background"])))
    gap = float(np.max(np.abs(phi.sum(axis=1) + reference - model.predict_raw(X))))
    require(gap <= SHAPLEY_EFFICIENCY_TOL, f"Shapley efficiency gap {gap:.3g}")
    return {"w1_ratio": 1.0, "ce_ratio": 1.0, "base_test_ce": _base_ce(inputs.base_metrics())}
