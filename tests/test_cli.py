"""End-to-end command-line runs on a small synthetic task: artifact layout,
config/flag merging, determinism of CSV artifacts, and re-evaluation
idempotence."""

import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairfront import cli, encoders, gbdt
from fairfront.cli import main
from fairfront.data import _BLOCK_ROWS, generate_m1, generate_m2, load_csv, split
from fairfront.encoders import EncoderMatrix, additive_encoders, tree_pca_encoders
from fairfront.estimators import BiasEstimatorSpec
from fairfront.frontier import evaluate, pareto_filter, read_frontier_csv, write_frontier_csv
from fairfront.gbdt import Ensemble, train
from fairfront.optimizer import SweepConfig, default_omegas, loss_bias_ratio_scale, sgd_sweep
from conftest import run_mitigate
from oracles import embedded_svg_table, per_cell_csv


class TestGenerate:
    def test_artifacts_and_manifest(self, workspace):
        root, data, _ = workspace
        assert (data / "data.csv").exists()
        assert (data / "data.json").exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["status"] == "ok"
        assert "config_hash" in manifest and len(manifest["config_hash"]) == 64
        assert "data.csv" in manifest["artifacts"]

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test-only oracle: neither the import nor a run loads it
        code = (
            "import sys\n"
            "import fairfront.cli\n"
            f"assert fairfront.cli.main(['generate', '--n', '200', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "data.csv").exists()

    # pin each generator and the CSV writer: any drift in either changes a hash
    @staticmethod
    def generated_hashes(tmp_path, model):
        assert main(["generate", "--model", model, "--n", "500", "--seed", "3", "--split", "0.5",
                     "--out", str(tmp_path)]) == 0
        return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("data.csv", "train.csv", "test.csv", "data.json")}

    def test_generated_files_keep_their_bytes(self, tmp_path):
        assert self.generated_hashes(tmp_path, "m1") == {
            "data.csv": "757d199a2d52a113968993060b95d89b88d87a988cfd493649aaa2407d53e851",
            "train.csv": "821ec3b32a97d6cbd95325075d37a1f138e32a600aea562e2143ec75e60d41b3",
            "test.csv": "13f57ae8d8a7c6c778d281a57489a447e889698ae9cbbe470f57391a4b2b4c64",
            "data.json": "67ba682d5bdd87d1d56ffa7311815047b9971accfc67e188c8b93f50e897cc4c",
        }

    def test_generated_m2_files_keep_their_bytes(self, tmp_path):
        assert self.generated_hashes(tmp_path, "m2") == {
            "data.csv": "c7640e9dcfab4aeb9d373c414fe04466a280cc7904aaed1c754b9dab4cb59000",
            "train.csv": "7e701d37489d96f89638b476a3c5ba55c9a83c8e5736581abbef74207cf1a46f",
            "test.csv": "b8645c0fd3064b4c0a052cc2393f1e7259f574727af7700b4d3c5cb9c6817464",
            "data.json": "e9a1424936a22fbcd659ffbc5c389d5d4d27b6615c01880c31e74f98a0f7d32e",
        }

    # 255 to 257 records cross the 256-row block edge of the whole file, and
    # 3000 crosses several in each part
    @pytest.mark.parametrize("model", ["m1", "m2"])
    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3000])
    def test_generated_files_equal_per_cell_writer(self, tmp_path, model, n):
        out, ref = tmp_path / "out", tmp_path / "ref"
        ref.mkdir()
        assert main(["generate", "--model", model, "--n", str(n), "--seed", "6", "--split", "0.5",
                     "--out", str(out)]) == 0
        ds = {"m1": generate_m1, "m2": generate_m2}[model](n, 6)
        train_ds, test_ds = split(ds, 0.5, seed=6)
        for name, part in (("data", ds), ("train", train_ds), ("test", test_ds)):
            per_cell_csv(part, ref / f"{name}.csv")
            assert (out / f"{name}.csv").read_bytes() == (ref / f"{name}.csv").read_bytes(), name

    def test_failed_split_writes_no_files(self, tmp_path, capsys):
        # four records: one part of the split lacks a group
        out = tmp_path / "out"
        assert main(["generate", "--n", "4", "--split", "0.5", "--seed", "0", "--out", str(out)]) == 1
        assert "error: a split lost an entire group" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["artifacts"] == []

    def test_split_files_row_counts(self, workspace):
        _, data, _ = workspace
        n_train = len((data / "train.csv").read_text().splitlines()) - 1
        n_test = len((data / "test.csv").read_text().splitlines()) - 1
        assert n_train == 1500 and n_test == 1500


class TestTrainBase:
    def test_model_written(self, workspace):
        _, _, model_dir = workspace
        doc = json.loads((model_dir / "model.json").read_text())
        assert doc["kind"] == "fairfront-gbdt"
        assert len(doc["trees"]) > 0

    def test_grid_selection_records_choice(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "grid-model"
        assert (
            main(
                [
                    "train-base",
                    "--train",
                    str(data / "train.csv"),
                    "--test",
                    str(data / "test.csv"),
                    "--grid",
                    "--rounds",
                    "60",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert "grid_selection" in manifest
        assert manifest["grid_selection"]["chosen"]["depth"] in (2, 3, 4)


class TestMitigate:
    def test_artifacts(self, workspace):
        out = run_mitigate(workspace, "run1")
        for name in ("trace.csv", "candidates.json", "frontier.csv", "frontier.svg", "encoders.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["peak_rss_mb"] > 0
        points = read_frontier_csv(out / "frontier.csv")
        assert {p.split for p in points} == {"train", "test"}
        assert all(p.method == "tree-pca" for p in points)

    def test_deterministic_artifacts(self, workspace):
        out1 = run_mitigate(workspace, "run-det-a")
        out2 = run_mitigate(workspace, "run-det-b")
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "frontier.csv").read_bytes() == (out2 / "frontier.csv").read_bytes()
        assert embedded_svg_table(out1 / "frontier.svg") == embedded_svg_table(out2 / "frontier.svg")

    def test_evaluate_reproduces_frontier_byte_identically(self, workspace):
        root, data, _ = workspace
        out = run_mitigate(workspace, "run2")
        reval = root / "reval"
        assert (
            main(
                [
                    "evaluate",
                    "--candidates",
                    str(out / "candidates.json"),
                    "--base",
                    str(root / "model" / "model.json"),
                    "--train",
                    str(data / "train.csv"),
                    "--test",
                    str(data / "test.csv"),
                    "--out",
                    str(reval),
                ]
            )
            == 0
        )
        assert (reval / "frontier.csv").read_bytes() == (out / "frontier.csv").read_bytes()

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        root, data, model_dir = workspace
        config = {
            "method": "additive",
            "degree": 1,
            "train": str(data / "train.csv"),
            "test": str(data / "test.csv"),
            "base": str(model_dir / "model.json"),
            "omegas": 4,
            "epochs": 2,
            "batches": 2,
            "batch-size": 128,
            "seed": 1,
            "out": str(tmp_path / "cfg-run"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["mitigate", "--config", str(cfg_path), "--omegas", "3"]) == 0
        manifest = json.loads((tmp_path / "cfg-run" / "manifest.json").read_text())
        assert manifest["config"]["method"] == "additive"  # from config
        assert manifest["config"]["omegas"] == 3  # flag wins

    def test_missing_cells_are_imputed_through_the_pipeline(self, workspace, tmp_path):
        _, data, model_dir = workspace
        # blank out a few feature cells in copies of the split files
        for name in ("train", "test"):
            lines = (data / f"{name}.csv").read_text().splitlines()
            for i in (3, 9, 20):
                cells = lines[i].split(",")
                cells[1] = ""
                lines[i] = ",".join(cells)
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(
            [
                "mitigate",
                "--method",
                "additive",
                "--train",
                str(tmp_path / "train.csv"),
                "--test",
                str(tmp_path / "test.csv"),
                "--base",
                str(model_dir / "model.json"),
                "--omegas",
                "3",
                "--epochs",
                "2",
                "--batches",
                "2",
                "--batch-size",
                "128",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "frontier.csv").exists()
        # evaluate on the test split alone imputes with means fitted on it
        reval = tmp_path / "reval"
        flags = ["--candidates", str(out / "candidates.json"), "--base", str(model_dir / "model.json")]
        flags += ["--test", str(tmp_path / "test.csv")]
        assert main(["evaluate", *flags, "--out", str(reval)]) == 0
        assert {p.split for p in read_frontier_csv(reval / "frontier.csv")} == {"test"}

class TestEncode:
    def test_malformed_model_rejected_before_any_stage(self, workspace, tmp_path, capsys):
        _, data, model_dir = workspace
        doc = json.loads((model_dir / "model.json").read_text())
        doc["trees"][3]["feature"][0] = 99
        tampered = tmp_path / "model.json"
        tampered.write_text(json.dumps(doc))
        out = tmp_path / "enc"
        code = main(
            [
                "encode",
                "--method",
                "tree-pca",
                "--components",
                "3",
                "--train",
                str(data / "train.csv"),
                "--base",
                str(tampered),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "tree 3: node 0 splits on feature 99" in capsys.readouterr().err
        assert not (out / "encoders.csv").exists()


    def test_model_with_a_missing_key_is_an_error_line(self, workspace, tmp_path, capsys):
        _, data, model_dir = workspace
        doc = json.loads((model_dir / "model.json").read_text())
        del doc["trees"][2]["threshold"]
        tampered = tmp_path / "model.json"
        tampered.write_text(json.dumps(doc))
        out = tmp_path / "enc"
        code = main(
            [
                "encode",
                "--method",
                "tree-pca",
                "--components",
                "3",
                "--train",
                str(data / "train.csv"),
                "--base",
                str(tampered),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert f"error: {tampered}: tree 2: missing key 'threshold'\n" in capsys.readouterr().err
        assert not (out / "encoders.csv").exists()

    def test_shapley_past_the_enumeration_cap(self, tmp_path):
        # 20 features, beyond the 16 that the coalition enumeration took
        rng = np.random.default_rng(40)
        X = rng.normal(size=(300, 20))
        y = (rng.random(300) < 0.3 + 0.4 * (X[:, 3] + X[:, 11] > 0)).astype(int)
        path = tmp_path / "wide.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(20)] + ["label", "group"])
            writer.writerows([*map(repr, row), label, i % 2] for i, (row, label) in enumerate(zip(X.tolist(), y)))
        flags = ["--train", str(path), "--test", str(path), "--rounds", "30", "--depth", "3", "--min-leaf", "8"]
        assert main(["train-base", *flags, "--out", str(tmp_path / "model")]) == 0
        model_path = tmp_path / "model" / "model.json"
        out = tmp_path / "enc"
        code = main(["encode", "--method", "shapley", "--background", "40", "--train", str(path),
                     "--base", str(model_path), "--out", str(out)])
        assert code == 0
        enc = EncoderMatrix.load(out / "encoders.csv", out / "encoders.json")
        model = Ensemble.load(model_path)
        assert enc.columns.shape == (300, 21)
        phi = enc.columns[:, 1:] + enc.centers[1:]
        reference = np.mean(model.predict_raw(enc.provenance["background"]))
        assert np.max(np.abs(phi.sum(axis=1) + reference - model.predict_raw(X))) <= 1e-9


class TestBaselines:
    def test_rescale_cli(self, workspace, tmp_path):
        root, data, model_dir = workspace
        out = tmp_path / "rescale"
        assert (
            main(
                [
                    "baseline-rescale",
                    "--train",
                    str(data / "train.csv"),
                    "--test",
                    str(data / "test.csv"),
                    "--base",
                    str(model_dir / "model.json"),
                    "--features",
                    "0,1,2",
                    "--iterations",
                    "40",
                    "--omegas",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (out / "frontier.csv").exists()
        doc = json.loads((out / "candidates.json").read_text())
        assert doc["selected_features"] == [0, 1, 2]
        assert len(doc["candidates"]) == 41

    def test_ot_cli(self, workspace, tmp_path):
        root, data, model_dir = workspace
        out = tmp_path / "ot"
        assert (
            main(
                [
                    "baseline-ot",
                    "--train",
                    str(data / "train.csv"),
                    "--test",
                    str(data / "test.csv"),
                    "--base",
                    str(model_dir / "model.json"),
                    "--rounds",
                    "60",
                    "--thetas",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (out / "projected_model.json").exists()
        points = read_frontier_csv(out / "frontier.csv")
        assert all(p.method == "ot" for p in points)

    # sha256 of each baseline's artifacts on the test workspace.  The rescale
    # hashes are as they were when each baseline still had a scoring loop of
    # its own; the transport hashes are those of the projection fit on one
    # soft-label row per record, whose trees differ from the 2n-row weighted
    # stack's where the stack's weight sums rounded across min_leaf or a gain tied
    PINNED = {
        "baseline-rescale": (
            ["--features", "0,1,2", "--iterations", "40", "--omegas", "5"],
            {
                "frontier.csv": "39921c2ca7772ef29bdc77ba600eab0218069e705662252974ab43e0a7ebe83b",
                "frontier.svg": "5152603554b6c0b18122def6d46a05c0f5f8f1a260a485480279c81fa5f913c1",
                "candidates.json": "b04e4209df8d1067a0fc045eebcf91d8dd9a0b06233a60892488bfec4738d1a5",
            },
        ),
        "baseline-ot": (
            ["--rounds", "60", "--thetas", "5"],
            {
                "frontier.csv": "f09450871a4f86c78e1c440b200c4a13926d8517950f3e07e2f322e7f2df1602",
                "frontier.svg": "7ea6d8dd0535c273e9e4bd590a18d29c2c4f5ac5287efcfaa0d3347631366528",
                "projected_model.json": "8967908206a8981a5c7fe626c9d1305581dd186b6f1d6b1df878764de2092c8e",
            },
        ),
    }

    @pytest.mark.parametrize("command", list(PINNED))
    def test_artifacts_keep_their_bytes(self, workspace, tmp_path, command):
        _, data, model_dir = workspace
        setting, pinned = self.PINNED[command]
        flags = ["--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                 "--base", str(model_dir / "model.json"), *setting]
        out = tmp_path / "out"
        assert main([command, *flags, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
        assert digests == pinned


class TestReport:
    def test_merges_frontiers(self, workspace, tmp_path):
        out1 = run_mitigate(workspace, "run-report")
        merged = tmp_path / "report"
        assert (
            main(["report", "--inputs", str(out1 / "frontier.csv"), "--out", str(merged)]) == 0
        )
        assert (merged / "frontier.csv").exists()
        assert (merged / "frontier.svg").exists()

def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestOptionTable:
    """Each option comes from its flag, else the config, else the table's
    default, and goes through the flag's own conversion before any stage."""

    def test_help_shows_effective_defaults(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["mitigate", "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for shown in ("(default: 21)", "(default: lagrangian)", "(default: 10.0)", "(default: 0.01)"):
            assert shown in text

    def test_kde_bandwidth_is_recorded(self, workspace):
        bandwidths = (0.2, 0.4)
        runs = [
            run_mitigate(workspace, f"kde-{bw}", ["--estimator", "invariant-kde", "--kde-bandwidth", str(bw)])
            for bw in bandwidths
        ]
        manifests = [json.loads((out / "manifest.json").read_text()) for out in runs]
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
        for out, manifest, bw in zip(runs, manifests, bandwidths):
            estimator = json.loads((out / "candidates.json").read_text())["estimator"]
            assert manifest["config"]["kde-bandwidth"] == bw
            assert estimator["kde_bandwidth"] == bw
            # the manifest keeps the request; candidates.json what was applied
            assert manifest["config"]["unbiased"] is True
            assert estimator["unbiased"] is False

    def test_config_number_goes_through_the_flag_type(self, tmp_path):
        out = tmp_path / "gen"
        cfg = write_config(tmp_path / "gen.json", {"n": 200, "split": "0.5", "out": str(out)})
        assert main(["generate", "--config", cfg]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["split"] == 0.5
        assert (out / "train.csv").exists()

    @pytest.mark.parametrize("value, applied", [(False, False), (0, False), (1, True), (True, True)])
    def test_switch_takes_a_json_bool_or_0_1(self, workspace, tmp_path, value, applied):
        _, data, _ = workspace
        out = tmp_path / "out"
        doc = {"train": str(data / "train.csv"), "base": str(tmp_path / "nope.json"), "unbiased": value}
        assert main(["mitigate", "--config", write_config(tmp_path / "cfg.json", doc), "--out", str(out)]) == 1
        assert json.loads((out / "manifest.json").read_text())["config"]["unbiased"] is applied


class TestLibraryRoute:
    """The library's defaults are the command line's: the README's library
    route, given only what the commands were given, trains the same model
    and scores the same test frontier."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("library-route")
        data, model_dir = root / "data", root / "model"
        assert main(["generate", "--n", "2000", "--seed", "7", "--split", "0.5", "--out", str(data)]) == 0
        splits = ["--train", str(data / "train.csv"), "--test", str(data / "test.csv")]
        assert main(["train-base", *splits, "--out", str(model_dir)]) == 0
        for method in ("tree-pca", "additive"):
            assert main(["mitigate", "--method", method, *splits, "--base", str(model_dir / "model.json"),
                         "--omegas", "3", "--epochs", "2", "--seed", "7", "--out", str(root / method)]) == 0
        return root

    def test_same_model_and_test_frontier(self, runs, tmp_path):
        train_ds, test_ds = (load_csv(runs / "data" / f"{name}.csv") for name in ("train", "test"))
        model = train(train_ds.X, train_ds.y, valid=(test_ds.X, test_ds.y))
        model.save(tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (runs / "model" / "model.json").read_bytes()
        spec = BiasEstimatorSpec(rng_seed=7)
        for method in ("tree-pca", "additive"):
            if method == "tree-pca":
                enc = tree_pca_encoders(model, train_ds.X, r=40)
            else:
                enc = additive_encoders(train_ds.X, degree=1, feature_names=train_ds.feature_names)
            family = enc.family(model, train_ds.X)
            scale = 1.5 * loss_bias_ratio_scale(family, spec, train_ds.y, train_ds.g)
            config = SweepConfig(omegas=default_omegas(scale, 3), n_epochs=2, seed=7)
            candidates, _ = sgd_sweep(family, spec, config, train_ds.y, train_ds.g)
            test_family = enc.reevaluate(test_ds.X, model=model).family(model, test_ds.X)
            scored = ((omega, theta, test_family.scores(theta)) for omega, theta in candidates)
            points = pareto_filter(evaluate(scored, test_ds.y, test_ds.g, "test", method))
            write_frontier_csv(points, tmp_path / "frontier.csv")
            rows = (runs / method / "frontier.csv").read_text().splitlines()
            cli_test_rows = [row for row in rows if row.split(",")[2] == "test"]
            assert (tmp_path / "frontier.csv").read_text().splitlines()[1:] == cli_test_rows, method


def test_main_leaves_no_argparse_garbage(tmp_path):
    # main builds its parser once per process; each build left reference
    # cycles (help formatters, actions, their lists) that only a full
    # collection frees
    argv = ["generate", "--n", "200", "--seed", "1", "--out"]
    assert main([*argv, str(tmp_path / "warm-up")]) == 0
    gc.collect()
    debug, enabled = gc.get_debug(), gc.isenabled()
    gc.disable()
    try:
        assert main([*argv, str(tmp_path / "again")]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        freed = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert freed == []


class TestFailedRunManifest:
    """Once its output directory exists, a failed run still writes its
    manifest, with the error and the stages that completed."""

    def test_missing_base_file(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "out"
        flags = ["--train", str(data / "train.csv"), "--base", str(tmp_path / "nope.json")]
        assert main(["mitigate", *flags, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "nope.json" in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["timings"] == {} and manifest["artifacts"] == []
        assert manifest["peak_rss_mb"] > 0

    def test_failure_after_a_stage(self, workspace, tmp_path):
        # a model without trees loads, and the tree-pca build rejects it
        _, data, _ = workspace
        empty = tmp_path / "empty"
        assert main(["train-base", "--train", str(data / "train.csv"), "--rounds", "0", "--out", str(empty)]) == 0
        out = tmp_path / "out"
        flags = ["--train", str(data / "train.csv"), "--base", str(empty / "model.json")]
        assert main(["mitigate", *flags, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "ensemble must contain at least one tree"
        assert list(manifest["timings"]) == ["load"]
        assert not (out / "encoders.csv").exists()

    def test_eigensolver_step_cap(self, workspace, tmp_path, monkeypatch, capsys):
        # the tree-pca eigensolver never falls back to a full eigh: at its
        # step cap the run fails after load, naming the gap
        monkeypatch.setattr(encoders, "_RITZ_STEPS", 1)
        _, data, model_dir = workspace
        out = tmp_path / "out"
        flags = ["--train", str(data / "train.csv"), "--base", str(model_dir / "model.json"), "--method", "tree-pca"]
        assert main(["mitigate", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: tree-pca: the top 40 eigenvectors")
        assert "theta_40 = " in err[0] and "theta_80 = " in err[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["error"] == err[0][len("error: "):]
        assert list(manifest["timings"]) == ["load"]
        assert not (out / "encoders.csv").exists()

    def test_unexpected_exception_is_recorded_and_raised(self, workspace, tmp_path, monkeypatch):
        _, data, model_dir = workspace
        out = tmp_path / "out"

        def broken(*args, **kwargs):
            raise RuntimeError("the sweep broke")

        monkeypatch.setattr(cli, "sgd_sweep", broken)
        flags = ["--train", str(data / "train.csv"), "--base", str(model_dir / "model.json"), "--method", "additive"]
        with pytest.raises(RuntimeError, match="the sweep broke"):
            main(["mitigate", *flags, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "RuntimeError: the sweep broke"
        assert sorted(manifest["timings"]) == ["encoders", "load"]

class TestManifestVersions:
    """Every manifest, a failed run's too, records the BLAS that numpy was
    built with and the thread settings the process saw: the BLAS thread
    count can change the last bits of BLAS products, and with them of the
    tree-pca columns."""

    def test_blas_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        ok, failed = tmp_path / "ok", tmp_path / "failed"
        assert main(["generate", "--n", "200", "--out", str(ok)]) == 0
        assert main(["generate", "--n", "200", "--seed", "-1", "--out", str(failed)]) == 2
        for out, status in ((ok, "ok"), (failed, "error")):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == status
            versions = manifest["versions"]
            assert versions["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
            assert versions["blas"] == cli._blas() != ""


class TestOneWalkPerSplit:
    """``evaluate`` walks the trees once per split: the rows that go through
    the packed walk are the train rows plus the test rows.  ``mitigate``
    walks train once more, for the moments of the tree-pca build."""

    @pytest.fixture
    def walked(self, monkeypatch):
        rows = []
        blocks = gbdt._PackedTrees.blocks

        def counting(self, X):
            rows.append(X.shape[0])
            return blocks(self, X)

        monkeypatch.setattr(gbdt._PackedTrees, "blocks", counting)
        return rows

    def test_mitigate_then_evaluate(self, workspace, walked, tmp_path):
        root, data, model_dir = workspace
        split_rows = sum(load_csv(data / f"{name}.csv").n_records for name in ("train", "test"))
        n_train = load_csv(data / "train.csv").n_records
        run = run_mitigate(workspace, "one_walk")
        assert sum(walked) == n_train + split_rows
        walked.clear()
        flags = ["--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                 "--base", str(model_dir / "model.json")]
        assert main(["evaluate", "--candidates", str(run / "candidates.json"), *flags,
                     "--out", str(tmp_path / "evaluation")]) == 0
        assert sum(walked) == split_rows
        frontier = (tmp_path / "evaluation" / "frontier.csv").read_bytes()
        assert frontier == (run / "frontier.csv").read_bytes()

    def test_baseline_ot(self, workspace, walked, tmp_path):
        # each split is walked once by the base model (on train, by the
        # repair) and once by the projected one, for all thetas
        _, data, model_dir = workspace
        n_train, n_test = (load_csv(data / f"{name}.csv").n_records for name in ("train", "test"))
        flags = ["--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                 "--base", str(model_dir / "model.json"), "--rounds", "60", "--thetas", "5"]
        assert main(["baseline-ot", *flags, "--out", str(tmp_path / "ot")]) == 0
        assert sum(walked) == 2 * (n_train + n_test)

    def test_baseline_rescale(self, workspace, walked, tmp_path):
        # the search walks train once per candidate and keeps the train
        # probabilities of the candidates that some weight picks; then test is
        # walked once per distinct picked candidate
        _, data, model_dir = workspace
        n_train, n_test = (load_csv(data / f"{name}.csv").n_records for name in ("train", "test"))
        flags = ["--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                 "--base", str(model_dir / "model.json"), "--features", "0,1,2", "--iterations", "40",
                 "--omegas", "5"]
        out = tmp_path / "rescale"
        assert main(["baseline-rescale", *flags, "--out", str(out)]) == 0
        picked = set(json.loads((out / "candidates.json").read_text())["best_per_omega"].values())
        assert len(picked) < 5  # two weights pick the same candidate
        assert sum(walked) == 41 * n_train + len(picked) * n_test


class TestMismatchedReevaluation:
    """``evaluate`` rebuilds the run's encoder columns from their frozen state;
    a model or CSV that does not fit that state is a named error, also where
    the run's candidates.json records that model as its own."""

    def run_small(self, workspace, out, method, extra=()):
        _, data, model_dir = workspace
        flags = ["--train", str(data / "train.csv"), "--base", str(model_dir / "model.json"), "--method", method]
        flags += ["--omegas", "1", "--epochs", "1", "--batches", "1", "--batch-size", "64", *extra]
        assert main(["mitigate", *flags, "--out", str(out)]) == 0
        return out

    @staticmethod
    def record_base(run, model_path):
        """Make ``model_path`` the base model that the run's candidates.json
        records, so evaluate gets past its model check to the encoders'."""
        doc = json.loads((run / "candidates.json").read_text())
        doc["base_sha256"] = hashlib.sha256(model_path.read_bytes()).hexdigest()
        (run / "candidates.json").write_text(json.dumps(doc))

    def failed_evaluate(self, run, flags, out, capsys):
        assert main(["evaluate", "--candidates", str(run / "candidates.json"), *flags, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] in capsys.readouterr().err
        return manifest["error"]

    def test_tree_pca_run_against_a_smaller_model(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        run = self.run_small(workspace, tmp_path / "run", "tree-pca", ["--components", "8"])
        small = tmp_path / "small"
        assert main(["train-base", "--train", str(data / "train.csv"), "--rounds", "5", "--out", str(small)]) == 0
        self.record_base(run, small / "model.json")
        flags = ["--base", str(small / "model.json"), "--test", str(data / "test.csv")]
        error = self.failed_evaluate(run, flags, tmp_path / "reval", capsys)
        kept = json.loads((run / "encoders.json").read_text())["provenance"]["kept_trees"]["__array__"]
        assert error == f"tree-pca encoders need at least {int(max(kept)) + 1} trees, the model has 5"

    def test_additive_run_against_a_csv_without_a_feature(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        run = self.run_small(workspace, tmp_path / "run", "additive")
        lines = (data / "test.csv").read_text().splitlines()
        (tmp_path / "test.csv").write_text("".join(line.split(",", 1)[1] + "\n" for line in lines))
        # a base model of those four features, so the split loads and the encoders reject it
        small = tmp_path / "small"
        assert main(["train-base", "--train", str(tmp_path / "test.csv"), "--rounds", "5", "--out", str(small)]) == 0
        self.record_base(run, small / "model.json")
        flags = ["--base", str(small / "model.json"), "--test", str(tmp_path / "test.csv")]
        error = self.failed_evaluate(run, flags, tmp_path / "reval", capsys)
        assert error == "additive encoders were fit on 5 features, got 4"
