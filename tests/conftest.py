"""Fixtures shared by the command-line tests."""

import pytest

from fairfront.cli import main


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A 3000-record M1 set split 50/50 and a 120-round base model, shared by
    the command-line tests."""
    root = tmp_path_factory.mktemp("runs")
    data = root / "data"
    assert (
        main(
            [
                "generate",
                "--model",
                "m1",
                "--n",
                "3000",
                "--seed",
                "5",
                "--split",
                "0.5",
                "--out",
                str(data),
            ]
        )
        == 0
    )
    model_dir = root / "model"
    assert (
        main(
            [
                "train-base",
                "--train",
                str(data / "train.csv"),
                "--test",
                str(data / "test.csv"),
                "--rounds",
                "120",
                "--min-leaf",
                "16",
                "--out",
                str(model_dir),
            ]
        )
        == 0
    )
    return root, data, model_dir


def run_mitigate(workspace, out_name, extra=()):
    root, data, model_dir = workspace
    out = root / out_name
    code = main(
        [
            "mitigate",
            "--method",
            "tree-pca",
            "--components",
            "8",
            "--estimator",
            "trapezoid",
            "--train",
            str(data / "train.csv"),
            "--test",
            str(data / "test.csv"),
            "--base",
            str(model_dir / "model.json"),
            "--omegas",
            "5",
            "--epochs",
            "3",
            "--batches",
            "3",
            "--batch-size",
            "256",
            "--seed",
            "3",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    return out
