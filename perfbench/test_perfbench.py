"""Tests of the benchmark itself: self-time arithmetic, metric naming and
the output checks, on smoke-sized runs.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYER_METRICS, SpanTree, _percentile, layer_metrics  # noqa: E402
from workloads import BASE_CE_WINDOW, N_RECORDS, WORKLOADS, CheckFailed, Inputs, check, setup  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

SPANS = [
    ["cli.import", -1, 0.0, 1.0, 0],
    ["optimizer.sweep", -1, 1.0, 5.0, 0],
    ["optimizer.objective", 1, 1.5, 3.0, 0],
    ["estimators.step", 2, 2.0, 2.5, 100],
    ["estimators.snapshot", 1, 3.5, 4.0, 50],
    ["gbdt.tree_predict", -1, 5.0, 5.5, 10],
    ["gbdt.tree_predict", -1, 5.5, 6.0, 20],
]


def test_self_times_subtract_direct_children():
    t = SpanTree(SPANS)
    assert t.self_total("optimizer.sweep") == pytest.approx(4.0 - 1.5 - 0.5)
    assert t.self_total("optimizer.objective") == pytest.approx(1.5 - 0.5)
    assert t.self_total("estimators.step") == pytest.approx(0.5)
    assert t.top_level_total() == pytest.approx(1.0 + 4.0 + 0.5 + 0.5)


def test_layer_metrics_from_spans():
    m = layer_metrics(SPANS, launched=-0.2, finished=6.5)
    assert m["trace.run_s"] == pytest.approx(6.7)
    assert m["cli.self_s"] == pytest.approx(6.7 - 6.0)
    assert m["cli.self_share"] == pytest.approx(0.7 / 6.7)
    assert m["optimizer.sweep.self_s"] == pytest.approx(2.0)
    assert m["optimizer.objective.self_s"] == pytest.approx(1.0)
    assert m["optimizer.steps"] == 1
    assert m["optimizer.snapshots"] == 1
    assert m["estimators.step.p50_ms"] == pytest.approx(500.0)
    assert m["estimators.snapshot.pair_mb"] == pytest.approx(8 * 50 / 1e6)
    assert m["gbdt.tree_predict.calls"] == 2
    assert m["gbdt.tree_predict.rows"] == 30
    assert m["gbdt.tree_predict.s"] == pytest.approx(1.0)
    assert m["gbdt.train.s"] == 0


def test_recursive_span_counted_once():
    spans = [["encoders.reevaluate", -1, 0.0, 2.0, 0], ["encoders.reevaluate", 0, 0.5, 1.5, 0]]
    t = SpanTree(spans)
    assert t.total("encoders.reevaluate") == pytest.approx(2.0)
    assert t.calls("encoders.reevaluate") == 1
    assert t.self_total("encoders.reevaluate") == pytest.approx(2.0)


def test_probe_scales_times_to_the_reference_speed():
    probe = run.Probe()
    probe.samples = [0.2, 0.4, 0.3]
    assert probe.at_reference_speed(6.0) == pytest.approx(6.0 * run.PROBE_REF_S / 0.3)
    probe()
    assert len(probe.samples) == 4 and probe.samples[-1] > 0


def test_nearest_rank_percentile():
    assert _percentile(list(range(1, 101)), 99) == 99
    assert _percentile(list(range(1, 101)), 50) == 50
    assert _percentile([5.0], 99) == 5.0
    assert _percentile([], 50) == 0.0


# ---------------------------------------------------------------------------
# metric naming
# ---------------------------------------------------------------------------


def benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_follow_the_contract():
    doc = benchmark_doc()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])


def test_benchmark_json_matches_what_the_runner_prints():
    doc = benchmark_doc()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [tuple(m) for m in LAYER_METRICS]
    assert sorted((m["name"], m["unit"]) for m in doc["end_to_end"]) == sorted(run.END_TO_END)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
    filled_by_caller = {"data.generate.s", "trace.untraced_run_s", "trace.overhead", "trace.probe_s"}
    assert set(layer_metrics(SPANS, 0.0, 7.0)) | filled_by_caller == {m[0] for m in LAYER_METRICS}


# ---------------------------------------------------------------------------
# output checks on smoke-sized runs
# ---------------------------------------------------------------------------

SMOKE = ["--omegas", "2", "--epochs", "1", "--batches", "2", "--batch-size", "128"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    inputs = Inputs(tmp_path_factory.mktemp("perfbench"), seed=1)
    setup(WORKLOADS["shapley-encode"], inputs, time.monotonic)
    return inputs


def run_cli(argv):
    from fairfront.cli import main

    assert main(argv) == 0


def smoke_mitigate(inputs, tmp_path):
    workload = dataclasses.replace(WORKLOADS["mitigate-grid"], sweep_rows=2, w1_ratio_max=1.5)
    out = tmp_path / "mitigate"
    return workload, out, inputs.argv(workload, out) + SMOKE


def test_train_base_check(inputs, tmp_path):
    out = tmp_path / "model"
    out.mkdir()
    shutil.copy(inputs.model, out / "model.json")
    values = check(WORKLOADS["train-base"], inputs, out)
    assert BASE_CE_WINDOW[0] <= values["base_test_ce"] <= BASE_CE_WINDOW[1]
    assert values["w1_ratio"] == values["ce_ratio"] == 1.0


def test_train_base_check_rejects_an_untrained_model(inputs, tmp_path):
    from fairfront.gbdt import Ensemble

    out = tmp_path / "model"
    out.mkdir()
    Ensemble(0.0, 0.1, [], 5).save(out / "model.json")
    with pytest.raises(CheckFailed):
        check(WORKLOADS["train-base"], inputs, out)


def test_mitigate_check_and_a_truncated_trace(inputs, tmp_path):
    workload, out, argv = smoke_mitigate(inputs, tmp_path)
    run_cli(argv)
    values = check(workload, inputs, out)
    assert values["ce_ratio"] <= 1.25
    lines = (out / "trace.csv").read_text().splitlines()
    (out / "trace.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="trace.csv"):
        check(workload, inputs, out)


def test_shapley_efficiency_check(inputs, tmp_path):
    workload = WORKLOADS["shapley-encode"]
    out = tmp_path / "shapley"
    run_cli(inputs.argv(workload, out) + ["--background", "8"])
    check(workload, inputs, out)
    rows = (out / "encoders.csv").read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    rows[1] = ",".join(cells)
    (out / "encoders.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckFailed, match="efficiency"):
        check(workload, inputs, out)


def test_traced_run_counts_and_leaves_outputs_unchanged(inputs, tmp_path):
    workload, plain_out, argv = smoke_mitigate(inputs, tmp_path)
    run_cli(argv)
    traced_out = tmp_path / "traced"
    traced_argv = [a if a != str(plain_out) else str(traced_out) for a in argv]
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(spans)] + traced_argv, env=env, check=True)
    for name in workload.artifacts:
        assert (traced_out / name).read_bytes() == (plain_out / name).read_bytes()
    doc = json.loads(spans.read_text())
    m = layer_metrics(doc["spans"], launched, doc["finished"])
    omegas, epochs, batches = 2, 1, 2
    assert m["optimizer.steps"] == m["estimators.step.calls"] == omegas * epochs * batches
    # one snapshot of the start point, one per epoch, one more for the omega scale
    assert m["optimizer.snapshots"] == 1 + omegas * epochs
    assert m["estimators.snapshot.calls"] == m["optimizer.snapshots"] + 1
    assert m["frontier.score_metrics.calls"] == 2 * omegas
    assert m["data.load_csv.rows"] == N_RECORDS
    assert m["estimators.step.cells"] == omegas * epochs * batches * 130 * 2 * 128
    assert 0 <= m["cli.self_s"] < m["trace.run_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-base", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
