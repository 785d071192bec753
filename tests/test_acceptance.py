"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The end-to-end criteria run the full pipeline at
production scale (20k synthetic records, three seeds), so the whole module
takes several minutes.
"""

import time

import numpy as np
import pytest

from fairfront._util import sigmoid
from fairfront.bias_metrics import (
    GroupedScores,
    ThresholdMeasure,
    cost_bias,
    invariant_bias,
)
from fairfront.data import generate_m1, split
from fairfront.distributions import ABS, SQUARE, EmpiricalDistribution, wasserstein1
from fairfront.encoders import additive_encoders, tree_pca_encoders
from fairfront.estimators import BiasEstimatorSpec, EstimatorBatch, bias_value_and_grad
from fairfront.frontier import evaluate, pareto_filter, score_metrics
from fairfront.gbdt import GBDTParams, train
from fairfront.linear_family import LinearFamily
from fairfront.optimizer import (
    SweepConfig,
    default_omegas,
    loss_bias_ratio_scale,
    penalized_objective,
    sgd_sweep,
)
from fairfront.relaxation import RelaxationFamily
from oracles import estimator_rate_probe, fit_loglog_slope, frontier_value, grid_bias_ladder, transformed_group_w1

UNIFORM = ThresholdMeasure.uniform01()

BASE_PARAMS = GBDTParams(depth=2, rounds=800, learning_rate=0.04, min_leaf=64.0, early_stop_rounds=30)
ESTIMATOR = BiasEstimatorSpec(
    "threshold-discrete-trapezoid", RelaxationFamily("logistic", 20.0), SQUARE, 1.0 / 129.0, unbiased=True
)
OMEGA_SCALE_MULT = 1.5


def report(criterion, name, passed, detail):
    print(f"\n[ACCEPTANCE] criterion {criterion} ({name}): {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


def identity_family(scores):
    scores = np.asarray(scores, dtype=float)
    return LinearFamily(scores, np.ones((scores.size, 1)), link="identity")


# --------------------------------------------------------------------------
# pipeline pieces shared by the end-to-end criteria
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def m1_pipeline():
    cache = {}

    def run(seed):
        if seed in cache:
            return cache[seed]
        data = generate_m1(20_000, seed=seed)
        train_ds, test_ds = split(data, 0.5, seed=seed)
        model = train(train_ds.X, train_ds.y, params=BASE_PARAMS, valid=(test_ds.X, test_ds.y))
        base_raw_tr = model.predict_raw(train_ds.X)
        base_raw_te = model.predict_raw(test_ds.X)
        cache[seed] = {
            "train": train_ds,
            "test": test_ds,
            "model": model,
            "base_raw_train": base_raw_tr,
            "base_raw_test": base_raw_te,
            "base_train_metrics": score_metrics(sigmoid(base_raw_tr), train_ds.y, train_ds.g),
            "base_test_metrics": score_metrics(sigmoid(base_raw_te), test_ds.y, test_ds.g),
        }
        return cache[seed]

    return run


def run_sweep(pipe, method, seed):
    train_ds, test_ds, model = pipe["train"], pipe["test"], pipe["model"]
    if method == "tree-pca":
        enc = tree_pca_encoders(model, train_ds.X, r=40)
    else:
        enc = additive_encoders(train_ds.X, degree=1, basis="monomial", feature_names=train_ds.feature_names)
    fam_tr = enc.family(model, train_ds.X)
    fam_te = enc.reevaluate(test_ds.X, model=model).family(model, test_ds.X)
    scale = OMEGA_SCALE_MULT * loss_bias_ratio_scale(fam_tr, ESTIMATOR, train_ds.y, train_ds.g)
    cfg = SweepConfig(omegas=default_omegas(scale), objective="lagrangian", seed=seed)
    candidates, _ = sgd_sweep(fam_tr, ESTIMATOR, cfg, train_ds.y, train_ds.g)
    scored = ((omega, theta, fam_te.scores(theta)) for omega, theta in candidates)
    return evaluate(scored, test_ds.y, test_ds.g, "test", method)


# --------------------------------------------------------------------------
# criterion 1: estimator-oracle equivalence
# --------------------------------------------------------------------------


def test_criterion_1_estimator_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    trap_sq = BiasEstimatorSpec("threshold-discrete-trapezoid", RelaxationFamily("ramp", 500.0), SQUARE, 1.0 / 4096.0)
    trap_abs = BiasEstimatorSpec("threshold-discrete-trapezoid", RelaxationFamily("ramp", 500.0), ABS, 1.0 / 4096.0)
    energy = BiasEstimatorSpec("energy", RelaxationFamily("ramp", 500.0), SQUARE, 16)
    worst_sq = worst_abs = worst_en = 0.0
    for _ in range(50):
        n0, n1 = rng.integers(2, 11, 2)
        s0, s1 = rng.uniform(0, 1, n0), rng.uniform(0, 1, n1)
        g = GroupedScores((s0, s1), [0.5, 0.5])
        fam = identity_family(np.concatenate([s0, s1]))
        batch = EstimatorBatch(np.arange(n0), np.arange(n0, n0 + n1))
        v_sq, _ = bias_value_and_grad(trap_sq, fam, [0.0], batch)
        v_abs, _ = bias_value_and_grad(trap_abs, fam, [0.0], batch)
        v_en, _ = bias_value_and_grad(energy, fam, [0.0], batch)
        oracle_sq = cost_bias(g, SQUARE, UNIFORM)
        oracle_w1 = wasserstein1(g.distribution(0), g.distribution(1))
        worst_sq = max(worst_sq, abs(v_sq - oracle_sq))
        worst_abs = max(worst_abs, abs(v_abs - oracle_w1))
        worst_en = max(worst_en, abs(v_en - 2.0 * oracle_sq))
    elapsed = time.time() - t0
    ok = worst_sq <= 1e-2 and worst_abs <= 1e-2 and worst_en <= 1e-10 and elapsed < 10.0
    report(
        1,
        "estimator-oracle equivalence",
        ok,
        f"max |grid-oracle|: square {worst_sq:.2e}, abs {worst_abs:.2e} (tol 1e-2); "
        f"energy vs 2*integral {worst_en:.2e} (tol 1e-10); {elapsed:.1f}s < 10s",
    )


# --------------------------------------------------------------------------
# criterion 2: gradient correctness at dimension 45
# --------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(13)
    n, dim = 120, 45
    base = rng.normal(0.0, 1.0, n)
    cols = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(dim - 1)])
    family = LinearFamily(base, cols, link="logistic")
    rows = rng.permutation(n)
    batch = EstimatorBatch(rows[:40], rows[40:80], rows[80:])
    rel = RelaxationFamily("logistic", 12.0)
    specs = [
        BiasEstimatorSpec("threshold-mc", rel, SQUARE, 33, rng_seed=5),
        BiasEstimatorSpec("threshold-discrete", rel, SQUARE, 33),
        BiasEstimatorSpec("threshold-discrete-trapezoid", rel, SQUARE, 33, unbiased=True),
        BiasEstimatorSpec("energy", rel, SQUARE, 33),
        BiasEstimatorSpec("invariant-mc", rel, SQUARE, 33),
        BiasEstimatorSpec("invariant-kde-discrete", rel, SQUARE, 33, kde_bandwidth=0.15),
        BiasEstimatorSpec("invariant-energy-relaxed", rel, SQUARE, 33),
    ]
    labels = (rng.random(n) < 0.5).astype(float)
    perf = rows[:60]
    worst = 0.0
    step = 1e-5

    def tie_margin(spec, theta):
        # the energy statistics are |.|-kinked at exact score ties; central
        # differences are only valid where no FD probe crosses a kink, so
        # keep a margin of 10x the largest per-probe score movement
        if spec.variant not in ("energy", "invariant-energy-relaxed"):
            return True
        u = family.scores(theta)
        gaps = np.abs(np.subtract.outer(u, u))
        return np.min(gaps[np.triu_indices(n, k=1)]) > 1e-4

    def draw_theta(spec):
        for _ in range(50):
            theta = rng.normal(0.0, 0.25, dim)
            if spec == "objective" or tie_margin(spec, theta):
                return theta
        raise RuntimeError("no tie-free theta found")

    for spec in specs + ["objective"]:
        for _ in range(20):
            theta = draw_theta(spec)
            if spec == "objective":
                def val(t):
                    return penalized_objective(
                        family, specs[2], t, 0.4, perf, batch, labels=labels
                    )[0]

                _, grad = penalized_objective(family, specs[2], theta, 0.4, perf, batch, labels=labels)
            else:
                def val(t):
                    return bias_value_and_grad(spec, family, t, batch)[0]

                _, grad = bias_value_and_grad(spec, family, theta, batch)
            fd = np.zeros(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = step
                fd[j] = (val(theta + e) - val(theta - e)) / (2 * step)
            rel_err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, rel_err)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    report(
        2,
        "gradient correctness",
        ok,
        f"worst relative gradient error {worst:.2e} over 7 variants + objective, "
        f"20 theta each at dim {dim} (tol 1e-5); {elapsed:.1f}s < 30s",
    )


# --------------------------------------------------------------------------
# criterion 3: convergence-rate reproduction
# --------------------------------------------------------------------------


def test_criterion_3_rate_reproduction():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    pop0 = EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, 6))
    pop1 = EmpiricalDistribution.from_samples(rng.uniform(0.05, 0.95, 6))
    ladder = [2**k for k in range(6, 13)]
    spec_mc = BiasEstimatorSpec("threshold-mc", RelaxationFamily("ramp", 40.0), SQUARE, 64)
    slope_mc = fit_loglog_slope(estimator_rate_probe(spec_mc, pop0, pop1, ladder, n_reps=200, seed=1))
    spec_d = BiasEstimatorSpec("threshold-discrete", RelaxationFamily("ramp", 10.0), SQUARE, 64)
    slope_d = fit_loglog_slope(
        estimator_rate_probe(spec_d, pop0, pop1, ladder, n_reps=200, seed=2, coupling=0.4)
    )
    s_rows = grid_bias_ladder([16.0, 32.0, 64.0], 64, SQUARE, n_dists=40, seed=0)
    biases = [row["mean_abs_bias"] for row in s_rows]
    elapsed = time.time() - t0
    ok = (
        -1.3 <= slope_mc <= -0.7
        and -2.4 <= slope_d <= -1.6
        and biases[0] < biases[1] < biases[2]
        and elapsed < 300.0
    )
    report(
        3,
        "rate reproduction",
        ok,
        f"MC slope {slope_mc:.3f} in [-1.3,-0.7]; grid slope {slope_d:.3f} in [-2.4,-1.6]; "
        f"grid bias grows with s {['%.1e' % b for b in biases]}; {elapsed:.0f}s < 300s",
    )


# --------------------------------------------------------------------------
# criterion 4: atom-aware invariant bias
# --------------------------------------------------------------------------


def test_criterion_4_invariant_bias_atoms():
    n = 5000
    g = GroupedScores((np.zeros(n), np.arange(1, n + 1) / n), [0.5, 0.5])
    pooled = g.pooled()
    left = invariant_bias(g, pooled)
    right = transformed_group_w1(g, pooled, left=False)
    rng = np.random.default_rng(17)
    agree = True
    for _ in range(50):
        s0 = rng.integers(0, 6, rng.integers(2, 10)) / 5.0
        s1 = rng.integers(0, 6, rng.integers(2, 10)) / 5.0
        pair = GroupedScores((s0, s1), [0.5, 0.5])
        try:
            invariant_bias(pair, pair.pooled())  # raises beyond 1e-10 disagreement
        except AssertionError:
            agree = False
            break
    ok = abs(left - 0.75) <= 0.01 and abs(right - 0.25) <= 0.01 and agree
    report(
        4,
        "atom-aware invariant bias",
        ok,
        f"left-continuous transform {left:.4f} (target 0.75±0.01); "
        f"right-continuous variant {right:.4f} (≈0.25, differs); "
        f"both computation paths agree to 1e-10 on 50 atomic cases: {agree}",
    )


# --------------------------------------------------------------------------
# criterion 5: M1 end-to-end frontier, 3-seed majority
# --------------------------------------------------------------------------


def test_criterion_5_m1_frontier(m1_pipeline):
    t0 = time.time()
    seed_results = []
    details = []
    for seed in (7, 8, 9):
        pipe = m1_pipeline(seed)
        base = pipe["base_test_metrics"]
        window_ok = 0.10 <= base["w1_bias"] <= 0.25
        tree_pts = run_sweep(pipe, "tree-pca", seed)
        add_pts = run_sweep(pipe, "additive", seed)
        mx = tree_pts[-1]
        w1_ratio = mx.w1_bias / base["w1_bias"]
        ce_ratio = mx.ce / base["ce"]
        box_ok = w1_ratio <= 0.30 and ce_ratio <= 1.25
        tree_front = pareto_filter(tree_pts)
        add_front = pareto_filter(add_pts)
        reachable = [p.w1_bias for p in add_front if p.w1_bias >= min(q.w1_bias for q in tree_front)]
        if reachable:
            dominated = np.mean(
                [
                    frontier_value(tree_front, "w1_bias", "ce", b)
                    <= frontier_value(add_front, "w1_bias", "ce", b) + 1e-12
                    for b in reachable
                ]
            )
        else:
            dominated = 1.0
        dom_ok = dominated >= 0.70
        seed_results.append(window_ok and box_ok and dom_ok)
        details.append(
            f"seed {seed}: base w1 {base['w1_bias']:.3f} in window {window_ok}; "
            f"max-omega w1 ratio {w1_ratio:.3f}<=0.30 & ce ratio {ce_ratio:.3f}<=1.25 {box_ok}; "
            f"tree-pca dominates additive at {dominated:.0%}>=70% {dom_ok}"
        )
    elapsed = time.time() - t0
    passed_seeds = sum(seed_results)
    ok = passed_seeds >= 2 and elapsed < 600.0
    report(
        5,
        "M1 end-to-end frontier",
        ok,
        f"{passed_seeds}/3 seeds pass ({'; '.join(details)}); {elapsed:.0f}s < 600s",
    )


# --------------------------------------------------------------------------
# criterion 6: OT repair and projection
# --------------------------------------------------------------------------


def test_criterion_6_ot_baseline(m1_pipeline):
    from fairfront.baselines import ot_projection, repair_scores_by_label

    t0 = time.time()
    pipe = m1_pipeline(7)
    train_ds = pipe["train"]
    base_probs = sigmoid(pipe["base_raw_train"])
    base_w1 = pipe["base_train_metrics"]["w1_bias"]

    repaired = repair_scores_by_label(base_probs, train_ds.g)
    rep_g = GroupedScores.from_labels(repaired, train_ds.g)
    repaired_w1 = wasserstein1(rep_g.distribution(0), rep_g.distribution(1))

    proj = ot_projection(pipe["model"], train_ds.X, train_ds.g)
    *_, (theta, _, projected) = proj.candidates(base_probs, train_ds.X)
    assert theta == 1.0
    proj_g = GroupedScores.from_labels(projected, train_ds.g)
    projected_w1 = wasserstein1(proj_g.distribution(0), proj_g.distribution(1))
    elapsed = time.time() - t0
    ok = repaired_w1 <= 0.02 and projected_w1 <= 0.5 * base_w1 and elapsed < 300.0
    report(
        6,
        "OT baseline",
        ok,
        f"repaired train W1 {repaired_w1:.4f} <= 0.02; projected W1 {projected_w1:.4f} "
        f"<= half of base {base_w1:.4f}; {elapsed:.0f}s < 300s",
    )


# --------------------------------------------------------------------------
# criterion 7: relaxation convergence suite
# --------------------------------------------------------------------------


def test_criterion_7_relaxation_convergence():
    # The step-exact ramp family has a single-signed deviation from the CDF,
    # so its error shrinks monotonically at every probed threshold across the
    # whole ladder.  The plain logistic deviates from its atom-splitting
    # limit with mixed-sign terms, which can cancel accidentally at the
    # heavily smoothed first rung (s=10); monotonicity is asserted once the
    # asymptotic regime starts, together with an overall first-to-last drop.
    rng = np.random.default_rng(31)
    ladder = [10.0, 100.0, 1000.0, 10000.0]
    ramp_monotone = log_monotone = log_overall = converged = True
    for _ in range(20):
        grid = np.arange(0, 50) * 0.02
        d = EmpiricalDistribution.from_samples(rng.choice(grid, size=8, replace=True))
        mids = (d.values[1:] + d.values[:-1]) / 2.0
        probes = np.unique(np.concatenate([d.values, mids]))
        errs = np.array(
            [
                [abs(1.0 - np.sum(d.weights * RelaxationFamily("ramp", s).r(d.values - t)) - d.cdf(t)) for t in probes]
                for s in ladder
            ]
        )
        ramp_monotone &= bool(np.all(errs[1:] <= errs[:-1] + 1e-12))
        converged &= bool(np.all(errs[-1] < 1e-3))
        target = d.cdf(d.values) - 0.5 * d.weights
        errs_log = np.array(
            [
                [
                    abs(1.0 - np.sum(d.weights * RelaxationFamily("logistic", s).r(d.values - t)) - target[j])
                    for j, t in enumerate(d.values)
                ]
                for s in ladder
            ]
        )
        log_monotone &= bool(np.all(errs_log[2:] <= errs_log[1:-1] + 1e-12))
        log_overall &= bool(np.all(errs_log[-1] <= errs_log[0] + 1e-12))
        converged &= bool(np.all(errs_log[-1] < 1e-2))
    ok = ramp_monotone and log_monotone and log_overall and converged
    report(
        7,
        "relaxation convergence",
        ok,
        f"ramp error non-increasing at every probed t across the full ladder: {ramp_monotone}; "
        f"logistic error non-increasing within the asymptotic rungs: {log_monotone}, "
        f"and below its first-rung value at the end: {log_overall}; "
        f"limits reached (ramp -> CDF, logistic -> CDF - atom/2): {converged}",
    )


# --------------------------------------------------------------------------
# criterion 8: end-to-end determinism of the CLI artifacts
# --------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    from fairfront.cli import main

    t0 = time.time()
    data = tmp_path / "data"
    model_dir = tmp_path / "model"
    assert main(["generate", "--model", "m1", "--n", "3000", "--seed", "5", "--split", "0.5", "--out", str(data)]) == 0
    assert (
        main(
            [
                "train-base", "--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                "--rounds", "120", "--min-leaf", "16", "--out", str(model_dir),
            ]
        )
        == 0
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "mitigate", "--method", "tree-pca", "--components", "8",
                "--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                "--base", str(model_dir / "model.json"), "--omegas", "5", "--epochs", "3",
                "--batches", "3", "--batch-size", "256", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    trace_same = (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    frontier_same = (outs[0] / "frontier.csv").read_bytes() == (outs[1] / "frontier.csv").read_bytes()
    elapsed = time.time() - t0
    ok = trace_same and frontier_same
    report(
        8,
        "determinism",
        ok,
        f"repeated mitigate runs byte-identical: trace.csv {trace_same}, frontier.csv {frontier_same}; {elapsed:.0f}s",
    )
