from dataclasses import replace

import numpy as np
import pytest

from fairfront._util import sigmoid
from fairfront.distributions import SQUARE
from fairfront.estimators import BiasEstimatorSpec, EstimatorBatch
from fairfront.linear_family import LinearFamily
from fairfront.optimizer import (
    SweepConfig,
    default_omegas,
    distill_loss,
    loss_bias_ratio_scale,
    penalized_objective,
    sgd_sweep,
)
from fairfront.relaxation import RelaxationFamily
from oracles import GENERAL_GBDT

SPEC = BiasEstimatorSpec("threshold-discrete-trapezoid", RelaxationFamily("logistic", 20.0), SQUARE, 33, unbiased=False)


def biased_problem(rng, n=600):
    """Group 0 scores shifted up by 0.8, with a noisy proxy encoder column
    that can undo most of the gap."""
    g = rng.integers(0, 2, n)
    base = rng.normal(0.0, 1.0, n) + 0.8 * (1 - g)
    y = (rng.random(n) < sigmoid(base)).astype(float)
    proxy = (1 - g) + rng.normal(0, 0.15, n)
    cols = np.column_stack([np.ones(n), rng.normal(size=n), proxy])
    fam = LinearFamily(base, cols)
    return fam, y, g


class TestDistillLoss:
    def test_zero_at_equality(self):
        assert distill_loss(0.3, 0.3) == 0.0

    def test_hand_value(self):
        assert distill_loss(1.0, 0.5) == pytest.approx(np.log(2), abs=1e-5)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert distill_loss(rng.random(), rng.random()) >= 0.0

    def test_batch_losses_are_the_shared_formulas(self):
        from fairfront._util import cross_entropy
        from fairfront.optimizer import _loss_and_grad

        rng = np.random.default_rng(3)
        fam, y, _ = biased_problem(rng, n=300)
        rows = rng.permutation(fam.n_records)[:128]
        # large theta drives some student probabilities into both clips
        for scale in (0.0, 0.3, 40.0):
            theta = rng.normal(0, scale, fam.n_params)
            p = sigmoid(fam.base_scores[rows] - fam.encoder_matrix[rows] @ theta)
            teacher = sigmoid(fam.base_scores[rows])
            assert _loss_and_grad(fam, theta, rows, y, "distill")[0] == distill_loss(p, teacher)
            assert _loss_and_grad(fam, theta, rows, y, "cross-entropy")[0] == cross_entropy(p, y[rows])


class TestPenalizedObjective:
    def test_theta_zero_decomposes(self):
        rng = np.random.default_rng(1)
        fam, y, g = biased_problem(rng)
        batch = EstimatorBatch.full(g)
        perf = np.arange(fam.n_records)
        omega = 0.4
        value, _ = penalized_objective(fam, SPEC, fam.zero_theta(), omega, perf, batch, labels=y, objective="penalized")
        from fairfront.estimators import bias_value_and_grad
        from fairfront._util import cross_entropy

        loss0 = cross_entropy(fam.scores(fam.zero_theta()), y)
        bias0, _ = bias_value_and_grad(SPEC, fam, fam.zero_theta(), batch)
        assert value == pytest.approx((1 - omega) * loss0 + omega * bias0, abs=1e-12)

    def test_calibration_symmetry_at_origin(self):
        # constant-only family, balanced labels, zero base: gradient vanishes
        n = 400
        fam = LinearFamily(np.zeros(n), np.ones((n, 1)))
        y = np.tile([0.0, 1.0], n // 2)
        perf = np.arange(n)
        batch = EstimatorBatch(np.arange(n // 2), np.arange(n // 2, n), np.arange(n))
        value, grad = penalized_objective(fam, SPEC, [0.0], 0.0, perf, batch, labels=y)
        assert abs(grad[0]) < 1e-12

    @pytest.mark.parametrize(
        "perf, message",
        [
            ([0, 1.5], "perf_batch: row index 1.5 is not an integer"),
            ([3, -1], "perf_batch: negative row index -1"),
            ([0, 8], "perf_batch: row index 8 is out of range for 8 records"),
        ],
        ids=["fraction", "negative", "past-the-end"],
    )
    def test_bad_performance_rows_rejected(self, perf, message):
        fam = LinearFamily(np.zeros(8), np.ones((8, 1)))
        batch = EstimatorBatch(np.arange(4), np.arange(4, 8))
        with pytest.raises(ValueError) as info:
            penalized_objective(fam, SPEC, [0.0], 0.5, perf, batch, labels=np.zeros(8))
        assert str(info.value) == message

    @pytest.mark.parametrize("raw", [40.0, -40.0])
    def test_saturated_rows_keep_the_loss_gradient(self, raw):
        # at raw = 40 the probability rounds to 1, so p (1 - p) is 0 (at -40 it
        # is 4e-18); the cross-entropy cotangent p - y is pulled back in logit
        # space and never divided by it
        rng = np.random.default_rng(4)
        n = 64
        W = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        fam = LinearFamily(np.full(n, raw), W)
        y = np.tile([0.0, 1.0], n // 2)
        theta = np.zeros(3)
        p = sigmoid(np.full(n, raw))
        assert np.all(p * (1 - p) == 0.0) == (raw > 0)
        rows = np.arange(n)
        batch = EstimatorBatch(rows[: n // 2], rows[n // 2 :])
        for omega in (0.0, 0.5):
            _, grad = penalized_objective(fam, SPEC, theta, omega, rows, batch, labels=y, objective="penalized")
            assert np.all(np.isfinite(grad))
            assert np.array_equal(grad, (1 - omega) * (((p - y) @ (-W)) / n))

    @pytest.mark.parametrize("loss", ["cross-entropy", "distill"])
    @pytest.mark.parametrize("objective", ["penalized", "lagrangian"])
    def test_gradient_matches_finite_difference(self, loss, objective):
        rng = np.random.default_rng(2)
        fam, y, g = biased_problem(rng, n=240)
        rows = rng.permutation(fam.n_records)
        perf = rows[:80]
        batch = EstimatorBatch(rows[80:160], rows[160:200], rows[200:])
        omega = 0.35
        for _ in range(20):
            theta = rng.normal(0, 0.3, fam.n_params)

            def value_at(t):
                return penalized_objective(
                    fam, SPEC, t, omega, perf, batch, labels=y, objective=objective, loss=loss
                )[0]

            _, grad = penalized_objective(
                fam, SPEC, theta, omega, perf, batch, labels=y, objective=objective, loss=loss
            )
            step = 1e-5
            fd = np.zeros_like(theta)
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = step
                fd[j] = (value_at(theta + e) - value_at(theta - e)) / (2 * step)
            err = np.linalg.norm(grad - fd)
            assert err <= 1e-5 * max(np.linalg.norm(fd), 1e-10)


class TestSweepConfig:
    def test_default_ladder(self):
        omegas = default_omegas()
        assert omegas.size == 21
        assert omegas[0] == 0.0 and omegas[-1] == pytest.approx(1.0)

    def test_ratio_scale_positive(self):
        rng = np.random.default_rng(3)
        fam, y, g = biased_problem(rng)
        c = loss_bias_ratio_scale(fam, SPEC, y, g)
        assert c > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(omegas=[0.5, 0.2])
        with pytest.raises(ValueError):
            SweepConfig(objective="hinge")

    @pytest.mark.parametrize("omegas", [[], default_omegas(1.0, 0), default_omegas(1.0, -2)])
    def test_empty_ladder_rejected(self, omegas):
        with pytest.raises(ValueError, match="at least one weight"):
            SweepConfig(omegas=omegas)

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"learning_rate": np.nan}, "learning rate must be finite, got nan"),
            ({"learning_rate": np.inf}, "learning rate must be finite, got inf"),
            ({"omegas": [0.0, np.nan]}, "omegas must be finite"),
            ({"omegas": [0.0, np.inf]}, "omegas must be finite"),
            ({"theta_box": np.nan}, "theta box half-width must be nonnegative, got nan"),
            ({"theta_box": -1.0}, "theta box half-width must be nonnegative, got -1.0"),
            ({"n_epochs": -1}, "n_epochs must be nonnegative, got -1"),
            ({"n_batches": 0}, "n_batches must be at least 1, got 0"),
            ({"n_batches": -3}, "n_batches must be at least 1, got -3"),
            ({"learning_rate": 0.0}, "learning rate must be positive, got 0.0"),
            ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
        ],
    )
    def test_non_finite_settings_rejected(self, setting, match):
        with pytest.raises(ValueError, match=match):
            SweepConfig(**setting)

    def test_unbounded_box_accepted(self):
        assert SweepConfig(theta_box=np.inf).theta_box == np.inf


class TestSweep:
    def config(self, **kw):
        defaults = dict(
            omegas=np.array([0.0, 0.5, 1.0]),
            n_epochs=4,
            n_batches=4,
            batch_size=128,
            objective="penalized",
            seed=0,
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_loss_descends_at_omega_zero(self):
        from fairfront._util import cross_entropy

        deltas = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            fam, y, g = biased_problem(rng)
            cfg = self.config(omegas=np.array([0.0]), seed=seed)
            candidates, trace = sgd_sweep(fam, SPEC, cfg, y, g)
            start = cross_entropy(fam.scores(fam.zero_theta()), y)
            end = cross_entropy(fam.scores(candidates[0][1]), y)
            deltas.append(end - start)
        assert np.mean(deltas) <= 1e-6

    def test_largest_omega_halves_exact_bias(self):
        from fairfront.bias_metrics import GroupedScores
        from fairfront.distributions import wasserstein1

        rng = np.random.default_rng(42)
        fam, y, g = biased_problem(rng, n=1200)
        cfg = self.config(learning_rate=0.5, n_epochs=12, n_batches=8, batch_size=256)
        candidates, _ = sgd_sweep(fam, SPEC, cfg, y, g)

        def w1_of(theta):
            gs = GroupedScores.from_labels(fam.scores(theta), g)
            return wasserstein1(gs.distribution(0), gs.distribution(1))

        assert w1_of(candidates[-1][1]) <= 0.5 * w1_of(fam.zero_theta())

    def test_zero_epochs_returns_origin_only(self):
        rng = np.random.default_rng(4)
        fam, y, g = biased_problem(rng)
        cfg = self.config(n_epochs=0)
        candidates, trace = sgd_sweep(fam, SPEC, cfg, y, g)
        assert len(trace.rows) == 0
        assert all(np.array_equal(theta, fam.zero_theta()) for _, theta in candidates)

    def test_projection_respects_box(self):
        rng = np.random.default_rng(5)
        fam, y, g = biased_problem(rng)
        cfg = self.config(theta_box=0.01)
        _, trace = sgd_sweep(fam, SPEC, cfg, y, g)
        for row in trace.rows:
            assert np.all(row.theta >= -0.01 - 1e-15) and np.all(row.theta <= 0.01 + 1e-15)
        assert any(np.abs(row.theta).max() == 0.01 for row in trace.rows)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(6)
        fam, y, g = biased_problem(rng)
        cfg = self.config(seed=9)
        c1, t1 = sgd_sweep(fam, SPEC, cfg, y, g)
        c2, t2 = sgd_sweep(fam, SPEC, cfg, y, g)
        assert len(t1.rows) == len(t2.rows)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert np.array_equal(r1.theta, r2.theta)
            assert r1.train_loss == r2.train_loss and r1.train_bias == r2.train_bias

    def test_precompute_once_contract(self):
        # the family is built from cached arrays exactly once; the sweep
        # never re-invokes the base model or encoder construction
        rng = np.random.default_rng(8)
        calls = {"base": 0, "encoders": 0}

        def base_model(X):
            calls["base"] += 1
            return X @ np.array([0.5, -0.2])

        def build_encoders(X):
            calls["encoders"] += 1
            return np.column_stack([np.ones(X.shape[0]), X])

        X = rng.normal(size=(500, 2))
        g = rng.integers(0, 2, 500)
        y = (rng.random(500) < 0.5).astype(float)
        fam = LinearFamily(base_model(X), build_encoders(X))
        sgd_sweep(fam, SPEC, self.config(), y, g)
        assert calls == {"base": 1, "encoders": 1}

    def test_missing_group_rejected(self):
        rng = np.random.default_rng(9)
        fam, y, _ = biased_problem(rng)
        with pytest.raises(ValueError):
            sgd_sweep(fam, SPEC, self.config(), y, np.zeros(fam.n_records, dtype=int))

    def test_monotone_penalization_tendency(self):
        # statistical, not per-run: averaged over seeds, the exact train bias
        # of the per-omega winners drifts down the sweep, allowing wiggles of
        # at most 10% of the base bias
        from fairfront.bias_metrics import GroupedScores
        from fairfront.data import generate_m1, split
        from fairfront.distributions import wasserstein1
        from fairfront.encoders import tree_pca_encoders
        from fairfront.gbdt import train
        from fairfront.optimizer import default_omegas, loss_bias_ratio_scale

        curves = []
        base_biases = []
        for seed in range(5):
            data = generate_m1(4000, seed=100 + seed)
            train_ds, _ = split(data, 0.5, seed=seed)
            model = train(
                train_ds.X,
                train_ds.y,
                params=replace(GENERAL_GBDT, depth=2, rounds=200, learning_rate=0.08, min_leaf=16.0),
            )
            enc = tree_pca_encoders(model, train_ds.X, r=12)
            fam = enc.family(model, train_ds.X)
            scale = 1.5 * loss_bias_ratio_scale(fam, SPEC, train_ds.y, train_ds.g)
            cfg = SweepConfig(
                omegas=default_omegas(scale, 9),
                n_epochs=8,
                n_batches=5,
                batch_size=512,
                objective="lagrangian",
                seed=seed,
            )
            candidates, _ = sgd_sweep(fam, SPEC, cfg, train_ds.y, train_ds.g)

            def w1_of(theta):
                gs = GroupedScores.from_labels(fam.scores(theta), train_ds.g)
                return wasserstein1(gs.distribution(0), gs.distribution(1))

            curves.append([w1_of(theta) for _, theta in candidates])
            base_biases.append(w1_of(fam.zero_theta()))
        mean_curve = np.mean(curves, axis=0)
        slack = 0.10 * np.mean(base_biases)
        assert np.all(np.diff(mean_curve) <= slack)
        assert mean_curve[-1] < mean_curve[0]

    def test_trace_csv_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(10)
        fam, y, g = biased_problem(rng, n=300)
        cfg = self.config(n_epochs=2, n_batches=2)
        _, trace = sgd_sweep(fam, SPEC, cfg, y, g)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(a)
        trace.to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header.startswith("omega,epoch,theta_0")


class TestSelectionRules:
    """The sweep's two picks, under both objective forms.  Each omega's
    candidate is the first of its trace rows with the lowest
    ``w_L train_loss + omega train_bias``; each omega's first step starts
    from the row of the previous omega that is lowest under the new omega
    (theta = 0 before the first); with no epochs every candidate is its
    omega's warm start.  A learning rate of 2 makes SGD overshoot, so some
    winners are not an omega's last row and some warm starts are not the
    previous omega's candidate."""

    FORMS = [("penalized", [0.0, 0.3, 0.6, 0.9]), ("lagrangian", [0.0, 1.0, 3.0, 6.0])]
    EPOCHS = 5

    @staticmethod
    def lowest(rows, objective, omega):
        weight = 1.0 - omega if objective == "penalized" else 1.0
        values = [weight * row.train_loss + omega * row.train_bias for row in rows]
        return rows[values.index(min(values))]

    def sweep(self, monkeypatch, objective, omegas, n_epochs):
        from fairfront import optimizer

        fam, y, g = biased_problem(np.random.default_rng(11))
        starts = {}
        step = optimizer.penalized_objective

        def recording(family, spec, theta, omega, *args, **kwargs):
            starts.setdefault(float(omega), np.array(theta))
            return step(family, spec, theta, omega, *args, **kwargs)

        monkeypatch.setattr(optimizer, "penalized_objective", recording)
        cfg = SweepConfig(omegas=omegas, n_epochs=n_epochs, n_batches=2, batch_size=64, learning_rate=2.0,
                          objective=objective, seed=3)
        candidates, trace = sgd_sweep(fam, SPEC, cfg, y, g)
        return fam, candidates, trace, starts

    @pytest.mark.parametrize("objective, omegas", FORMS)
    def test_winner_and_warm_start(self, monkeypatch, objective, omegas):
        fam, candidates, trace, starts = self.sweep(monkeypatch, objective, omegas, self.EPOCHS)
        assert [omega for omega, _ in candidates] == omegas
        assert len(trace.rows) == len(omegas) * self.EPOCHS
        previous, not_last, not_previous_winner = None, 0, 0
        for k, (omega, theta) in enumerate(candidates):
            rows = trace.rows[k * self.EPOCHS : (k + 1) * self.EPOCHS]
            assert all(row.omega == omega for row in rows)
            winner = self.lowest(rows, objective, omega)
            assert np.array_equal(theta, winner.theta)
            not_last += winner is not rows[-1]
            if previous is None:
                assert np.array_equal(starts[omega], fam.zero_theta())
            else:
                start = self.lowest(previous, objective, omega)
                assert np.array_equal(starts[omega], start.theta)
                not_previous_winner += start is not self.lowest(previous, objective, candidates[k - 1][0])
            previous = rows
        assert not_last and not_previous_winner

    @pytest.mark.parametrize("objective, omegas", FORMS)
    def test_no_epochs_keeps_every_warm_start(self, monkeypatch, objective, omegas):
        fam, candidates, trace, starts = self.sweep(monkeypatch, objective, omegas, 0)
        assert trace.rows == [] and starts == {}
        assert [omega for omega, _ in candidates] == omegas
        assert all(np.array_equal(theta, fam.zero_theta()) for _, theta in candidates)
