import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairfront.frontier import (
    FrontierPoint,
    _midranks,
    evaluate,
    pareto_filter,
    rank_auc,
    read_frontier_csv,
    score_metrics,
    write_frontier_csv,
    write_frontier_svg,
)
from fairfront.linear_family import LinearFamily
from oracles import embedded_svg_table, frontier_value, reference_score_metrics


def point(bias, loss, method="m", omega=0.0):
    return FrontierPoint(method, omega, "test", ce=loss, auc=0.5, w1_bias=bias, ks_bias=bias, inv_bias=bias)


def toy_family(rng, n=200):
    base = rng.normal(size=n)
    cols = np.column_stack([np.ones(n), rng.normal(size=n)])
    return LinearFamily(base, cols)


class TestEvaluate:
    def test_zero_theta_reproduces_base_metrics(self):
        rng = np.random.default_rng(0)
        fam = toy_family(rng)
        y = (rng.random(fam.n_records) < fam.scores(fam.zero_theta())).astype(float)
        g = rng.integers(0, 2, fam.n_records)
        pts = evaluate([(0.0, fam.zero_theta(), fam.scores(fam.zero_theta()))], y, g, "train", "base")
        base = score_metrics(fam.scores(fam.zero_theta()), y, g)
        for k, v in base.items():
            assert getattr(pts[0], k) == v

    def test_perfect_ranking_auc(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert rank_auc(scores, labels) == 1.0

    def test_auc_midrank_ties(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert rank_auc(scores, labels) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, np.inf]) | st.floats(allow_nan=False),
            max_size=60,
        )
    )
    def test_midranks_are_scipy_average_ranks(self, values):
        from scipy.stats import rankdata

        assert np.array_equal(_midranks(values), rankdata(values, method="average"))

    def test_midranks_propagate_nan_like_scipy(self):
        from scipy.stats import rankdata

        values = [0.3, np.nan, 0.1]
        assert np.array_equal(_midranks(values), rankdata(values, method="average"), equal_nan=True)

    def test_identical_groups_zero_bias(self):
        rng = np.random.default_rng(1)
        probs = np.tile(rng.uniform(0.1, 0.9, 50), 2)
        groups = np.repeat([0, 1], 50)
        labels = (rng.random(100) < 0.5).astype(float)
        m = score_metrics(probs, labels, groups)
        assert m["w1_bias"] == 0.0
        assert m["ks_bias"] == 0.0
        assert m["inv_bias"] == 0.0

    @staticmethod
    def crowded_scores():
        # a saturated candidate: every probability lies within MERGE_TOL of
        # the next, so the pool and each group merge them onto different
        # smallest members
        rng = np.random.default_rng(11)
        probs = 10.0 ** rng.uniform(-150, -84, 400)
        groups = rng.integers(0, 2, 400)
        labels = (rng.random(400) < 0.5).astype(float)
        return probs, labels, groups

    def test_scores_crowded_below_the_merge_tolerance(self):
        # the invariant bias reads them all as one atom
        m = score_metrics(*self.crowded_scores())
        assert m["inv_bias"] == 0.0
        assert m["w1_bias"] < 1e-84

    def test_ks_reads_crowded_scores_on_the_pooled_atoms(self):
        # each group's own merge keeps a different smallest member, which
        # read 1.0 here; on the pooled atoms both groups are the same atom
        m = score_metrics(*self.crowded_scores())
        assert m["inv_bias"] == 0.0
        assert m["ks_bias"] == 0.0


def metric_inputs(kind, seed, n, share):
    """``(probs, labels, groups)`` of ``n`` records of one kind, both classes
    and both groups present, about ``share`` of them in group 1."""
    rng = np.random.default_rng(seed)
    if kind == "crowded":
        return TestEvaluate.crowded_scores()
    if kind == "grid":
        probs = rng.integers(0, 6, n) / 5.0  # ties within and across groups
    elif kind == "equal":
        probs = np.full(n, rng.uniform())
    elif kind == "signed-zero":
        probs = rng.choice([0.0, -0.0, 0.25, 1.0], n)
    elif kind == "near-ties":
        # runs within MERGE_TOL of 0.3 among exact ties, so some scores snap
        probs = np.where(rng.random(n) < 0.5, 0.3 + rng.integers(0, 4, n) * 7e-13, rng.integers(0, 4, n) / 3.0)
    else:
        probs = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, n)))
    groups = (rng.random(n) < share).astype(int)
    groups[0], groups[-1] = 0, 1
    labels = (rng.random(n) < 0.5).astype(float)
    labels[0], labels[-1] = rng.permutation([0.0, 1.0])
    return probs, labels, groups


class TestOneSortMetrics:
    """``score_metrics`` reads every metric from one sort; the reference
    composes them one metric at a time, each from its own sorts."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["grid", "crowded", "equal", "signed-zero", "near-ties", "logistic"]),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 17, 300]),
        share=st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]),
    )
    @example(kind="signed-zero", seed=0, n=300, share=0.5)
    @example(kind="equal", seed=1, n=17, share=0.5)
    @example(kind="grid", seed=2, n=300, share=0.0)  # one record in group 1
    @example(kind="logistic", seed=3, n=300, share=1.0)  # one record in group 0
    @example(kind="near-ties", seed=4, n=300, share=0.02)
    @example(kind="crowded", seed=0, n=2, share=0.5)
    def test_equals_the_metric_by_metric_reference(self, kind, seed, n, share):
        probs, labels, groups = metric_inputs(kind, seed, n, share)
        got, want = score_metrics(probs, labels, groups), reference_score_metrics(probs, labels, groups)
        assert got == want
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("inf", "non-finite atom or weight"),
            ("-inf", "non-finite atom or weight"),
            ("one-class", "AUC needs both classes"),
            ("three-groups", "metric defined for two groups, got 3"),
            ("inf-and-one-class", "non-finite atom or weight"),
            ("one-class-and-three-groups", "AUC needs both classes"),
        ],
    )
    def test_rejections_keep_their_messages(self, fault, message):
        probs, labels, groups = metric_inputs("logistic", 5, 40, 0.5)
        if "inf" in fault:
            probs[7] = float(fault.split("-and")[0])
        if "one-class" in fault:
            labels[:] = 1.0
        if "three-groups" in fault:
            groups[3] = 2
        for metrics in (reference_score_metrics, score_metrics):
            with pytest.raises(ValueError, match=f"^{message}$"):
                metrics(probs, labels, groups)

    def test_nan_scores_are_rejected_before_the_sort(self):
        # the reference's merge folds a NaN into the top atom and returns a
        # NaN AUC, which FrontierPoint rejects only afterwards
        probs, labels, groups = metric_inputs("logistic", 5, 40, 0.5)
        probs[7] = np.nan
        assert np.isnan(reference_score_metrics(probs, labels, groups)["auc"])
        with pytest.raises(ValueError, match="^non-finite atom or weight$"):
            score_metrics(probs, labels, groups)


class TestParetoFilter:
    def test_domination(self):
        kept = pareto_filter([point(1, 1), point(2, 2)])
        assert len(kept) == 1 and kept[0].w1_bias == 1

    def test_incomparable_points_kept(self):
        kept = pareto_filter([point(1, 2), point(2, 1)])
        assert len(kept) == 2

    def test_duplicates_collapse(self):
        kept = pareto_filter([point(1, 1), point(1, 1), point(1, 1)])
        assert len(kept) == 1

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        pts = [point(b, l) for b, l in rng.random((40, 2))]
        once = pareto_filter(pts)
        twice = pareto_filter(once)
        assert [(p.w1_bias, p.ce) for p in once] == [(p.w1_bias, p.ce) for p in twice]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False, width=32),
                st.floats(0, 1, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_exactly_the_nondominated_subset(self, coords):
        pts = [point(b, l) for b, l in coords]
        kept = pareto_filter(pts)
        kept_coords = {(p.w1_bias, p.ce) for p in kept}
        # every kept point is non-dominated (brute force over the input)
        for b, l in kept_coords:
            for ob, ol in coords:
                if (ob, ol) == (b, l):
                    continue
                assert not (ob <= b and ol <= l and (ob < b or ol < l))
        # every excluded coordinate is weakly covered by some kept point
        for b, l in coords:
            if (b, l) in kept_coords:
                continue
            assert any(kb <= b and kl <= l for kb, kl in kept_coords)

    def test_monotone_staircase(self):
        rng = np.random.default_rng(3)
        pts = [point(b, l) for b, l in rng.random((60, 2))]
        kept = pareto_filter(pts)
        biases = [p.w1_bias for p in kept]
        losses = [p.ce for p in kept]
        assert biases == sorted(biases)
        assert all(l2 <= l1 for l1, l2 in zip(losses, losses[1:]))

    def test_frontier_value_interpolation(self):
        pts = [point(0.1, 2.0), point(0.5, 1.0)]
        assert frontier_value(pts, "w1_bias", "ce", 0.3) == 2.0
        assert frontier_value(pts, "w1_bias", "ce", 0.6) == 1.0
        assert frontier_value(pts, "w1_bias", "ce", 0.05) == np.inf


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        pts = [
            FrontierPoint("tree-pca", 0.25, "test", 0.5, 0.7, 0.1, 0.2, 0.15, theta=np.array([0.1, -2.0])),
            FrontierPoint("additive", 0.5, "train", 0.4, 0.8, 0.05, 0.1, 0.02, theta=np.array([0.0, 1.0])),
        ]
        path = tmp_path / "frontier.csv"
        write_frontier_csv(pts, path)
        loaded = read_frontier_csv(path)
        assert loaded[0].method == "tree-pca"
        assert loaded[0].omega == 0.25
        assert loaded[1].ce == 0.4
        assert np.array_equal(loaded[0].theta, pts[0].theta)

    def test_csv_bytes_deterministic(self, tmp_path):
        pts = [point(0.123456789123, 1 / 3)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_frontier_csv(pts, a)
        write_frontier_csv(pts, b)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_embeds_the_data_table(self, tmp_path):
        pts = [point(0.1, 0.5, method="a"), point(0.2, 0.4, method="b")]
        path = tmp_path / "frontier.svg"
        write_frontier_svg(pts, path)
        table = embedded_svg_table(path)
        assert "a,0.0,test,0.5,0.5,0.1" in table
        assert table.count("\n") == 2  # header + one line per point
