import numpy as np
from hypothesis import given, settings
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
from oracles import embedded_svg_table, frontier_value


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
