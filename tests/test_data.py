import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfront.data import (
    Dataset,
    _ndtri,
    _standard_normal,
    apply_preprocessor,
    fit_preprocessor,
    generate_m1,
    generate_m2,
    load_csv,
    save_csv,
    split,
)


class TestGenerators:
    def test_m1_group_balance(self):
        ds = generate_m1(20_000, seed=7)
        assert abs(np.mean(ds.g) - 0.5) < 0.02

    def test_m1_conditional_means(self):
        ds = generate_m1(20_000, seed=7)
        x1_g1 = ds.X[ds.g == 1, 0]
        x1_g0 = ds.X[ds.g == 0, 0]
        assert abs(x1_g1.mean() - 5.0) < 0.05
        assert abs(x1_g0.mean() - 4.5) < 0.05

    def test_m1_probabilities_interior(self):
        from fairfront._util import sigmoid

        ds = generate_m1(5000, seed=1)
        p = sigmoid(2 * (ds.X.sum(axis=1) - 24.5))
        assert np.all(p > 0) and np.all(p < 1)

    def test_m2_fourth_feature_mean_above_center(self):
        ds = generate_m2(20_000, seed=3)
        x4_g0 = ds.X[ds.g == 0, 3]
        assert abs(x4_g0.mean() - 5.025) < 0.05

    def test_m2_fourth_feature_variance_shrinks_for_group1(self):
        ds = generate_m2(20_000, seed=3)
        x4_g1 = ds.X[ds.g == 1, 3]
        assert abs(x4_g1.var() - 0.25) < 0.05

    def test_m2_group_balance(self):
        ds = generate_m2(20_000, seed=5)
        assert abs(np.mean(ds.g) - 0.5) < 0.02

    def test_seed_reproducible(self):
        a = generate_m1(500, seed=11)
        b = generate_m1(500, seed=11)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y) and np.array_equal(a.g, b.g)


class TestSplit:
    def test_even_split_counts(self):
        ds = generate_m1(20_000, seed=7)
        train, test = split(ds, 0.5, seed=0)
        assert train.n_records == 10_000 and test.n_records == 10_000

    def test_deterministic_partition(self):
        ds = generate_m1(1000, seed=2)
        a_train, a_test = split(ds, 0.5, seed=4)
        b_train, b_test = split(ds, 0.5, seed=4)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.y, b_test.y)

    def test_partition_is_disjoint_cover(self):
        ds = generate_m1(1000, seed=2)
        train, test = split(ds, 0.3, seed=1)
        assert train.n_records + test.n_records == ds.n_records
        merged = np.sort(np.concatenate([train.X[:, 0], test.X[:, 0]]))
        assert np.array_equal(merged, np.sort(ds.X[:, 0]))


class TestPreprocessing:
    def test_imputation_uses_train_means_only(self):
        X_train = np.array([[1.0, 10.0], [3.0, np.nan], [5.0, 30.0]])
        X_test = np.array([[np.nan, 0.0]])
        train = Dataset(X_train, [0, 1, 0], [0, 1, 0], ["a", "b"])
        test = Dataset(X_test, [1], [1], ["a", "b"])
        prep = fit_preprocessor(train)
        assert prep["impute_means"][1] == pytest.approx(20.0)
        assert prep["had_missing"] == [False, True]
        out = apply_preprocessor(test, prep)
        assert out.X[0, 0] == pytest.approx(3.0)

    def test_no_leakage(self):
        rng = np.random.default_rng(0)
        ds = generate_m1(2000, seed=9)
        train, test = split(ds, 0.5, seed=0)
        prep = fit_preprocessor(train)
        refit = fit_preprocessor(train)
        assert prep == refit  # depends on the train split alone
        assert not np.allclose(fit_preprocessor(test)["impute_means"], prep["impute_means"])


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_m1(300, seed=21)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)
        assert np.array_equal(loaded.g, ds.g)
        save_csv(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_missing_cells_become_nan(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,label,group\n1.0,,0,0\n2.0,3.0,1,1\n")
        ds = load_csv(path)
        assert np.isnan(ds.X[0, 1])
        prep = fit_preprocessor(ds)
        out = apply_preprocessor(ds, prep)
        assert out.X[0, 1] == pytest.approx(3.0)

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,label\n1.0,0\n")
        with pytest.raises(ValueError, match="group"):
            load_csv(path)

    def test_non_binary_label_reported(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,label,group\n1.0,2,0\n")
        with pytest.raises(ValueError, match="non-binary label"):
            load_csv(path)

    def test_non_numeric_cell_reported_with_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,label,group\n1.0,oops,0,0\n")
        with pytest.raises(ValueError, match="row 2, column 'b'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "1e999"])
    def test_non_finite_cell_reported_with_location(self, tmp_path, cell):
        # an empty cell is the only missing-value marker
        path = tmp_path / "m.csv"
        path.write_text(f"a,b,label,group\n1.0,,0,0\n2.0,{cell},1,1\n")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: non-finite cell {cell!r} at row 3, column 'b'"

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_group_reported(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"a,label,group\n1,0,0\n2,1,{cell}\n")
        with pytest.raises(ValueError, match="non-integer group at row 3"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["0.5", "1.9", "-0.5"])
    def test_fractional_group_reported(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"a,label,group\n1,0,0\n2,1,1\n3,0,{cell}\n")
        with pytest.raises(ValueError, match="non-integer group at row 4"):
            load_csv(path)

    def test_whole_group_written_as_a_float_loads(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,label,group\n1,0,2.0\n2,1,2\n3,0,0.0\n")
        assert np.array_equal(load_csv(path).g, [0, 0, 1])

    def test_group_codes_remapped_majority_first(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,label,group\n1,0,7\n2,1,7\n3,0,3\n")
        ds = load_csv(path)
        assert np.array_equal(ds.g, [0, 0, 1])


class TestInverseNormalCdf:
    """The Cephes ``ndtri`` port against scipy's, bit for bit."""

    @staticmethod
    def assert_bitwise(y):
        from scipy.special import ndtri

        y = np.asarray(y, dtype=float)
        assert np.array_equal(_ndtri(y).view(np.int64), ndtri(y).view(np.int64))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=50))
    def test_matches_scipy_on_the_open_interval(self, ys):
        self.assert_bitwise(ys)

    def test_matches_scipy_at_the_branch_edges(self):
        e2 = np.exp(-2.0)
        e32 = np.exp(-32.0)  # where z = sqrt(-2 log y) crosses 8
        pinned = [np.finfo(float).tiny, 1.0 - 1e-16, 0.5]
        for edge in (e2, 1.0 - e2, e32, 1.0 - e32):
            pinned += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        self.assert_bitwise(pinned)
        self.assert_bitwise(e32 * np.linspace(0.999, 1.001, 2001))

    def test_matches_scipy_on_both_tails(self):
        rng = np.random.default_rng(3)
        tail = np.exp(-rng.uniform(0.0, 700.0, 20_000))
        upper = 1.0 - tail[tail > 1e-16]  # 1 - tail rounds to 1, outside the domain, below that
        self.assert_bitwise(np.concatenate([tail, upper, rng.random(20_000)]))

    def test_generated_draws_match_scipy(self):
        from scipy.special import ndtri

        for seed in (1, 2, 3):
            u = np.random.default_rng(seed).random((2000, 5))
            rng = np.random.default_rng(seed)
            got = _standard_normal(rng, (2000, 5))
            want = ndtri(np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16))
            assert np.array_equal(got, want)
