import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfront.data import (
    _BLOCK_ROWS,
    Dataset,
    _ndtri,
    _standard_normal,
    apply_preprocessor,
    fit_preprocessor,
    generate_m1,
    generate_m2,
    load_csv,
    save_csv,
    save_csv_parts,
    split,
    split_rows,
)
from oracles import per_cell_csv


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


    def test_parts_are_the_rows_of_split_rows(self):
        # generate writes train.csv and test.csv from these rows
        ds = generate_m2(1000, seed=2)
        rows = split_rows(ds.g, 0.3, seed=1)
        for part, part_rows in zip(split(ds, 0.3, seed=1), rows):
            assert np.array_equal(part.X, ds.X[part_rows]) and np.array_equal(part.g, ds.g[part_rows])
        assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(ds.n_records))

    def test_a_part_without_a_group_raises(self):
        with pytest.raises(ValueError, match="a split lost an entire group"):
            split_rows(np.array([0, 0, 0, 1]), 0.5, seed=0)


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

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
    def test_block_writer_bytes_equal_per_cell_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-320, 300, size=(n, 4))
        special = [np.nan, -0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, -np.nan, 0.1]
        X.flat[: min(X.size, len(special))] = special[: X.size]
        X[rng.random((n, 4)) < 0.1] = np.nan
        ds = Dataset(X, rng.integers(0, 2, n), rng.integers(0, 4, n) * 128, ["a", 'b,"q"', "c d", "é"])
        save_csv(ds, tmp_path / "blocks.csv", group_column="g,roup")
        per_cell_csv(ds, tmp_path / "cells.csv", group_column="g,roup")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
        if np.unique(ds.g).size > 1:  # a file with one group does not load
            loaded = load_csv(tmp_path / "blocks.csv", group_column="g,roup")
            assert np.array_equal(loaded.X, X, equal_nan=True) and np.array_equal(loaded.y, ds.y)

    def test_parts_equal_per_cell_writer_of_their_rows(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        X = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, size=(n, 3))
        X[rng.random((n, 3)) < 0.2] = np.nan
        ds = Dataset(X, rng.integers(0, 2, n), rng.integers(0, 3, n), ["a", 'b,"q"', "c"])
        rows = rng.permutation(n)[:-40]
        save_csv_parts(ds, {tmp_path / "all.csv": None, tmp_path / "part.csv": rows})
        per_cell_csv(ds, tmp_path / "all_cells.csv")
        per_cell_csv(Dataset(X[rows], ds.y[rows], ds.g[rows], ds.feature_names), tmp_path / "part_cells.csv")
        for name in ("all", "part"):
            written = (tmp_path / f"{name}.csv").read_bytes()
            assert written == (tmp_path / f"{name}_cells.csv").read_bytes(), name
            assert b",," in written and b"nan" not in written  # a missing cell is empty
        loaded = load_csv(tmp_path / "part.csv")
        assert np.array_equal(loaded.X, X[rows], equal_nan=True)

    @pytest.mark.parametrize("label, error", [(np.nan, ValueError), (np.inf, OverflowError)])
    def test_non_finite_label_raises_on_save(self, tmp_path, label, error):
        ds = Dataset(np.zeros((3, 1)), [0.0, label, 1.0], [0, 1, 0], ["a"])
        with pytest.raises(error):
            save_csv(ds, tmp_path / "bad.csv")

    # two faults in one file: the first in row order is reported (in a row:
    # its length, the feature cells left to right, the label, the group)
    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param("a,b,label,group\n1,oops,0,0\nbad,2,1,1\n",
                         "non-numeric cell 'oops' at row 2, column 'b'", id="later-column-earlier-row"),
            pytest.param("a,b,label,group\n1,oops,0,0\n1,1\n",
                         "non-numeric cell 'oops' at row 2, column 'b'", id="short-row-after-bad-cell"),
            pytest.param("a,b,label,group\n1,1,0,0\n1,1\n1,oops,0,1\n",
                         "row 3 has 2 cells, expected 4", id="bad-cell-after-short-row"),
            pytest.param("a,label,group\n1,0,0\n1,x,0.5\n", "non-numeric label at row 3", id="label-and-group"),
            pytest.param("a,label,group\n1,0,0\n1,2,y\n", "non-binary label '2' at row 3",
                         id="non-binary-label-and-group"),
            pytest.param("a,b,label,group\n1,,0,0\n2,oops,1,1\n",
                         "non-numeric cell 'oops' at row 3, column 'b'", id="empty-then-bad-cell"),
            pytest.param("a,b,label,group\n1, oops ,0,0\n2,,1,1\n",
                         "non-numeric cell 'oops' at row 2, column 'b'", id="bad-cell-then-empty"),
            pytest.param("a,b,label,group\n1,2,7,0\n3,oops,1,1\n", "non-binary label '7' at row 2",
                         id="label-before-later-cell"),
            pytest.param("a,label,group\n1,0,1e999\n2,x,1\n", "non-integer group at row 2",
                         id="group-before-later-label"),
        ],
    )
    def test_first_fault_in_row_order_is_reported(self, tmp_path, text, error):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {error}"

    # rows are read a block at a time: faults on either side of a block's edge
    @pytest.mark.parametrize(
        "faults, error",
        [
            ({_BLOCK_ROWS - 1: "1,1,2,0", _BLOCK_ROWS: "oops,1,0,0"},
             f"non-binary label '2' at row {_BLOCK_ROWS + 1}"),
            ({_BLOCK_ROWS: "1,oops,0,0", _BLOCK_ROWS + 1: "1,1"},
             f"non-numeric cell 'oops' at row {_BLOCK_ROWS + 2}, column 'b'"),
            ({2 * _BLOCK_ROWS + 5: "1,1,0", 3 * _BLOCK_ROWS: "1,,0,x"},
             f"row {2 * _BLOCK_ROWS + 7} has 3 cells, expected 4"),
            ({3 * _BLOCK_ROWS - 1: "1,nan,0,0"}, f"non-finite cell 'nan' at row {3 * _BLOCK_ROWS + 1}, column 'b'"),
        ],
    )
    def test_fault_beyond_the_first_block_reported_with_its_row(self, tmp_path, faults, error):
        rows = [faults.get(r, f"{r},,{r % 2},{r % 3}") for r in range(3 * _BLOCK_ROWS + 10)]
        path = tmp_path / "m.csv"
        path.write_text("a,b,label,group\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {error}"

    @pytest.mark.parametrize("cell", ["9223372036854774784", "-9223372036854775808"])
    def test_group_at_the_int64_ends_loads(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"a,label,group\n1,0,0\n2,1,{cell}\n3,0,0\n")
        assert np.array_equal(load_csv(path).g, [0, 1, 0])

    @pytest.mark.parametrize("cell", ["9223372036854775807", "9223372036854775808", "-1e19"])
    def test_group_beyond_int64_reported(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"a,label,group\n1,0,0\n2,1,{cell}\n")
        with pytest.raises(ValueError, match="non-integer group at row 3"):
            load_csv(path)

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
