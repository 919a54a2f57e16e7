import numpy as np
import pytest
from hypothesis import given, strategies as st

from dckm.core import HyperParams, SampleWeights, _distinct_rows, one_hot_rows, validate_data

from util import validate_data_oracle


class TestValidateData:
    def test_clean_binary_matrix_ok(self):
        report = validate_data([[1, 0], [0, 1]])
        assert report.ok
        assert report.errors == []
        assert report.warnings == []
        assert report.constant_columns == []

    def test_non_binary_entry_is_fatal(self):
        report = validate_data([[1, 0.5], [0, 1]])
        assert not report.ok
        assert any("(0, 1)" in msg for msg in report.errors)

    def test_bad_entry_printed_as_python_float(self):
        report = validate_data(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert report.errors == ["entry (0, 1) non-binary: 2.0"]

    def test_constant_column_is_warning_only(self):
        report = validate_data([[1, 1], [0, 1]])
        assert report.ok
        assert report.constant_columns == [1]
        assert any("column 1" in msg for msg in report.warnings)

    def test_nan_is_fatal(self):
        report = validate_data([[1, np.nan], [0, 1]])
        assert not report.ok
        assert any("non-finite" in msg for msg in report.errors)

    def test_too_small_matrix_raises(self):
        with pytest.raises(ValueError):
            validate_data([[1.0, 0.0]])
        with pytest.raises(ValueError):
            validate_data(np.ones((3, 1)))
        with pytest.raises(ValueError):
            validate_data(np.ones(4))

    def test_idempotent_and_side_effect_free(self):
        X = np.array([[1.0, 0.5], [0.0, 1.0]])
        before = X.copy()
        first = validate_data(X)
        second = validate_data(X)
        assert np.array_equal(X, before)
        assert first == second

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (40, 5), (2000, 100)])
    def test_matches_per_column_reference(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        for trial in range(10):
            X = rng.integers(0, 2, size=shape).astype(np.float64)
            X[:, rng.random(shape[1]) < 0.3] = rng.integers(0, 2)  # constant columns
            for bad in (np.nan, np.inf, -np.inf, 0.5, 2.0, -0.0)[: trial % 7]:
                X[rng.integers(shape[0]), rng.integers(shape[1])] = bad
            assert validate_data(X) == validate_data_oracle(X)

    def test_nan_column_is_not_constant(self):
        X = np.array([[np.nan, 1.0, 0.0], [np.nan, 1.0, 1.0]])
        report = validate_data(X)
        assert report == validate_data_oracle(X)
        assert report.constant_columns == [1]


class TestDistinctRows:
    @pytest.mark.parametrize("d", [3, 19])
    def test_first_occurrence_order_and_counts(self, d):
        rng = np.random.default_rng(d)
        X = rng.integers(0, 2, size=(12, d))[rng.integers(0, 12, 300)].astype(np.float64)
        first = {}
        for i, row in enumerate(map(tuple, X)):
            first.setdefault(row, i)
        rows = sorted(first, key=first.get)
        U, inverse, counts = _distinct_rows(X)
        assert np.array_equal(U, np.array(rows))
        assert np.array_equal(inverse, [rows.index(tuple(row)) for row in X])
        assert counts.dtype == np.float64
        assert np.array_equal(counts, np.bincount(inverse))


class TestOneHotRows:
    def test_basic(self):
        G = one_hot_rows([0, 1, 0], 2)
        assert np.array_equal(G, [[1, 0], [0, 1], [1, 0]])

    def test_single_row(self):
        assert np.array_equal(one_hot_rows([2], 3), [[0, 0, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            one_hot_rows([0, 3], 3)
        with pytest.raises(ValueError, match="out of range"):
            one_hot_rows([-1], 2)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            one_hot_rows([0.5], 2)

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
        st.integers(min_value=5, max_value=8),
    )
    def test_rows_sum_to_one(self, labels, k):
        G = one_hot_rows(labels, k)
        assert np.array_equal(G.sum(axis=1), np.ones(len(labels)))
        assert set(np.unique(G)) <= {0.0, 1.0}
        assert np.array_equal(G.argmax(axis=1), labels)


class TestSampleWeights:
    def test_sync_is_exact(self):
        omega = np.array([0.3, -1.2, 0.0, 2.5])
        sw = SampleWeights(omega)
        assert np.array_equal(sw.w, omega * omega)
        assert np.all(sw.w >= 0)

    def test_uniform_sums_to_one(self):
        sw = SampleWeights.uniform(7)
        assert sw.w.shape == (7,)
        assert abs(float(sw.w.sum()) - 1.0) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            SampleWeights(np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SampleWeights([1.0, np.inf])


class TestHyperParams:
    def test_defaults_valid(self):
        hp = HyperParams(n_clusters=3)
        assert hp.lambda3 == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": -0.1},
            {"lambda2": -1.0},
            {"outer_tol": 0.0},
            {"max_outer_iters": 0},
            {"restarts": 0},
            {"n_clusters": 0},
            {"seed": -1},
            {"lambda1": float("nan")},
            {"lambda2": float("inf")},
            {"lambda3": float("nan")},
            {"outer_tol": float("nan")},
            {"outer_tol": float("inf")},
            {"seed": 0.5},
            {"max_outer_iters": 2.5},
            {"n_clusters": 2.0},
            {"restarts": 1.5},
            {"seed": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(n_clusters=kwargs.pop("n_clusters", 3), **kwargs)
