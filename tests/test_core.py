import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dckm.core import (
    HyperParams,
    SampleWeights,
    _distinct_rows,
    _one_hot,
    one_hot_rows,
    validate_data,
)
from dckm.solver import fit

from util import random_binary, validate_data_oracle


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

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), d=st.integers(2, 12),
           constant=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0.0, 1.0, -0.0])),
                             max_size=4),
           injected=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 11),
                                       st.sampled_from([np.nan, np.inf, -np.inf, 2.0, -0.0,
                                                        0.5, 1.0, 0.0])),
                             max_size=8),
           fortran=st.booleans())
    def test_one_pass_report_equals_the_reference(self, seed, n, d, constant, injected,
                                                  fortran):
        """The one-mask path for binary data and the locating scans for
        anything else give the reference report, field for field."""
        X = random_binary(np.random.default_rng(seed), n, d)
        for j, value in constant:
            X[:, j % d] = value
        for i, j, value in injected:
            X[i % n, j % d] = value
        if fortran:
            X = np.asfortranarray(X)
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

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=40),
           st.integers(min_value=0, max_value=3))
    def test_unchecked_form_equals_checked_form(self, labels, extra):
        k = max(labels, default=0) + 1 + extra
        G = _one_hot(np.array(labels, dtype=np.int64), k)
        expected = one_hot_rows(labels, k)
        assert G.dtype == expected.dtype and G.shape == expected.shape
        assert np.array_equal(G, expected)


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
            {"lambda1": True},
            {"outer_tol": True},
            {"lambda1": "1"},
            {"lambda2": None},
            {"lambda3": 1 + 0j},
            {"outer_tol": np.bool_(True)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(n_clusters=kwargs.pop("n_clusters", 3), **kwargs)

    @pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.25), np.int64(2), 2])
    def test_real_fields_stored_as_python_floats(self, value):
        hp = HyperParams(n_clusters=3, lambda1=value, lambda2=value, lambda3=value,
                         outer_tol=value)
        for name in ("lambda1", "lambda2", "lambda3", "outer_tol"):
            assert type(getattr(hp, name)) is float
            assert getattr(hp, name) == float(value)

    def test_float32_lambda_fits_as_its_float64_value(self):
        # A float32 lambda1 must not make the objective float32, or the line
        # search would compare float32-rounded values.
        X = random_binary(np.random.default_rng(4), 60, 8)
        got = fit(X, HyperParams(n_clusters=2, lambda1=np.float32(0.1), max_outer_iters=5))
        want = fit(X, HyperParams(n_clusters=2, lambda1=float(np.float32(0.1)),
                                  max_outer_iters=5))
        assert all(type(value) is float for value in got.objective_history)
        assert got.objective_history == want.objective_history
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.weights.omega, want.weights.omega)
