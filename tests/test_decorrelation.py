import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import dckm
import dckm.decorrelation
from dckm.core import SampleWeights, _distinct_rows, _work_area
from dckm.decorrelation import (
    _residuals,
    _weighted_gram,
    balance_gradient,
    balance_loss,
)

from util import (
    DegenerateGroupError,
    balance_gradient_oracle,
    balance_loss_oracle,
    balance_residual,
    central_difference,
    random_binary,
    remaining_features,
    weighted_control_moment,
    weighted_treated_moment,
    wide_matrix,
    with_copies,
)

X3 = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

# Prints, for the distinct rows of two C10-shape datasets under two weight
# vectors each, whether the Gram built in a work area from the transposed
# rows has the bits of ``Y.T @ Y``.
GRAM_PROBE = """
import numpy as np
from dckm.core import _distinct_rows, _work_area
from dckm.data import BiasSpec, generate_biased
from dckm.decorrelation import _weighted_gram
equal = []
for seed in (6, 7):
    X = generate_biased(BiasSpec(n=2000, d=100, n_clusters=5, core_per_cluster=4,
                                 bias_features=60, bias_strength=0.8, noise_flip=0.05,
                                 seed=seed)).X
    U, _, m = _distinct_rows(X)
    work = _work_area(U)
    rng = np.random.default_rng(seed)
    for root in (np.sqrt(m / X.shape[0]), rng.uniform(0.1, 2.0, U.shape[0])):
        Y = U * root[:, None]
        equal.append(bool(np.array_equal(_weighted_gram(U, root, work), Y.T @ Y)))
print(equal)
"""

# Small shapes, and shapes with n*d >= 20,000 like the C10 data.
SHAPES = st.one_of(st.tuples(st.integers(2, 40), st.integers(2, 10)),
                   st.tuples(st.integers(200, 2000), st.integers(100, 120)))


class TestRemainingFeatures:
    def test_zeroes_target_column(self):
        assert np.array_equal(remaining_features([[1, 1], [0, 1]], 0), [[0, 1], [0, 1]])
        assert np.array_equal(remaining_features([[1, 0], [1, 1]], 1), [[1, 0], [1, 0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            remaining_features([[1.0, 0.0]], 2)

    def test_input_not_mutated(self):
        X = np.array([[1.0, 1.0], [0.0, 1.0]])
        remaining_features(X, 0)
        assert np.array_equal(X, [[1, 1], [0, 1]])


class TestMoments:
    def test_treated_uniform(self):
        m = weighted_treated_moment(X3, 0, np.ones(3))
        assert np.allclose(m, [0.0, 0.5])

    def test_treated_single_row_weight_cancels(self):
        X = np.array([[1.0, 1.0], [0.0, 1.0]])
        for c in (0.5, 2.0, 7.0):
            m = weighted_treated_moment(X, 0, np.array([c, 3.0]))
            assert np.allclose(m, [0.0, 1.0])

    def test_treated_degenerate(self):
        with pytest.raises(DegenerateGroupError):
            weighted_treated_moment(np.array([[0.0, 1.0], [0.0, 1.0]]), 0, np.ones(2))

    def test_control_uniform(self):
        m = weighted_control_moment(X3, 0, np.ones(3))
        assert np.allclose(m, [0.0, 1.0])

    def test_control_degenerate(self):
        with pytest.raises(DegenerateGroupError):
            weighted_control_moment(np.array([[1.0, 1.0], [1.0, 1.0]]), 0, np.ones(2))

    def test_control_zero_remaining(self):
        m = weighted_control_moment(np.array([[1.0, 0.0], [0.0, 0.0]]), 0, np.array([1.0, 2.0]))
        assert np.allclose(m, [0.0, 0.0])

    def test_uniform_weights_reduce_to_unweighted_exactly(self):
        rng = np.random.default_rng(5)
        X = random_binary(rng, 20, 6)
        X[:, 2] = 1.0  # keep feature 0's groups alive regardless
        ones = np.ones(20)
        for j in range(X.shape[1]):
            s = X[:, j]
            if s.sum() == 0 or s.sum() == 20:
                continue
            M = remaining_features(X, j)
            expected = M.T @ s / float(s.sum())
            got = weighted_treated_moment(X, j, ones)
            assert np.array_equal(got, expected)

    def test_accepts_sample_weights_object(self):
        sw = SampleWeights(np.ones(3))
        m = weighted_treated_moment(X3, 0, sw)
        assert np.allclose(m, [0.0, 0.5])


class TestBalanceResidual:
    def test_hand_value(self):
        r = balance_residual(X3, 0, np.ones(3))
        assert r.feature == 0
        assert np.allclose(r.residual, [0.0, -0.5])
        assert r.residual[r.feature] == 0.0

    def test_identical_remaining_features_balanced(self):
        r = balance_residual(np.array([[1.0, 1.0], [0.0, 1.0]]), 0, np.ones(2))
        assert np.allclose(r.residual, [0.0, 0.0])

    def test_weight_scale_invariance(self):
        a = balance_residual(X3, 0, np.ones(3)).residual
        b = balance_residual(X3, 0, np.full(3, 2.0)).residual
        assert np.allclose(a, b, rtol=1e-12, atol=0)


class TestBalanceLoss:
    def test_hand_value_three_samples(self):
        # feature 0 contributes 0.25, feature 1 contributes 0.25
        value, skipped = balance_loss(X3, np.ones(3))
        assert skipped == 0
        assert abs(value - 0.5) < 1e-12

    def test_constant_column_skipped(self):
        value, skipped = balance_loss(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))
        assert value == 0.0
        assert skipped == 1

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = random_binary(rng, rng.integers(4, 25), rng.integers(2, 8))
            w = rng.uniform(0.2, 2.0, X.shape[0])
            got = balance_loss(X, w)
            expected_value, expected_skipped = balance_loss_oracle(X, w)
            assert got.skipped_features == expected_skipped
            assert got.value == pytest.approx(expected_value, rel=1e-10, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = random_binary(rng, 15, 5)
            w = rng.uniform(0.3, 1.5, 15)
            base = balance_loss(X, w).value
            for c in (0.1, 3.0, 100.0):
                scaled = balance_loss(X, c * w).value
                assert scaled == pytest.approx(base, rel=1e-12)

    def test_all_ones_column_skipped_at_every_scale(self):
        # The control mass of an all-ones column is sum(w) - X.T @ w: rounding
        # noise that grows with the scale of w.
        rng = np.random.default_rng(0)
        X = random_binary(rng, 200, 6)
        X[:, 0] = 1.0
        w = rng.uniform(0.1, 2.0, 200)
        base = balance_loss(X, w)
        assert base.skipped_features == 1
        for c in 10.0 ** np.arange(1, 13):
            scaled = balance_loss(X, c * w)
            assert scaled.skipped_features == 1
            assert scaled.value == pytest.approx(base.value, rel=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(13)
        X = random_binary(rng, 18, 5)
        w = rng.uniform(0.2, 2.0, 18)
        perm = rng.permutation(18)
        a = balance_loss(X, w).value
        b = balance_loss(X[perm], w[perm]).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_rejects_negative_weights(self):
        for bad in (-0.5, np.nan, np.inf):
            w = np.ones(3)
            w[1] = bad
            with pytest.raises(ValueError, match="finite and non-negative"):
                balance_loss(X3, w)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan, np.inf])
    def test_rejects_non_binary_data(self, bad):
        """The loss is defined for binary data only; other entries used to
        give a wrong answer (0 for the matrix below) instead of an error."""
        with pytest.raises(ValueError, match="non-binary"):
            balance_loss([[0.5, 2], [1, 0], [3, 1]], np.ones(3))
        X = X3.copy()
        X[1, 0] = bad
        with pytest.raises(ValueError, match="invalid data matrix"):
            balance_loss(X, np.ones(3))
        with pytest.raises(ValueError, match="invalid data matrix"):
            balance_gradient(X, np.ones(3))


class TestWeightedGram:
    """``_weighted_gram(X, omega)`` is ``X^T diag(omega**2) X``, built as one
    product of ``X * omega`` with its own transpose."""

    @staticmethod
    def check(X, omega):
        gram = _weighted_gram(X, omega)
        np.testing.assert_allclose(
            gram, X.T @ (X * (omega * omega)[:, None]), rtol=1e-13, atol=0
        )
        assert np.array_equal(gram, gram.T)
        assert np.array_equal(_weighted_gram(X, -omega), gram)

    def test_wide_shape(self):
        rng = np.random.default_rng(3)
        self.check(wide_matrix(3), rng.uniform(0.2, 1.2, 2000) / np.sqrt(2000))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_small_shapes(self, scale):
        rng = np.random.default_rng(101)
        for _ in range(20):
            X = random_binary(rng, int(rng.integers(5, 31)), int(rng.integers(2, 9)))
            self.check(X, scale * rng.uniform(0.7, 1.3, X.shape[0]))

    def test_work_area_gives_the_bits_of_y_t_y_at_one_and_two_blas_threads(self):
        """The Gram from the transposed rows is the same SYRK product as
        ``Y.T @ Y``, with the same bits, at either thread count. Each count
        runs in its own interpreter, since OpenBLAS reads it at import."""
        src = str(Path(dckm.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", GRAM_PROBE], env=env,
                                 capture_output=True, text=True, check=True)
            assert run.stdout.strip() == "[True, True, True, True]", threads


class TestWorkArea:
    """The Gram and the gradient written into a work area have the bits of
    the ones built in new arrays, whatever the work array held before."""

    @given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, density=st.sampled_from([0.1, 0.5]),
           copies=st.booleans(), skipped=st.booleans())
    @example(seed=0, shape=(2000, 100), density=0.5, copies=False, skipped=True)
    @settings(max_examples=60, deadline=None)
    def test_same_bits_with_and_without_a_work_area(self, seed, shape, density, copies,
                                                     skipped):
        rng = np.random.default_rng(seed)
        X = random_binary(rng, *shape, density)
        if skipped:
            X[:, 0] = 1.0  # no control group: skipped
            X[:, -1] = 0.0  # no treated group: skipped
        if copies:
            X = with_copies(rng, X)[0]
        U, _, m = _distinct_rows(X)
        assume(U.shape[0] >= 2)  # balance_gradient takes data as fit does
        event(f"n*d >= 20,000: {U.size >= 20_000}")
        work = _work_area(U)
        work.buf[:] = rng.standard_normal(work.buf.shape)
        omega = np.sqrt(m) * rng.uniform(0.2, 1.5, U.shape[0]) / np.sqrt(X.shape[0])
        gram = _weighted_gram(U, omega)
        assert np.array_equal(_weighted_gram(U, omega, work), gram)
        w = omega * omega
        parts = _residuals(gram, U.T @ w, float(w.sum()))[1]
        expected = balance_gradient(U, omega, parts)
        assert np.array_equal(balance_gradient(U, omega, parts, work), expected)
        work.buf[:] = np.nan
        assert np.array_equal(balance_gradient(U, omega, None, work), expected)

    def test_handed_parts_skip_the_data_check(self, monkeypatch):
        """The solver hands its parts to every gradient, and those calls do
        not check the data again; calls without parts do."""
        checks = 0
        original = dckm.decorrelation._binary_data

        def counting(X):
            nonlocal checks
            checks += 1
            return original(X)

        monkeypatch.setattr(dckm.decorrelation, "_binary_data", counting)
        rng = np.random.default_rng(5)
        X = random_binary(rng, 30, 6)
        omega = rng.uniform(0.2, 1.5, 30)
        w = omega * omega
        parts = _residuals(_weighted_gram(X, omega), X.T @ w, float(w.sum()))[1]
        balance_gradient(X, omega, parts)
        assert checks == 0
        balance_gradient(X, omega)
        assert checks == 1


class TestBalanceGradient:
    def test_finite_differences_on_example(self):
        omega = np.array([1.0, 1.0, 1.0])
        grad = balance_gradient(X3, omega)
        fd = central_difference(lambda om: balance_loss(X3, om * om).value, omega, 1e-6)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_finite_differences_random_suite(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            X = random_binary(rng, rng.integers(5, 31), rng.integers(2, 9))
            omega = rng.uniform(0.5, 1.5, X.shape[0])
            grad = balance_gradient(X, omega)
            fd = central_difference(lambda om: balance_loss(X, om * om).value, omega, 1e-6)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            assert np.all(np.abs(grad - fd) / denom <= 1e-4)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_oracle(self, scale):
        rng = np.random.default_rng(29)
        cases = [wide_matrix(7)]
        for i in range(40):
            X = random_binary(rng, rng.integers(5, 31), rng.integers(2, 9))
            if i % 4 == 1:
                X[:, 0] = 1.0  # no control group: skipped
            if i % 4 == 2:
                X[:, -1] = 0.0  # no treated group: skipped
            cases.append(X)
        compared = 0
        for X in cases:
            omega = scale * rng.uniform(0.5, 1.5, X.shape[0])
            # At a loss of about 1e-30 (features balanced up to rounding), both
            # gradients are about 1e-36 of rounding noise and share no digits.
            if balance_loss(X, omega * omega).value <= 1e-20:
                continue
            expected = balance_gradient_oracle(X, omega)
            diff = np.max(np.abs(balance_gradient(X, omega) - expected))
            assert diff <= 1e-12 * np.max(np.abs(expected))
            compared += 1
        assert compared >= 35

    def test_sign_flip_negates_gradient(self):
        rng = np.random.default_rng(3)
        X = random_binary(rng, 12, 4)
        omega = rng.uniform(0.5, 1.5, 12)
        assert balance_loss(X, omega * omega).value == balance_loss(X, (-omega) ** 2).value
        assert np.allclose(balance_gradient(X, -omega), -balance_gradient(X, omega))

    def test_handed_parts_give_the_same_gradient(self):
        """``parts`` from :func:`_residuals` at omega, as the solver's scored
        point hands them on, give the gradient bit for bit."""
        rng = np.random.default_rng(59)
        cases = []
        for i in range(12):
            X = random_binary(rng, int(rng.integers(5, 31)), int(rng.integers(2, 9)))
            if i % 3 == 1:
                X[:, 0] = 1.0  # no control group: skipped
                X[:, -1] = 0.0  # no treated group: skipped
            cases.append((X, rng.uniform(0.5, 1.5, X.shape[0]) / np.sqrt(X.shape[0])))
        for _ in range(4):
            U, _, m = _distinct_rows(random_binary(rng, 40, 4))
            cases.append((U, np.sqrt(m) * rng.uniform(0.5, 1.5, U.shape[0]) / np.sqrt(40)))
        for X, omega in cases:
            w = omega * omega
            loss, parts = _residuals(_weighted_gram(X, omega), X.T @ w, float(w.sum()))
            assert loss == balance_loss(X, w)
            assert np.array_equal(balance_gradient(X, omega, parts), balance_gradient(X, omega))

    def test_perfectly_balanced_gives_zero_gradient(self):
        X = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert balance_loss(X, np.ones(4)).value == 0.0
        assert np.array_equal(balance_gradient(X, np.ones(4)), np.zeros(4))

    def test_columns_match_per_feature_residuals(self):
        rng = np.random.default_rng(31)
        X = random_binary(rng, 20, 6)
        w = rng.uniform(0.3, 1.7, 20)
        total = 0.0
        for j in range(6):
            s = X[:, j]
            if w @ s <= 1e-12 or w @ (1 - s) <= 1e-12:
                continue
            total += balance_residual(X, j, w).squared_norm()
        assert balance_loss(X, w).value == pytest.approx(total, rel=1e-10)
