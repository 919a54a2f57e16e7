import numpy as np
import pytest

from dckm.core import SampleWeights
from dckm.decorrelation import balance_gradient, balance_loss

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
)

X3 = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


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
