import inspect

import numpy as np
import pytest

import dckm.solver
from dckm.baselines import kmeans
from dckm.core import HyperParams, SampleWeights, one_hot_rows
from dckm.data import BiasSpec, generate_biased
from dckm.decorrelation import _weighted_gram, balance_loss
from dckm.solver import (
    EmptyClusterError,
    _backtrack,
    _row_sq_norms,
    _weight_gradient,
    _weight_objective,
    _weight_ray,
    fit,
    fit_restarts,
    update_assignments,
    update_centroids,
    update_weights,
)

from util import (
    direct_backtracking_oracle,
    lloyd_oracle,
    objective,
    omega_gradient,
    omega_objective,
    random_binary,
    wide_matrix,
)


def lam0(k, **kw):
    return HyperParams(n_clusters=k, lambda1=0.0, lambda2=0.0, lambda3=0.0, **kw)


class TestObjective:
    def test_perfect_reconstruction_zero(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        G = one_hot_rows([0, 1], 2)
        F = X.T  # singleton clusters
        assert objective(X, np.ones(2), F, G, lam0(2)) == 0.0

    def test_sum_constraint_satisfied(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        G = one_hot_rows([0, 1], 2)
        F = X.T
        hp = HyperParams(n_clusters=2, lambda1=0.0, lambda2=0.0, lambda3=1.0)
        assert objective(X, np.full(2, 0.5), F, G, hp) == 0.0

    def test_single_cluster_hand_value(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        F = np.array([[0.5], [0.5]])
        G = np.array([[1.0], [1.0]])
        assert objective(X, np.ones(2), F, G, lam0(1)) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            objective(X, np.ones(3), X.T, one_hot_rows([0, 1], 2), lam0(2))
        with pytest.raises(ValueError):
            objective(X, np.ones(2), np.ones((3, 2)), one_hot_rows([0, 1], 2), lam0(2))


class TestUpdateCentroids:
    def test_single_cluster_uniform_is_column_means(self):
        rng = np.random.default_rng(0)
        X = random_binary(rng, 9, 4)
        F = update_centroids(X, np.ones(9), one_hot_rows([0] * 9, 1))
        assert np.allclose(F[:, 0], X.mean(axis=0))

    def test_singleton_clusters_reproduce_points(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        for w in (np.ones(2), np.array([0.2, 5.0])):
            F = update_centroids(X, w, one_hot_rows([0, 1], 2))
            assert np.array_equal(F, X.T)

    def test_weighted_mean_hand_value(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        G = one_hot_rows([0, 0, 1], 2)
        F = update_centroids(X, np.array([1.0, 3.0, 1.0]), G)
        assert np.allclose(F[:, 0], [1.0, 0.75])
        assert np.allclose(F[:, 1], [0.0, 1.0])

    def test_memberless_cluster_raises(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        G = one_hot_rows([0, 0], 2)
        with pytest.raises(EmptyClusterError) as err:
            update_centroids(X, np.ones(2), G)
        assert err.value.clusters == [1]

    def test_zero_mass_members_fall_back_to_plain_mean(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        G = one_hot_rows([0, 1, 1], 2)
        F = update_centroids(X, np.array([1.0, 0.0, 0.0]), G)
        assert np.allclose(F[:, 0], [1.0, 0.0])
        assert np.allclose(F[:, 1], [0.5, 1.0])  # unweighted mean of its members

    def test_weighted_kmeans_gradient_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, d, k = 20, 5, 3
            X = random_binary(rng, n, d)
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            G = one_hot_rows(labels, k)
            w = rng.uniform(0.2, 2.0, n)
            F = update_centroids(X, w, G)
            grad = -2.0 * (X.T @ (G * w[:, None]) - F * (G.T @ w)[None, :])
            assert np.max(np.abs(grad)) <= 1e-8


class TestUpdateAssignments:
    def test_exact_match_goes_to_that_cluster(self):
        X = np.array([[1.0, 0.0]])
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(update_assignments(X, F), [[1.0, 0.0]])

    def test_tie_breaks_to_lowest_index(self):
        X = np.array([[1.0, 1.0]])
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(update_assignments(X, F), [[1.0, 0.0]])

    def test_weight_free_signature(self):
        assert "w" not in inspect.signature(update_assignments).parameters

    def test_small_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n, d, k = rng.integers(2, 10), rng.integers(2, 5), rng.integers(2, 4)
            X = random_binary(rng, n, d)
            F = rng.random((d, k)).round(1)
            G = update_assignments(X, F)
            for i in range(n):
                best, best_dist = 0, np.inf
                for c in range(k):
                    dist = np.sum((X[i] - F[:, c]) ** 2)
                    if dist < best_dist:
                        best, best_dist = c, dist
                assert G[i].argmax() == best

    def test_near_ties_at_wide_shape(self):
        rng = np.random.default_rng(12)
        X = wide_matrix(3)
        n = X.shape[0]
        G = one_hot_rows(np.concatenate([np.arange(5), rng.integers(0, 5, n - 5)]), 5)
        F = update_centroids(X, rng.uniform(0.1, 2.0, n), G)
        labels = update_assignments(X, F).argmax(axis=1)
        loop = np.column_stack([np.sum((X - F[:, c]) ** 2, axis=1) for c in range(5)])
        chosen = loop[np.arange(n), labels]
        assert np.all(chosen <= loop.min(axis=1) * (1.0 + 1e-12))
        # Duplicated centroid columns tie exactly: the lowest index wins.
        labels = update_assignments(X, F[:, [0, 1, 0, 2, 1, 3, 4]]).argmax(axis=1)
        assert not np.isin(labels, [2, 4]).any()
        assert np.isin(labels, [0, 1]).any()


class TestUpdateWeights:
    def test_zero_gradient_returns_input(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        G = np.array([[1.0], [1.0]])
        F = np.array([[1.0], [0.0]])
        omega = np.array([1.0, 0.0])  # sum of squares is exactly 1
        hp = HyperParams(n_clusters=1, lambda1=0.0, lambda2=0.0, lambda3=3.0)
        update = update_weights(X, F, G, omega, hp)
        assert not update.stalled
        assert np.array_equal(update.weights.omega, omega)

    def test_sum_penalty_drives_weights_toward_one(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        G = one_hot_rows([0, 0, 1, 1], 2)
        F = update_centroids(X, np.ones(4), G)  # perfect reconstruction
        omega = np.full(4, np.sqrt(0.5))  # weights sum to 2
        hp = HyperParams(
            n_clusters=2, lambda1=0.0, lambda2=0.0, lambda3=50.0, max_w_iters=100
        )
        update = update_weights(X, F, G, omega, hp)
        assert abs(float(update.weights.w.sum()) - 1.0) < 0.01

    def test_objective_never_increases(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            X = random_binary(rng, 10, 4)
            labels = np.concatenate([[0, 1], rng.integers(0, 2, 8)])
            G = one_hot_rows(labels, 2)
            F = update_centroids(X, np.ones(10), G)
            omega = rng.uniform(0.2, 1.0, 10)
            hp = HyperParams(n_clusters=2, lambda1=0.5, lambda2=0.3, lambda3=1.0)
            before = omega_objective(X, F, G, omega, hp)
            update = update_weights(X, F, G, omega, hp)
            after = omega_objective(X, F, G, update.weights.omega, hp)
            assert after <= before + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        X = random_binary(rng, 14, 5)
        labels = np.concatenate([[0, 1, 2], rng.integers(0, 3, 11)])
        G = one_hot_rows(labels, 3)
        F = update_centroids(X, np.ones(14), G)
        omega = rng.uniform(0.6, 1.4, 14)
        hp = HyperParams(n_clusters=3, lambda1=0.8, lambda2=0.4, lambda3=1.3)
        grad = omega_gradient(X, F, G, omega, hp)
        from util import central_difference

        fd = central_difference(lambda om: omega_objective(X, F, G, om, hp), omega, 1e-6)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-5

    def test_backtrack_stall_flag(self):
        trials = []

        def always_worse(t):
            trials.append(t)
            return 1.0

        t, f, accepted = _backtrack(always_worse, 0.0, 0.1, 0.5)
        assert not accepted
        assert t == 0.0 and min(trials) > 0.0
        assert f == 0.0


RAY_STEPS = (0.0, 1e-8, 0.1, 1.0, 10.0)
RAY_LAMBDAS = [(l1, l2, l3) for l1 in (0.0, 0.3, 1.0) for l2 in (0.0, 2.0) for l3 in (0.0, 1.0)]
# A large lambda1 makes the step t = 10 reach sum(w) ~ 3e6, where the all-ones
# column's control mass is rounding noise and must still count as empty.
RAY_LAMBDAS.append((50.0, 2.0, 1.0))
# The extremes of the acceptance protocol's grid, where trial steps overshoot far.
STEP_LAMBDAS = [(l1, l2, 1.0) for l1 in (0.0, 1e-2, 1.0, 1e3) for l2 in (0.0, 1e-2, 1e3)]


def ray_case(rng, n, d, k, constant_columns=True):
    X = random_binary(rng, n, d)
    if constant_columns:
        X[:, 0] = 1.0  # no control group: always skipped
        X[:, 1] = 0.0  # no treated group: always skipped
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    G = one_hot_rows(labels, k)
    F = update_centroids(X, np.ones(n), G)
    return X, F, G, rng.uniform(0.2, 1.2, n) / np.sqrt(n)


class TestWeightRay:
    @pytest.mark.parametrize("lambdas", RAY_LAMBDAS)
    def test_matches_direct_objective(self, lambdas):
        rng = np.random.default_rng(41)
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        for _ in range(4):
            X, F, G, omega = ray_case(rng, 30, 7, 3)
            resid_sq = _row_sq_norms(X - G @ F.T)
            gram = _weighted_gram(X, omega * omega) if hp.lambda1 else None
            g = _weight_gradient(X, omega, resid_sq, hp, gram)
            ray = _weight_ray(X, omega, g, resid_sq, hp, gram)
            assert ray(0.0) == _weight_objective(X, omega * omega, resid_sq, hp)
            for t in RAY_STEPS:
                value, skipped = ray(t)
                expected, expected_skipped = _weight_objective(
                    X, (omega - t * g) ** 2, resid_sq, hp
                )
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
                assert skipped == expected_skipped
                if hp.lambda1:
                    assert skipped >= 2

    def test_matches_direct_objective_along_any_direction(self):
        rng = np.random.default_rng(43)
        hp = HyperParams(n_clusters=2, lambda1=2.0, lambda2=0.5, lambda3=1.0)
        X, F, G, omega = ray_case(rng, 25, 6, 2, constant_columns=False)
        resid_sq = _row_sq_norms(X - G @ F.T)
        direction = rng.normal(size=25) / 25
        ray = _weight_ray(X, omega, direction, resid_sq, hp, _weighted_gram(X, omega * omega))
        for t in RAY_STEPS:
            expected = _weight_objective(X, (omega - t * direction) ** 2, resid_sq, hp)
            assert ray(t)[0] == pytest.approx(expected[0], rel=1e-12, abs=0.0)
            assert ray(t)[1] == expected[1]

    @pytest.mark.parametrize("lambdas", STEP_LAMBDAS)
    def test_update_weights_matches_direct_backtracking(self, lambdas, monkeypatch):
        accepted_steps = []
        original = dckm.solver._backtrack

        def recording(*args):
            t, value, accepted = original(*args)
            if accepted:
                accepted_steps.append(t)
            return t, value, accepted

        monkeypatch.setattr(dckm.solver, "_backtrack", recording)
        rng = np.random.default_rng(47)
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2], max_w_iters=8)
        for constant_columns in (False, True):
            for _ in range(3):
                X, F, G, omega = ray_case(rng, 40, 8, 3, constant_columns)
                accepted_steps.clear()
                update = update_weights(X, F, G, omega, hp)
                expected_omega, expected_steps, expected_stalled = direct_backtracking_oracle(
                    X, F, G, omega, hp
                )
                assert accepted_steps == expected_steps
                assert update.stalled == expected_stalled
                np.testing.assert_allclose(
                    update.weights.omega, expected_omega, rtol=1e-12, atol=0
                )
                direct = _weight_objective(
                    X, update.weights.w, _row_sq_norms(X - G @ F.T), hp
                )
                assert update.value == pytest.approx(direct[0], rel=1e-12, abs=0.0)
                assert update.skipped_features == direct[1]


class TestFit:
    def test_rejects_invalid_data(self):
        with pytest.raises(ValueError):
            fit(np.array([[1.0, 0.5], [0.0, 1.0]]), HyperParams(n_clusters=2))

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            fit(np.eye(3), HyperParams(n_clusters=4))

    def test_objective_history_non_increasing(self):
        ds = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                      bias_features=6, seed=1))
        hp = HyperParams(n_clusters=3, seed=3, max_outer_iters=25)
        res = fit(ds.X, hp)
        hist = np.array(res.objective_history)
        assert np.all(np.isfinite(hist))
        assert np.all(np.diff(hist) <= 1e-8 * np.maximum(1.0, np.abs(hist[:-1])))
        assert res.iterations == len(hist)

    def test_each_point_its_own_cluster(self):
        X = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0]])
        res = kmeans(X, 4, seed=0, max_iter=30)
        assert sorted(res.labels.tolist()) == [0, 1, 2, 3]
        assert np.allclose(X, res.assignments @ res.centroids.T)

    def test_balance_loss_reduced_on_biased_data(self):
        ds = generate_biased(BiasSpec(n=150, d=16, n_clusters=3, core_per_cluster=2,
                                      bias_features=9, bias_strength=0.9,
                                      noise_flip=0.02, seed=5))
        hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=1000.0, seed=7,
                         max_outer_iters=40)
        res = fit(ds.X, hp)
        uniform = SampleWeights.uniform(150).w
        assert balance_loss(ds.X, res.weights.w).value < balance_loss(ds.X, uniform).value
        assert res.skipped_features_last == balance_loss(ds.X, res.weights.w).skipped_features

    def test_lloyd_reduction_single_instance(self):
        rng = np.random.default_rng(17)
        X = random_binary(rng, 40, 6)
        km = kmeans(X, 3, seed=9, max_iter=50, track_assignments=True)
        expected, ties = lloyd_oracle(X, 3, 9, 50)
        assert ties == 0
        assert len(km.assignment_history) == len(expected)
        for a, b in zip(km.assignment_history, expected):
            assert np.array_equal(a, b)


class TestFitRestarts:
    def test_single_restart_equals_fit(self):
        ds = generate_biased(BiasSpec(n=60, d=10, n_clusters=2, core_per_cluster=2,
                                      bias_features=4, seed=2))
        hp = HyperParams(n_clusters=2, seed=11, restarts=1, max_outer_iters=15)
        best, summaries = fit_restarts(ds.X, hp)
        single = fit(ds.X, hp)
        assert len(summaries) == 1
        assert summaries[0].seed == 11
        assert best.objective_history == single.objective_history
        assert np.array_equal(best.labels, single.labels)

    def test_deterministic_for_fixed_seed(self):
        ds = generate_biased(BiasSpec(n=60, d=10, n_clusters=2, core_per_cluster=2,
                                      bias_features=4, seed=2))
        hp = HyperParams(n_clusters=2, seed=4, restarts=3, max_outer_iters=15)
        best1, sums1 = fit_restarts(ds.X, hp)
        best2, sums2 = fit_restarts(ds.X, hp)
        assert np.array_equal(best1.weights.omega, best2.weights.omega)
        assert np.array_equal(best1.labels, best2.labels)
        assert [s.objective for s in sums1] == [s.objective for s in sums2]

    def test_best_has_lowest_objective(self):
        ds = generate_biased(BiasSpec(n=60, d=10, n_clusters=2, core_per_cluster=2,
                                      bias_features=4, seed=3))
        hp = HyperParams(n_clusters=2, seed=0, restarts=4, max_outer_iters=15)
        best, summaries = fit_restarts(ds.X, hp)
        assert best.final_objective == min(s.objective for s in summaries)
