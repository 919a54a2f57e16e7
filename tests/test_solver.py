import inspect
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dckm.decorrelation
import dckm.solver
from dckm.baselines import kmeans
from dckm.core import HyperParams, SampleWeights, _distinct_rows, _work_area, one_hot_rows
from dckm.data import BiasSpec, generate_biased
from dckm.decorrelation import balance_loss
from dckm.solver import (
    BACKTRACK_SHRINK,
    FIRST_TRIAL_STEP,
    LINE_SEARCH_MIN_STEP,
    EmptyClusterError,
    _backtrack,
    _centroids_with_recovery,
    _first_trial,
    _restarts,
    _row_sq_norms,
    _weight_gradient,
    _weight_point,
    fit,
    fit_restarts,
    update_assignments,
    update_centroids,
    update_weights,
)

from util import (
    balance_free_value,
    direct_backtracking_oracle,
    full_row_fit,
    lloyd_oracle,
    objective,
    omega_gradient,
    omega_objective,
    random_binary,
    record_assignments,
    record_line_searches,
    record_screens,
    weight_objective,
    wide_matrix,
    with_copies,
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

    def test_rejects_bad_weights(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                update_centroids(X, np.array([1.0, bad, 1.0]), one_hot_rows([0, 0, 1], 2))

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

    def test_sum_penalty_drives_weights_toward_one(self, monkeypatch):
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", 100)
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        G = one_hot_rows([0, 0, 1, 1], 2)
        F = update_centroids(X, np.ones(4), G)  # perfect reconstruction
        omega = np.full(4, np.sqrt(0.5))  # weights sum to 2
        hp = HyperParams(n_clusters=2, lambda1=0.0, lambda2=0.0, lambda3=50.0)
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
            return (1.0,)

        t, trial = _backtrack(always_worse, 0.0, 0.1)
        assert trial is None
        assert t == 0.0 and min(trials) > 0.0
        assert trials[1] == BACKTRACK_SHRINK * trials[0]

    def test_backtrack_returns_the_accepted_trial(self):
        def score(t):
            return abs(t - 0.02), ("scored at", t)

        t, trial = _backtrack(score, 0.01, 0.1)
        assert t == 0.025
        assert trial == (score(0.025)[0], ("scored at", 0.025))


RAY_STEPS = (0.0, 1e-8, 0.1, 1.0, 10.0)
RAY_LAMBDAS = [(l1, l2, l3) for l1 in (0.0, 0.3, 1.0) for l2 in (0.0, 2.0) for l3 in (0.0, 1.0)]
# A large lambda1 makes the step t = 10 reach sum(w) ~ 3e6, where the all-ones
# column's control mass is rounding noise and must still count as empty.
RAY_LAMBDAS.append((50.0, 2.0, 1.0))
# The extremes of the acceptance protocol's grid, where trial steps overshoot
# far. The large lambda1 of the last case sends trials to sum(w) ~ 1e3 from
# sum(w) ~ 0.5, where the all-ones column must still count as empty.
STEP_LAMBDAS = [(l1, l2, 1.0) for l1 in (0.0, 1e-2, 1.0, 1e3) for l2 in (0.0, 1e-2, 1e3)]
STEP_LAMBDAS.append((50.0, 2.0, 1.0))
# (lambda2, whether some trial is screened) for the ray_case descents that
# count Grams: at the larger lambda2 some trials' balance-free terms alone
# exceed their search's start value.
SCREEN_CASES = ((1e-2, False), (1e3, True))


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
    """The weight descent along ``omega - t*g``, each trial scored directly."""

    @pytest.mark.parametrize("lambdas", RAY_LAMBDAS)
    def test_matches_direct_objective(self, lambdas):
        rng = np.random.default_rng(41)
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        for _ in range(4):
            X, F, G, omega = ray_case(rng, 30, 7, 3)
            resid_sq = _row_sq_norms(X - G @ F.T)
            value, skipped, gram = _weight_point(X, omega, resid_sq, hp)
            assert (gram is None) == (hp.lambda1 == 0.0)
            assert (value, skipped) == weight_objective(X, omega * omega, resid_sq, hp)
            g = _weight_gradient(X, omega, resid_sq, hp, parts=gram)
            for t in RAY_STEPS:
                value, skipped, _ = _weight_point(X, omega - t * g, resid_sq, hp)
                expected = weight_objective(X, (omega - t * g) ** 2, resid_sq, hp)
                assert (value, skipped) == expected
                if hp.lambda1:
                    assert skipped >= 2

    def test_matches_direct_objective_along_any_direction(self):
        rng = np.random.default_rng(43)
        hp = HyperParams(n_clusters=2, lambda1=2.0, lambda2=0.5, lambda3=1.0)
        X, F, G, omega = ray_case(rng, 25, 6, 2, constant_columns=False)
        resid_sq = _row_sq_norms(X - G @ F.T)
        direction = rng.normal(size=25) / 25
        for t in RAY_STEPS:
            point = omega - t * direction
            value, skipped, _ = _weight_point(X, point, resid_sq, hp)
            assert (value, skipped) == weight_objective(X, point**2, resid_sq, hp)

    @pytest.mark.parametrize("lambdas", RAY_LAMBDAS)
    def test_distinct_rows_with_counts(self, lambdas):
        """On distinct rows U with counts m and omega' = sqrt(m)*omega, the
        kernels score the objective of all rows, and their gradient is
        sqrt(m) times each copy's coordinate of the all-rows gradient."""
        rng = np.random.default_rng(53)
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        for _ in range(4):
            U, F, G, omega = ray_case(rng, 12, 7, 3)
            X, m, index = with_copies(rng, U)
            resid_sq = _row_sq_norms(U - G @ F.T)
            root = np.sqrt(m)
            value, skipped, gram = _weight_point(U, root * omega, resid_sq, hp, m)
            expected = weight_objective(X, omega[index] ** 2, resid_sq[index], hp)
            assert value == pytest.approx(expected[0], rel=1e-12, abs=0.0)
            assert skipped == expected[1]
            g = _weight_gradient(U, root * omega, resid_sq, hp, m, gram)
            g_full = _weight_gradient(X, omega[index], resid_sq[index], hp)
            np.testing.assert_allclose(g[index], root[index] * g_full, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("lambdas", STEP_LAMBDAS)
    def test_update_weights_matches_direct_backtracking(self, lambdas, monkeypatch):
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", 8)
        searches = record_line_searches(monkeypatch)
        rng = np.random.default_rng(47)
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        for constant_columns in (False, True):
            for _ in range(3):
                X, F, G, omega = ray_case(rng, 40, 8, 3, constant_columns)
                searches.clear()
                update = update_weights(X, F, G, omega, hp)
                expected_omega, expected_steps, expected_stalled = direct_backtracking_oracle(
                    X, F, G, omega, hp
                )
                assert [s.step for s in searches if s.step is not None] == expected_steps
                assert update.stalled == expected_stalled
                np.testing.assert_allclose(
                    update.weights.omega, expected_omega, rtol=1e-12, atol=0
                )
                direct = weight_objective(
                    X, update.weights.w, _row_sq_norms(X - G @ F.T), hp
                )
                assert update.history[-1] == pytest.approx(direct[0], rel=1e-12, abs=0.0)
                assert update.skipped_features == direct[1]

    @pytest.mark.parametrize("lambdas", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    def test_trials_onto_zero_weights_match_direct_backtracking(self, lambdas, monkeypatch):
        # At k=1 every row of eye(4) has the same residual, so the gradient is
        # parallel to omega and Barzilai-Borwein trials land on omega = 0.
        zero_trials = 0
        original = dckm.solver._weight_point

        def counting(X, omega, *rest):
            nonlocal zero_trials
            zero_trials += not np.any(omega)
            return original(X, omega, *rest)

        monkeypatch.setattr(dckm.solver, "_weight_point", counting)
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", 8)
        X = np.vstack([np.eye(4)] * 2)
        F, G, omega = X.mean(axis=0)[:, None], np.ones((8, 1)), np.full(8, np.sqrt(1 / 8))
        hp = HyperParams(n_clusters=1, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        update = update_weights(X, F, G, omega, hp)
        expected_omega, _, expected_stalled = direct_backtracking_oracle(X, F, G, omega, hp)
        assert zero_trials > 0
        assert not update.stalled and not expected_stalled
        np.testing.assert_allclose(update.weights.omega, expected_omega, rtol=1e-12, atol=0)

    def test_one_gram_per_trial(self, monkeypatch):
        """One Gram per trial that is not screened, for a descent that
        screens none and one that screens some."""
        grams = 0
        original_gram = dckm.solver._weighted_gram

        def counting_gram(*args):
            nonlocal grams
            grams += 1
            return original_gram(*args)

        monkeypatch.setattr(dckm.solver, "_weighted_gram", counting_gram)
        searches = record_line_searches(monkeypatch)
        screens = record_screens(monkeypatch)
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", 8)
        for lambda2, screening in SCREEN_CASES:
            grams = 0
            searches.clear()
            screens.clear()
            X, F, G, omega = ray_case(np.random.default_rng(49), 40, 8, 3)
            hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=lambda2, lambda3=1.0)
            update = update_weights(X, F, G, omega, hp)
            trials = sum(s.trials for s in searches)
            assert not update.stalled and trials > 8
            assert (sum(screens) > 0) == screening
            # The start, then one per trial that is not screened; the
            # gradients reuse them.
            assert grams == 1 + trials - sum(screens)

    def test_one_residual_evaluation_per_scored_point(self, monkeypatch):
        calls = 0
        original = dckm.decorrelation._residuals

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(dckm.solver, "_residuals", counting)
        monkeypatch.setattr(dckm.decorrelation, "_residuals", counting)
        searches = record_line_searches(monkeypatch)
        screens = record_screens(monkeypatch)
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", 8)
        for lambda2, screening in SCREEN_CASES:
            calls = 0
            searches.clear()
            screens.clear()
            X, F, G, omega = ray_case(np.random.default_rng(49), 40, 8, 3)
            hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=lambda2, lambda3=1.0)
            update = update_weights(X, F, G, omega, hp)
            trials = sum(s.trials for s in searches)
            assert not update.stalled and trials > 8
            assert (sum(screens) > 0) == screening
            # As for the Grams: the start, then one per unscreened trial,
            # none per gradient.
            assert calls == 1 + trials - sum(screens)

    def test_stall_returns_the_start(self, monkeypatch):
        X, F, G, omega = ray_case(np.random.default_rng(50), 40, 8, 3)
        hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=1e-2, lambda3=1.0)
        original = dckm.solver._weight_point
        start = original(X, omega, _row_sq_norms(X - G @ F.T), hp)[0]

        def uphill(X, point, *rest):
            value, skipped, parts = original(X, point, *rest)
            return (value if np.array_equal(point, omega) else start + 1.0), skipped, parts

        monkeypatch.setattr(dckm.solver, "_weight_point", uphill)
        searches = record_line_searches(monkeypatch)
        descent = (1e-3, np.ones(40))
        update = update_weights(X, F, G, omega, hp, descent)
        assert update.stalled
        assert np.array_equal(update.weights.omega, omega)
        assert update.history == [start]
        assert update.descent is descent
        # One search, shrunk from its first trial to below the smallest step.
        assert len(searches) == 1 and searches[0].step is None
        assert searches[0].trials > 1


PENALTIES = st.sampled_from([0.0, 1e-2, 0.3, 1.0, 50.0, 1e3])


class TestCeiling:
    """``_weight_point`` with a ceiling: unchanged at or above the full
    value, and it only screens points whose full value exceeds the ceiling."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), d=st.integers(1, 6),
           copies=st.booleans(), lambdas=st.tuples(PENALTIES, PENALTIES, PENALTIES),
           anchor=st.sampled_from(["full", "balance-free", "between"]),
           ulps=st.integers(-2, 2), fraction=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_screens_only_points_above_the_ceiling(self, seed, n, d, copies, lambdas,
                                                    anchor, ulps, fraction):
        rng = np.random.default_rng(seed)
        X = random_binary(rng, n, d)
        m = rng.integers(1, 5, n).astype(np.float64) if copies else 1.0
        omega = rng.uniform(0.0, 1.5, n) * (rng.random(n) < 0.8)
        resid_sq = rng.uniform(0.0, d, n)
        hp = HyperParams(n_clusters=1, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        full = _weight_point(X, omega, resid_sq, hp, m)
        free = balance_free_value(omega * omega, resid_sq, hp, m)
        ceiling = {"full": full[0], "balance-free": free,
                   "between": free + fraction * (full[0] - free)}[anchor]
        for _ in range(abs(ulps)):
            ceiling = np.nextafter(ceiling, np.inf if ulps > 0 else -np.inf)
        value, skipped, parts = _weight_point(X, omega, resid_sq, hp, m, None, ceiling)
        if ceiling >= full[0] or full[2] is None:
            # Not screened: the unscreened triple, bit for bit.
            assert (value, skipped) == full[:2]
            assert (parts is None) == (full[2] is None)
            if parts is not None:
                for got, expected in zip(parts, full[2]):
                    assert np.array_equal(got, expected)
        elif parts is None:
            # Screened: the balance-free part, above the ceiling, and so is
            # the full value.
            assert (value, skipped) == (free, 0)
            assert value > ceiling and full[0] > ceiling
        else:
            assert (value, skipped) == full[:2]


# Small shapes, and shapes with n*d >= 20,000 like the C10 data.
WORK_SHAPES = st.one_of(st.tuples(st.integers(4, 40), st.integers(2, 10)),
                        st.tuples(st.integers(200, 2000), st.integers(100, 120)))


def assert_same_update(got, expected):
    """Two :class:`WeightUpdate` results hold the same bits."""
    assert np.array_equal(got.weights.omega, expected.weights.omega)
    assert got.stalled == expected.stalled
    assert got.history == expected.history
    assert got.skipped_features == expected.skipped_features
    assert got.line_searches == expected.line_searches
    assert (got.descent is None) == (expected.descent is None)
    if got.descent is not None:
        assert got.descent[0] == expected.descent[0]
        assert np.array_equal(got.descent[1], expected.descent[1])
    assert (got.parts is None) == (expected.parts is None)
    if got.parts is not None:
        for a, b in zip(got.parts, expected.parts):
            assert np.array_equal(a, b)


def work_case(rng, shape, k, copies):
    """Distinct rows U of random binary data with their counts m, a labeling
    that uses every cluster, the weighted centroids and a start omega."""
    X = random_binary(rng, *shape)
    if copies:
        X = with_copies(rng, X)[0]
    U, _, m = _distinct_rows(X)
    k = min(k, U.shape[0])
    labels = np.concatenate([np.arange(k), rng.integers(0, k, U.shape[0] - k)])
    G = one_hot_rows(labels, k)
    F = update_centroids(U, m, G)
    omega = np.sqrt(m / X.shape[0]) * rng.uniform(0.5, 1.5, U.shape[0])
    return X, U, m, F, G, omega


class TestWorkArea:
    """A weight descent given a work area makes the same floating-point
    operations as one that allocates its arrays, into memory that nothing it
    returns refers to."""

    @given(seed=st.integers(0, 2**32 - 1), shape=WORK_SHAPES, k=st.integers(1, 5),
           lambdas=st.tuples(PENALTIES, PENALTIES, PENALTIES), copies=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_update_weights_same_bits(self, seed, shape, k, lambdas, copies):
        rng = np.random.default_rng(seed)
        _, U, m, F, G, omega = work_case(rng, shape, k, copies)
        hp = HyperParams(n_clusters=G.shape[1], lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        work = _work_area(U)
        work.buf[:] = rng.standard_normal(work.buf.shape)
        expected = update_weights(U, F, G, omega, hp, None, m)
        got = update_weights(U, F, G, omega, hp, None, m, None, work)
        assert_same_update(got, expected)
        # The next sweep's descent, from the carried step and parts.
        expected = update_weights(U, F, G, expected.weights.omega, hp, expected.descent, m,
                                  expected.parts)
        got = update_weights(U, F, G, got.weights.omega, hp, got.descent, m, got.parts, work)
        assert_same_update(got, expected)

    @given(seed=st.integers(0, 2**32 - 1), shape=WORK_SHAPES, k=st.integers(1, 4),
           lambdas=st.tuples(PENALTIES, PENALTIES, PENALTIES), copies=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_fit_same_bits(self, seed, shape, k, lambdas, copies):
        """A fit equals one whose weight updates get no work area."""
        X = work_case(np.random.default_rng(seed), shape, k, copies)[0]
        hp = HyperParams(n_clusters=k, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2], seed=seed % 1000, max_outer_iters=4)
        original = dckm.solver.update_weights

        def outcome():
            try:
                return fit(X, hp)
            except EmptyClusterError as exc:
                return exc.clusters

        result = outcome()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dckm.solver, "update_weights", lambda *args: original(*args[:8]))
            expected = outcome()
        if isinstance(expected, list):
            assert result == expected
            return
        assert result.objective_history == expected.objective_history
        assert np.array_equal(result.labels, expected.labels)
        assert np.array_equal(result.centroids, expected.centroids)
        assert np.array_equal(result.weights.omega, expected.weights.omega)
        assert result.line_searches == expected.line_searches
        assert result.skipped_features_last == expected.skipped_features_last

    def test_overwriting_the_work_array_changes_nothing_returned(self):
        rng = np.random.default_rng(61)
        _, U, m, F, G, omega = work_case(rng, (300, 40), 3, True)
        hp = HyperParams(n_clusters=3, lambda1=1e3, lambda2=1.0)
        work = _work_area(U)
        update = update_weights(U, F, G, omega, hp, None, m, None, work)
        arrays = [update.weights.omega, update.weights.w, update.descent[1], *update.parts[:6]]
        kept = [a.copy() for a in arrays]
        work.buf[:] = np.nan
        for array, copy in zip(arrays, kept):
            assert not np.shares_memory(array, work.buf)
            assert np.array_equal(array, copy)

    def test_a_descent_in_a_work_area_allocates_less_than_the_data(self):
        """At the C10 shape, one sweep's weight update without a work area
        holds two n-by-d temporaries at its peak; with one it holds none."""
        rng = np.random.default_rng(62)
        _, U, m, F, G, omega = work_case(rng, (2000, 100), 5, False)
        assert U.shape == (2000, 100)
        hp = HyperParams(n_clusters=5, lambda1=1e3, lambda2=1e3)
        work = _work_area(U)
        peaks = []
        for area in (work, None):
            tracemalloc.start()
            try:
                update_weights(U, F, G, omega, hp, None, m, None, area)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < U.nbytes < peaks[1]


class TestFirstTrial:
    """Where each line search starts: the Barzilai-Borwein step of the
    previous accepted step, with its three fallbacks to that step."""

    hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=2.0, lambda3=1.0)

    def test_first_search_starts_at_grad_step(self):
        assert _first_trial(None, np.ones(4)) == FIRST_TRIAL_STEP == 0.1

    def test_barzilai_borwein_step(self):
        rng = np.random.default_rng(5)
        g_prev, g = rng.normal(size=30), rng.normal(size=30)
        g = 0.3 * g_prev + 0.1 * g  # s.y > 0
        s, y = -0.02 * g_prev, g - g_prev
        assert _first_trial((0.02, g_prev), g) == pytest.approx(
            (s @ s) / (s @ y), rel=1e-12
        )

    @pytest.mark.parametrize("case", ["non-positive curvature", "not finite", "below minimum"])
    def test_fallback_to_last_step(self, case):
        rng = np.random.default_rng(6)
        g = rng.normal(size=30)
        g_prev = {
            "non-positive curvature": 0.5 * g,  # s.y = -0.25 t ||g||^2
            "not finite": np.full(30, np.nan),
            "below minimum": -1e-20 * g,  # proposal ~ 1e-20 t
        }[case]
        assert _first_trial((0.03, g_prev), g) == 0.03
        if case == "non-positive curvature":
            assert _first_trial((0.03, g), g) == 0.03  # s.y == 0 exactly
        if case == "not finite":
            # A finite gradient whose proposal, about 1e7 t, overflows.
            assert _first_trial((1e305, 1.0000001 * g), g) == 1e305

    @pytest.mark.parametrize("case", ["non-positive curvature", "not finite", "below minimum"])
    def test_fallback_does_not_stall(self, case, monkeypatch):
        searches = record_line_searches(monkeypatch)
        X, F, G, omega = ray_case(np.random.default_rng(48), 40, 8, 3)
        resid_sq = _row_sq_norms(X - G @ F.T)
        g = _weight_gradient(X, omega, resid_sq, self.hp)
        g_prev = {"non-positive curvature": 0.5 * g, "not finite": np.full(40, np.nan),
                  "below minimum": -1e-20 * g}[case]
        step = 1e-3
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", 1)
        update = update_weights(X, F, G, omega, self.hp, (step, g_prev))
        assert [s.first for s in searches] == [step]
        assert not update.stalled
        assert update.history[-1] < weight_objective(X, omega * omega, resid_sq, self.hp)[0]
        assert LINE_SEARCH_MIN_STEP <= update.descent[0] <= step


FAMILY = dict(n=500, d=24, n_clusters=3, core_per_cluster=1, bias_features=5,
              noise_flip=0.005)


class TestStepSize:
    """Guard for the Barzilai-Borwein start on the acceptance protocol's data:
    a search that always started at FIRST_TRIAL_STEP took 7.5 and 19.8 trials
    per step at these two grid points."""

    @pytest.mark.parametrize("weight_steps", [5, 1])
    def test_few_trials_per_step(self, weight_steps, monkeypatch):
        monkeypatch.setattr(dckm.solver, "WEIGHT_STEPS", weight_steps)
        searches = record_line_searches(monkeypatch)
        X = generate_biased(BiasSpec(bias_strength=0.9, seed=5, **FAMILY)).X
        for lambda1 in (1e-2, 1e3):
            searches.clear()
            hp = HyperParams(n_clusters=3, lambda1=lambda1, lambda2=1e3, lambda3=1.0,
                             max_outer_iters=40, seed=100)
            hist = np.array(fit(X, hp).objective_history)
            assert np.all(np.diff(hist) <= 0.0)
            assert sum(s.trials for s in searches) <= 3 * len(searches)
            accepted_steps = [s.step for s in searches if s.step is not None]
            # A start carried without its gradient could only shrink.
            assert any(b > a for a, b in zip(accepted_steps, accepted_steps[1:]))


class TestFit:
    @pytest.mark.parametrize("lambdas", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    def test_step_onto_zero_weights_is_rejected(self, lambdas):
        # At k=1 every row of eye(4) has the same residual, so the weight
        # gradient is parallel to omega and a trial step can land on omega = 0.
        hp = HyperParams(n_clusters=1, lambda1=lambdas[0], lambda2=lambdas[1],
                         lambda3=lambdas[2])
        result = fit(np.vstack([np.eye(4)] * 2), hp)
        assert result.weights.w.sum() > 0.0
        assert np.all(np.diff(result.objective_history) <= 0.0)

    def test_rejects_invalid_data(self):
        with pytest.raises(ValueError):
            fit(np.array([[1.0, 0.5], [0.0, 1.0]]), HyperParams(n_clusters=2))

    @pytest.mark.parametrize("layout", ["fortran", "transposed view"])
    def test_memory_layout_does_not_change_the_fit(self, layout):
        # d > 8, so each row packs to more than one byte.
        X = generate_biased(BiasSpec(n=60, d=24, n_clusters=3, bias_features=5, seed=1)).X
        Y = np.asfortranarray(X) if layout == "fortran" else np.ascontiguousarray(X.T).T
        assert not Y.flags.c_contiguous and np.array_equal(X, Y)
        hp = HyperParams(n_clusters=3, seed=2, max_outer_iters=6)
        expected, result = fit(X, hp), fit(Y, hp)
        for name in ("centroids", "assignments"):
            assert np.array_equal(getattr(result, name), getattr(expected, name))
        assert np.array_equal(result.weights.omega, expected.weights.omega)
        for name in ("objective_history", "converged", "iterations", "skipped_features_last",
                     "line_searches", "stalled_sweeps"):
            assert getattr(result, name) == getattr(expected, name)

    @pytest.mark.parametrize("lambda1", [0.0, 1.0, 1e3])
    def test_each_sweep_starts_from_the_accepted_gram(self, lambda1, monkeypatch):
        """The first sweep's start and each trial that is not screened build
        one weighted Gram; later sweeps start from the parts of the weights
        they were handed, and the fit equals one that builds every start
        again."""
        X = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                     bias_features=6, seed=1)).X
        hp = HyperParams(n_clusters=3, lambda1=lambda1, lambda2=10.0, seed=3,
                         max_outer_iters=8)
        original_update = dckm.solver.update_weights

        def without_parts(*args):
            return original_update(*args[:7])  # drops the carried parts

        with monkeypatch.context() as patch:
            patch.setattr(dckm.solver, "update_weights", without_parts)
            rebuilt = fit(X, hp)
        grams = 0
        original_gram = dckm.solver._weighted_gram

        def counting_gram(*args):
            nonlocal grams
            grams += 1
            return original_gram(*args)

        monkeypatch.setattr(dckm.solver, "_weighted_gram", counting_gram)
        screens = record_screens(monkeypatch)
        result = fit(X, hp)
        assert result.iterations > 1
        assert len(screens) == len(result.line_searches)
        if lambda1 == 0.0:
            assert grams == 0
        else:
            assert sum(screens) > 0
            assert grams == 1 + sum(result.line_searches) - sum(screens)
        assert result.objective_history == rebuilt.objective_history
        assert np.array_equal(result.labels, rebuilt.labels)
        assert np.array_equal(result.weights.omega, rebuilt.weights.omega)

    @pytest.mark.parametrize("lambda1", [1.0, 1e3])
    def test_balance_residuals_once_per_scored_point(self, lambda1, monkeypatch):
        """The balance residuals are computed for the first sweep's start and
        for each trial that is not screened, and for nothing else: a later
        sweep's start takes its balance value from the parts it was handed,
        and each gradient uses the parts of its point."""
        X = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                     bias_features=6, seed=1)).X
        hp = HyperParams(n_clusters=3, lambda1=lambda1, lambda2=10.0, seed=3,
                         max_outer_iters=8)
        calls = 0
        original = dckm.solver._residuals

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(dckm.solver, "_residuals", counting)
        screens = record_screens(monkeypatch)
        result = fit(X, hp)
        assert result.iterations > 1
        assert calls == 1 + sum(result.line_searches) - sum(screens)

    @pytest.mark.parametrize("lambdas", [(1e-2, 1e3), (1.0, 1.0), (1e3, 1e3)])
    def test_screened_fit_equals_unscreened_fit(self, lambdas, monkeypatch):
        """Screening a trial on its balance-free terms only skips its Gram: a
        fit whose trials all build one makes the same searches and returns
        the same fit."""
        X = generate_biased(BiasSpec(bias_strength=0.9, seed=5, **FAMILY)).X
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1], lambda3=1.0,
                         seed=100, max_outer_iters=40)
        with monkeypatch.context() as patch:
            screens = record_screens(patch)
            screened = fit(X, hp)
        assert sum(screens) > 0
        original = dckm.solver._weight_point

        def unscreened(X, omega, resid_sq, params, m=1.0, parts=None, ceiling=None, work=None):
            return original(X, omega, resid_sq, params, m, parts, np.inf, work)

        monkeypatch.setattr(dckm.solver, "_weight_point", unscreened)
        full = fit(X, hp)
        assert screened.objective_history == full.objective_history
        assert np.array_equal(screened.labels, full.labels)
        assert np.array_equal(screened.weights.omega, full.weights.omega)
        assert screened.line_searches == full.line_searches
        assert screened.stalled_sweeps == full.stalled_sweeps

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

    def test_converged_needs_settled_labels(self, monkeypatch):
        ds = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                      bias_features=6, seed=1))
        recorded = record_assignments(monkeypatch)
        # Every relative change passes this tolerance; the labels decide.
        res = fit(ds.X, HyperParams(n_clusters=3, seed=3, outer_tol=1.0, max_outer_iters=50))
        assert res.converged
        assert len(recorded) == res.iterations
        assert np.array_equal(recorded[-1], recorded[-2])
        assert not np.array_equal(recorded[0], recorded[1])

    @pytest.mark.parametrize("case", ["lambda1 = 0", "lambda1 = 1", "stall", "zero gradient"])
    def test_line_searches_match_the_recorded_searches(self, case, monkeypatch):
        """``line_searches`` holds each weight line search's trial count, and
        ``stalled_sweeps`` the searches that found no step, as counted by
        wrapping ``_backtrack``; a zero gradient ends a descent with no search."""
        X = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                     bias_features=6, seed=1)).X
        hp = HyperParams(n_clusters=3, lambda1=float(case != "lambda1 = 0"), seed=3,
                         max_outer_iters=6)
        if case == "zero gradient":
            # Identical rows in one cluster and no penalty: a zero gradient.
            X, hp = np.ones((6, 3)), lam0(1, max_outer_iters=3)
        if case == "stall":
            # Every trial of the second sweep's descent scores above its start.
            sweep, scored = 0, []
            update, point = dckm.solver.update_weights, dckm.solver._weight_point

            def counting_update(*args):
                nonlocal sweep
                sweep += 1
                scored.clear()
                return update(*args)

            def uphill(*args):
                value, skipped, parts = point(*args)
                scored.append(value)
                if sweep == 2 and len(scored) > 1:
                    value = scored[0] + 1.0
                return value, skipped, parts

            monkeypatch.setattr(dckm.solver, "update_weights", counting_update)
            monkeypatch.setattr(dckm.solver, "_weight_point", uphill)
        searches = record_line_searches(monkeypatch)
        result = fit(X, hp)
        assert result.line_searches == [s.trials for s in searches]
        assert result.stalled_sweeps == sum(s.step is None for s in searches)
        assert result.stalled_sweeps == (case == "stall")
        assert (len(searches) == 0) == (case == "zero gradient")

    @pytest.mark.parametrize("lambdas", [(1.0, 1e2), (1e3, 1e3)])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_distinct_rows_fit_equals_full_row_fit(self, seed, lambdas):
        rng = np.random.default_rng(seed)
        U = np.unique(random_binary(rng, 16, 8), axis=0)
        X, _, _ = with_copies(rng, U)
        assert U.shape[0] < X.shape[0] / 3
        hp = HyperParams(n_clusters=3, lambda1=lambdas[0], lambda2=lambdas[1], lambda3=1.0,
                         seed=seed, max_outer_iters=3)
        labels, omega, history, margin = full_row_fit(X, hp)
        assert margin > 1e-4  # no near ties
        result = fit(X, hp)
        assert np.array_equal(result.labels, labels)
        np.testing.assert_allclose(result.weights.omega, omega, rtol=1e-10, atol=0)
        np.testing.assert_allclose(result.objective_history, history, rtol=1e-12, atol=0)

    def test_reseeds_at_distinct_rows(self, monkeypatch):
        """Two empty clusters are re-seeded at the two distinct rows with the
        largest residual, although the first of them has two copies."""
        a, b, z = [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]
        U, m = np.array([a, b, z]), np.array([2.0, 1.0, 6.0])
        G = one_hot_rows([0, 0, 0], 3)
        recorded = record_assignments(monkeypatch)
        F, G = _centroids_with_recovery(U, m, G, m)  # one unit of weight per copy
        assert len(recorded) == 1
        assert np.array_equal(G.argmax(axis=1), [1, 2, 0])
        assert np.array_equal(F.T, [z, a, b])
        # On all nine rows, both empty clusters start at a copy of a, and
        # cluster 2 stays empty after the first round.
        X = U[[0, 0, 1, 2, 2, 2, 2, 2, 2]]
        recorded.clear()
        _centroids_with_recovery(X, np.ones(9), one_hot_rows([0] * 9, 3), np.ones(9))
        assert len(recorded) == 2
        assert not np.any(recorded[0] == 2)

    def test_reseed_ranks_one_copy_residual(self):
        """A re-seed ranks rows by one copy's weighted residual, as on all
        rows: b's one copy outranks the eight copies of z together."""
        b, z, y = [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]
        U, m = np.array([b, z, y]), np.array([1.0, 8.0, 20.0])
        F, G = _centroids_with_recovery(U, m, one_hot_rows([0, 0, 0], 2), m)
        X = U[np.repeat([0, 1, 2], m.astype(int))]
        F_all, G_all = _centroids_with_recovery(X, np.ones(29), one_hot_rows([0] * 29, 2),
                                                np.ones(29))
        assert np.array_equal(F[:, 1], b)
        assert np.allclose(F, F_all, rtol=1e-15, atol=0)
        assert np.array_equal(G[np.repeat([0, 1, 2], m.astype(int))], G_all)

    def test_zero_mass_cluster_takes_the_mean_of_all_copies(self):
        U, m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([3.0, 1.0, 2.0])
        w = np.array([0.0, 0.0, 2.0])
        F, _ = _centroids_with_recovery(U, w, one_hot_rows([0, 0, 1], 2), m)
        assert np.array_equal(F[:, 0], [0.75, 0.25])
        assert np.array_equal(F[:, 1], [1.0, 1.0])

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

    def test_lloyd_reduction_single_instance(self, monkeypatch):
        rng = np.random.default_rng(17)
        X = random_binary(rng, 40, 6)
        recorded = record_assignments(monkeypatch)
        kmeans(X, 3, seed=9, max_iter=50)
        expected, ties = lloyd_oracle(X, 3, 9, 50)
        assert ties == 0
        assert len(recorded) == len(expected)
        for a, b in zip(recorded, expected):
            assert np.array_equal(a, b)


class TestFitRestarts:
    def test_single_restart_equals_fit(self):
        ds = generate_biased(BiasSpec(n=60, d=10, n_clusters=2, core_per_cluster=2,
                                      bias_features=4, seed=2))
        hp = HyperParams(n_clusters=2, seed=11, restarts=3, max_outer_iters=15)
        best, runs = fit_restarts(ds.X, hp)
        assert len(runs) == 3
        for i, run in enumerate(runs):
            single = fit(ds.X, replace(hp, seed=11 + i))
            assert run.objective_history == single.objective_history
            assert np.array_equal(run.labels, single.labels)
        assert any(best is run for run in runs)

    def test_restart_loop_keeps_first_lowest(self):
        seeds = []

        def run(seed):
            seeds.append(seed)
            return SimpleNamespace(objective=[3.0, 1.0, 1.0][len(seeds) - 1])

        best, runs = _restarts(run, HyperParams(n_clusters=2, seed=7, restarts=3))
        assert seeds == [7, 8, 9]
        assert best is runs[1]

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
        best, runs = fit_restarts(ds.X, hp)
        assert best.objective == min(r.objective for r in runs)
