import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

import dckm.solver
from dckm.baselines import (
    balance_only_weights,
    kmeans,
    pca_project,
    select_uncorrelated_features,
    weighted_kmeans,
)
from dckm.cli import run_method
from dckm.core import HyperParams, SampleWeights
from dckm.data import BiasSpec, generate_biased
from dckm.decorrelation import balance_loss
from dckm.metrics import nmi
from dckm.solver import update_assignments

from util import (
    full_row_balance_only_weights,
    kmeans_loss_for_labels,
    random_binary,
    record_assignments,
    with_copies,
)


def two_groups():
    # two well-separated groups of four, one flipped bit inside each
    return np.array(
        [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [0, 1, 1, 1],
            [0, 0, 1, 1],
        ],
        dtype=np.float64,
    )


def non_finite_data():
    # 30x6 binary data; its first non-finite entry in row-major order is (4, 2)
    X = random_binary(np.random.default_rng(21), 30, 6)
    X[4, 2] = np.nan
    X[7, 1] = np.inf
    return X


NON_FINITE = r"^non-finite entry at \(4, 2\)$"


# Non-integer values for the Lloyd baselines' integer arguments, each with
# the argument that the ValueError names; bools are not integers here.
NON_INTEGER_ARGUMENTS = [
    ("n_clusters", 2.0), ("n_clusters", True), ("seed", 1.5), ("seed", 1.0),
    ("max_iter", 3.0), ("max_iter", True),
]


class TestKMeans:
    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match=NON_FINITE):
            kmeans(non_finite_data(), 3)

    def test_recovers_separated_groups_with_global_optimum_loss(self):
        X = two_groups()
        best_loss = min(
            kmeans_loss_for_labels(X, np.array(labels), 2)
            for labels in itertools.product([0, 1], repeat=8)
            if len(set(labels)) == 2
        )
        result = min((kmeans(X, 2, seed=s) for s in range(3)), key=lambda r: r.objective)
        assert result.objective == pytest.approx(best_loss, rel=1e-12)
        assert len(set(result.labels[:4])) == 1
        assert len(set(result.labels[4:])) == 1

    def test_single_cluster_is_column_means(self):
        rng = np.random.default_rng(1)
        X = random_binary(rng, 10, 4)
        result = kmeans(X, 1, seed=0)
        assert np.allclose(result.centroids[:, 0], X.mean(axis=0))

    def test_duplicated_rows_zero_loss(self):
        X = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        result = kmeans(X, 2, seed=0)
        assert result.objective == pytest.approx(0.0, abs=1e-20)

    def test_terminal_assignment_is_fixed_point(self):
        rng = np.random.default_rng(9)
        X = random_binary(rng, 30, 5)
        result = kmeans(X, 3, seed=2)
        again = update_assignments(X, result.centroids)
        assert np.array_equal(again, result.assignments)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.eye(2), 3)

    @pytest.mark.parametrize("n_clusters", [0, -1])
    def test_k_below_one_rejected(self, n_clusters):
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            kmeans(np.eye(3), n_clusters)
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            weighted_kmeans(np.eye(3), np.ones(3), n_clusters)

    @pytest.mark.parametrize("max_iter", [0, -2])
    def test_max_iter_below_one_rejected(self, max_iter):
        X = random_binary(np.random.default_rng(8), 20, 5)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            kmeans(X, 3, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            weighted_kmeans(X, np.ones(20), 3, max_iter=max_iter)

    @pytest.mark.parametrize("name, value", NON_INTEGER_ARGUMENTS)
    def test_non_integer_arguments_rejected(self, name, value):
        args = {"n_clusters": 2, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            kmeans(np.eye(4), **args)


class TestWeightedKMeans:
    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match=NON_FINITE):
            weighted_kmeans(non_finite_data(), np.ones(30), 3)

    def test_uniform_weights_match_kmeans_exactly(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = random_binary(rng, 25, 6)
        w = SampleWeights.uniform(25).w
        recorded = record_assignments(monkeypatch)
        kmeans(X, 3, seed=5)
        a = list(recorded)
        recorded.clear()
        weighted_kmeans(X, w, 3, seed=5)
        assert len(a) == len(recorded)
        for ha, hb in zip(a, recorded):
            assert np.array_equal(ha, hb)

    def test_single_positive_weight(self):
        rng = np.random.default_rng(6)
        X = random_binary(rng, 12, 5)
        w = np.zeros(12)
        w[0] = 1.0
        result = weighted_kmeans(X, w, 2, seed=1)
        own = result.labels[0]
        assert np.allclose(result.centroids[:, own], X[0])
        assert np.array_equal(result.assignments.sum(axis=1), np.ones(12))

    def test_loss_non_increasing_over_sweeps(self):
        rng = np.random.default_rng(12)
        X = random_binary(rng, 30, 6)
        w = rng.uniform(0.1, 2.0, 30)
        losses = [weighted_kmeans(X, w, 3, seed=4, max_iter=t).objective for t in (1, 2, 3, 5, 20)]
        assert all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("name, value", NON_INTEGER_ARGUMENTS)
    def test_non_integer_arguments_rejected(self, name, value):
        args = {"n_clusters": 2, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            weighted_kmeans(np.eye(4), np.ones(4), **args)

    def test_negative_weights_rejected(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                weighted_kmeans(np.eye(3), np.array([1.0, bad, 0.0]), 2)


class TestDecKM:
    def test_lambda1_zero_keeps_weights_uniform(self):
        ds = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                      bias_features=6, seed=4))
        hp = HyperParams(n_clusters=3, lambda1=0.0, lambda2=1.0, lambda3=1.0, seed=6)
        plain = kmeans(ds.X, 3, seed=6)
        record = run_method(ds.X, plain.labels, "deckm", hp)
        w = record.weights
        assert w.max() == pytest.approx(w.min(), rel=1e-9)
        assert record.per_restart_nmi == [pytest.approx(1.0)]

    def test_stage1_reduces_balance_loss_on_biased_data(self):
        ds = generate_biased(BiasSpec(n=120, d=16, n_clusters=3, core_per_cluster=2,
                                      bias_features=9, bias_strength=0.9,
                                      noise_flip=0.02, seed=8))
        hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=1000.0, lambda3=1.0, seed=0)
        weights, history = balance_only_weights(ds.X, hp)
        uniform = SampleWeights.uniform(120).w
        assert balance_loss(ds.X, weights.w).value < balance_loss(ds.X, uniform).value
        assert all(b <= a + 1e-10 for a, b in zip(history, history[1:]))

    def test_step_cap_and_relative_change_stop(self, monkeypatch):
        ds = generate_biased(BiasSpec(n=120, d=16, n_clusters=3, core_per_cluster=2,
                                      bias_features=9, bias_strength=0.9,
                                      noise_flip=0.02, seed=8))
        hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=1000.0, lambda3=1.0)
        with monkeypatch.context() as patch:
            patch.setattr(dckm.solver, "WEIGHT_STEPS", 3)
            _, capped = balance_only_weights(ds.X, replace(hp, max_outer_iters=1))
        assert len(capped) == 4  # the start value and the 3 capped steps
        _, history = balance_only_weights(ds.X, hp)
        assert len(history) - 1 < hp.max_outer_iters * dckm.solver.WEIGHT_STEPS
        small = [abs(b - a) <= hp.outer_tol * max(1.0, abs(a))
                 for a, b in zip(history, history[1:])]
        assert small[-1] and not any(small[:-1])

    @pytest.mark.parametrize("lambdas", [(1.0, 1e2), (1e3, 1e3), (1e-2, 1e-2)])
    def test_distinct_rows_equal_full_row_descent(self, lambdas):
        rng = np.random.default_rng(10)
        U = np.unique(random_binary(rng, 16, 8), axis=0)
        X, _, _ = with_copies(rng, U)
        assert U.shape[0] < X.shape[0] / 3
        hp = HyperParams(n_clusters=2, lambda1=lambdas[0], lambda2=lambdas[1], lambda3=1.0,
                         max_outer_iters=3)
        weights, history = balance_only_weights(X, hp)
        omega, expected = full_row_balance_only_weights(X, hp)
        np.testing.assert_allclose(weights.omega, omega, rtol=1e-10, atol=0)
        np.testing.assert_allclose(history, expected, rtol=1e-12, atol=0)

    def test_fortran_ordered_data_gives_the_same_weights(self):
        X = generate_biased(BiasSpec(n=60, d=24, n_clusters=3, bias_features=5, seed=1)).X
        hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=100.0, max_outer_iters=2)
        weights, history = balance_only_weights(np.asfortranarray(X), hp)
        expected_weights, expected_history = balance_only_weights(X, hp)
        assert np.array_equal(weights.omega, expected_weights.omega)
        assert history == expected_history

    @pytest.mark.parametrize("bad", [2.0, np.nan])
    def test_stage1_rejects_non_binary_data(self, bad):
        X = two_groups()
        X[3, 1] = bad
        with pytest.raises(ValueError, match=r"invalid data matrix: .*\(3, 1\)"):
            balance_only_weights(X, HyperParams(n_clusters=2))

    def test_deterministic(self):
        ds = generate_biased(BiasSpec(n=60, d=10, n_clusters=2, core_per_cluster=2,
                                      bias_features=4, seed=1))
        hp = HyperParams(n_clusters=2, lambda1=1.0, lambda2=100.0, seed=3, restarts=3)
        a = run_method(ds.X, ds.labels, "deckm", hp)
        b = run_method(ds.X, ds.labels, "deckm", hp)
        assert np.array_equal(a.weights, b.weights)
        assert a.lines() == b.lines()


class TestPcaKM:
    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match=NON_FINITE):
            pca_project(non_finite_data(), 2)

    @pytest.mark.parametrize("n_components", [1.5, 2.0, True])
    def test_non_integer_component_count_rejected(self, n_components):
        match = f"n_components must be an integer, got {n_components!r}"
        with pytest.raises(ValueError, match=match):
            pca_project(np.eye(4), n_components)

    def test_lossless_when_data_lies_in_low_dimension(self):
        # two distinct rows duplicated: centered data spans one dimension
        X = np.array([[1, 1, 0, 0], [0, 0, 1, 1]] * 6, dtype=float)
        raw = kmeans(X, 2, seed=5)
        Z, _ = pca_project(X, 1)
        projected = kmeans(Z, 2, seed=5)
        assert nmi(raw.labels, projected.labels) == pytest.approx(1.0)

    def test_k2_gives_one_component(self):
        rng = np.random.default_rng(2)
        X = random_binary(rng, 30, 6)
        record = run_method(X, None, "pcakm", HyperParams(n_clusters=2))
        assert record.params["pca_dims"] == 1
        assert pca_project(X, 1)[1].shape == (6, 1)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(7)
        X = random_binary(rng, 40, 8)
        _, basis = pca_project(X, 3)
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_projection_residual_matches_singular_tail(self):
        rng = np.random.default_rng(14)
        X = rng.random((30, 7))
        centered = X - X.mean(axis=0)
        sing = np.linalg.svd(centered, compute_uv=False)
        for m in (1, 3, 5):
            Z, basis = pca_project(X, m)
            residual = float(np.sum((centered - Z @ basis.T) ** 2))
            assert residual == pytest.approx(float(np.sum(sing[m:] ** 2)), abs=1e-8)

    def test_rank_deficiency_warns_and_uses_available(self):
        X = np.array([[1, 1, 0, 0], [0, 0, 1, 1]] * 5, dtype=float)  # rank 1 centered
        with pytest.warns(UserWarning, match="rank-deficient"):
            Z, basis = pca_project(X, 3)
        assert basis.shape == (4, 1)

    def test_k1_rejected_without_explicit_components(self):
        hp = HyperParams(n_clusters=1)
        with pytest.raises(ValueError):
            run_method(np.eye(3), None, "pcakm", hp)
        assert run_method(np.eye(3), None, "pcakm", hp, pca_dims=1).params["pca_dims"] == 1


class TestDropKM:
    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match=NON_FINITE):
            select_uncorrelated_features(non_finite_data(), 0.7)

    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(4)
        col = random_binary(rng, 30, 1)[:, 0]
        other = random_binary(rng, 30, 1)[:, 0]
        X = np.column_stack([col, col, other])
        kept = select_uncorrelated_features(X, 0.7)
        assert kept == [0, 2]

    def test_disjoint_indicators_all_kept(self):
        X = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 3, dtype=float)
        assert select_uncorrelated_features(X, 0.7) == [0, 1, 2]

    def test_three_mutually_correlated_keep_first(self):
        rng = np.random.default_rng(5)
        base = random_binary(rng, 200, 1)[:, 0]
        def corrupt(col, flips):
            out = col.copy()
            idx = rng.choice(200, size=flips, replace=False)
            out[idx] = 1.0 - out[idx]
            return out
        X = np.column_stack([base, corrupt(base, 6), corrupt(base, 6)])
        corr = np.corrcoef(X, rowvar=False)
        assert np.all(np.abs(corr[np.triu_indices(3, 1)]) > 0.7)
        assert select_uncorrelated_features(X, 0.7) == [0]

    def test_kept_set_independent_of_row_order(self):
        rng = np.random.default_rng(10)
        X = random_binary(rng, 50, 6)
        kept = select_uncorrelated_features(X, 0.5)
        perm = rng.permutation(50)
        assert select_uncorrelated_features(X[perm], 0.5) == kept

    def test_constant_column_kept_by_zero_convention(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(20), random_binary(rng, 20, 2)])
        kept = select_uncorrelated_features(X, 0.1)
        assert 0 in kept

    def test_constant_columns_kept_by_zero_convention(self):
        # At n = 1000 the computed mean of a column of ones is not exactly 1,
        # so two such columns would otherwise correlate at 1.
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(1000), np.ones(1000), random_binary(rng, 1000, 2)])
        assert select_uncorrelated_features(X, 0.1)[:2] == [0, 1]
        assert select_uncorrelated_features(1e8 + X, 0.1)[:2] == [0, 1]

    def test_columns_far_from_zero_keep_the_same_features(self):
        """Correlations come from the centered data, so shifting every entry
        by 1e8 keeps the same features."""
        rng = np.random.default_rng(13)
        X = random_binary(rng, 200, 8)
        X[:, 3] = np.where(rng.random(200) < 0.9, X[:, 0], X[:, 3])
        X[:, 6] = np.where(rng.random(200) < 0.9, 1.0 - X[:, 2], X[:, 6])
        kept = select_uncorrelated_features(X, 0.5)
        assert 3 not in kept and 6 not in kept
        assert select_uncorrelated_features(1e8 + X, 0.5) == kept

    def test_threshold_validation(self):
        for threshold in (0.0, 1.5):
            with pytest.raises(ValueError):
                select_uncorrelated_features(np.eye(3), threshold)
            with pytest.raises(ValueError):
                run_method(np.eye(3), None, "dropkm", HyperParams(n_clusters=2),
                           drop_threshold=threshold)

    def test_runs_kmeans_on_kept_columns(self):
        ds = generate_biased(BiasSpec(n=60, d=10, n_clusters=2, core_per_cluster=2,
                                      bias_features=4, seed=9))
        record = run_method(ds.X, ds.labels, "dropkm", HyperParams(n_clusters=2, seed=1),
                            drop_threshold=0.7)
        kept = select_uncorrelated_features(ds.X, 0.7)
        assert kept and record.kept_features == kept
        assert record.best_objective == kmeans(ds.X[:, kept], 2, seed=1).objective

