"""Building blocks of the baseline methods: plain and weighted Lloyd
iterations, balancing weights learned without the k-means term, a PCA
projection and a correlated-feature filter.

The baselines themselves (k-means, two-step DecKM, PCA-then-k-means and
drop-correlated-features-then-k-means) are compositions of these blocks;
``dckm.cli.run_method`` runs each of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import HyperParams, SampleWeights, _weight_vector, as_data_matrix, one_hot_rows
from .solver import (
    _backtrack,
    _centroids_with_recovery,
    _descent_ray,
    _random_labels,
    _row_sq_norms,
    update_assignments,
)

__all__ = [
    "KMeansResult",
    "balance_only_weights",
    "kmeans",
    "pca_project",
    "select_uncorrelated_features",
    "weighted_kmeans",
]


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    labels: np.ndarray
    loss: float
    iterations: int
    converged: bool
    assignment_history: list[np.ndarray] | None = None


def _lloyd(X, w, n_clusters, seed, max_iter, track_assignments, weighted_loss):
    X = as_data_matrix(X)
    n = X.shape[0]
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds sample count {n}")
    G = one_hot_rows(_random_labels(n, n_clusters, seed), n_clusters)
    history = [] if track_assignments else None
    previous = None
    converged = False
    F = np.zeros((X.shape[1], n_clusters))
    labels = G.argmax(axis=1)
    iterations = 0
    for _ in range(max_iter):
        F, G = _centroids_with_recovery(X, w, G)
        G = update_assignments(X, F)
        labels = G.argmax(axis=1)
        iterations += 1
        if history is not None:
            history.append(labels.copy())
        if previous is not None and np.array_equal(labels, previous):
            converged = True
            break
        previous = labels
    resid_sq = _row_sq_norms(X - G @ F.T)
    loss = float(w @ resid_sq) if weighted_loss else float(resid_sq.sum())
    return KMeansResult(
        centroids=F,
        assignments=G,
        labels=labels,
        loss=loss,
        iterations=iterations,
        converged=converged,
        assignment_history=history,
    )


def kmeans(X, n_clusters, seed=0, max_iter=100, track_assignments=False):
    """Lloyd's algorithm in factorized form, to a fixed point of assignments.

    Starts from a uniform-random labeling drawn with ``seed``. Internally
    runs with a uniform weight vector (weights cancel in the means), sharing
    the exact update and recovery code of the joint solver; the reported
    loss is the plain within-cluster sum of squares.
    """
    X = as_data_matrix(X)
    w = SampleWeights.uniform(X.shape[0]).w
    return _lloyd(X, w, n_clusters, seed, max_iter, track_assignments, weighted_loss=False)


def weighted_kmeans(X, w, n_clusters, seed=0, max_iter=100, track_assignments=False):
    """Lloyd iterations on the weighted loss with a fixed weight vector."""
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    if np.any(w < 0):
        raise ValueError("w must be a non-negative vector with one entry per sample")
    return _lloyd(X, w, n_clusters, seed, max_iter, track_assignments, weighted_loss=True)


def balance_only_weights(X, params: HyperParams):
    """Learn weights from the balancing loss and penalties alone.

    Minimizes lambda1*balance_loss + lambda2*||w||^2 + lambda3*(sum w - 1)^2
    over the square-root parameterization by backtracking gradient descent
    from uniform weights (deterministic: the start point is fixed). Returns
    ``(weights, objective_history)``.
    """
    X = as_data_matrix(X)
    n = X.shape[0]
    omega = SampleWeights.uniform(n).omega
    resid_sq = np.zeros(n)  # no k-means term: the joint objective with zero residuals
    history = []
    for _ in range(params.max_outer_iters * params.max_w_iters):
        g, ray = _descent_ray(X, omega, resid_sq, params)
        value = ray(0.0)[0]
        if not history:
            history.append(value)
        if not np.any(g):
            break
        t, new_value, accepted = _backtrack(
            lambda s: ray(s)[0], value, params.grad_step, params.backtrack_shrink
        )
        if not accepted:
            break
        omega = omega - t * g
        history.append(new_value)
        if abs(new_value - value) <= params.outer_tol * max(1.0, abs(value)):
            break
    return SampleWeights(omega), history


def pca_project(X, n_components):
    """Center columns and project onto the top principal directions.

    Returns ``(projected, basis)`` with orthonormal basis columns. When the
    centered matrix has lower rank than requested, only the available
    components are used (with a warning).
    """
    X = as_data_matrix(X)
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    centered = X - X.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    if sing.size == 0 or sing[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sing > sing[0] * max(X.shape) * np.finfo(np.float64).eps))
    use = min(n_components, rank)
    if use < n_components:
        warnings.warn(
            f"rank-deficient data: using {max(use, 1)} of {n_components} requested components",
            stacklevel=2,
        )
    use = max(use, 1)
    basis = vt[:use].T
    return centered @ basis, basis


def _column_correlations(X: np.ndarray) -> np.ndarray:
    # Pearson correlation between columns; constant columns get 0 by convention.
    n = X.shape[0]
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / n
    std = np.sqrt(np.diag(cov))
    denom = np.outer(std, std)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(corr, -1.0, 1.0)


def select_uncorrelated_features(X, threshold=0.7) -> list[int]:
    """Greedy scan in column order, dropping any feature whose absolute
    correlation with an already-kept feature exceeds the threshold."""
    X = as_data_matrix(X)
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    corr = _column_correlations(X)
    kept: list[int] = []
    for j in range(X.shape[1]):
        if all(abs(corr[j, k]) <= threshold for k in kept):
            kept.append(j)
    if not kept:
        raise ValueError("all features dropped")
    return kept
