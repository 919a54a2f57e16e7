"""Building blocks of the baseline methods: plain and weighted Lloyd
iterations, balancing weights learned without the k-means term, a PCA
projection and a correlated-feature filter.

The first three run the solver's Lloyd loop and weight descent. The
baselines themselves (k-means, two-step DecKM, PCA-then-k-means and
drop-correlated-features-then-k-means) are compositions of these blocks;
``dckm.cli.run_method`` runs each of them. Every block raises ValueError
that names the first non-finite entry of X, in row-major order.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import solver
from .core import (
    HyperParams,
    SampleWeights,
    _finite_data,
    _prepare,
    _require_integer,
    _weight_vector,
    _WeightProblem,
)
from .metrics import _covariance
from .solver import KMeansResult, _descend, _lloyd

__all__ = [
    "KMeansResult",
    "balance_only_weights",
    "kmeans",
    "pca_project",
    "select_uncorrelated_features",
    "weighted_kmeans",
]


def kmeans(X, n_clusters, seed=0, max_iter=100):
    """Lloyd's algorithm in factorized form, to a fixed point of assignments.

    Starts from a uniform-random labeling drawn with ``seed``. Internally
    runs with a uniform weight vector (weights cancel in the means), sharing
    the exact update and recovery code of the joint solver; the reported
    objective is the plain within-cluster sum of squares.
    """
    X = _finite_data(X)
    w = SampleWeights.uniform(X.shape[0]).w
    return _lloyd(X, w, n_clusters, seed, max_iter, weighted_loss=False)


def weighted_kmeans(X, w, n_clusters, seed=0, max_iter=100):
    """Lloyd iterations on the weighted loss with a fixed weight vector."""
    X = _finite_data(X)
    w = _weight_vector(w, X.shape[0])
    return _lloyd(X, w, n_clusters, seed, max_iter, weighted_loss=True)


def balance_only_weights(X, params: HyperParams):
    """Learn weights from the balancing loss and penalties alone.

    Minimizes lambda1*balance_loss + lambda2*||w||^2 + lambda3*(sum w - 1)^2
    over the square-root parameterization by backtracking gradient descent
    from uniform weights (deterministic: the start point is fixed), for at
    most ``max_outer_iters * WEIGHT_STEPS`` steps (see :mod:`dckm.solver`) or
    until the relative change is at most ``outer_tol``. Runs on the distinct
    rows with their counts, as :func:`dckm.fit` does. Returns ``(weights, objective_history)``.
    Raises ValueError on non-binary or non-finite data, as :func:`dckm.fit` does.
    """
    X, U, inverse, m, work = _prepare(X)
    steps = params.max_outer_iters * solver.WEIGHT_STEPS
    # No k-means term: the joint objective with zero residuals.
    problem = _WeightProblem(U, m, np.zeros(m.size), params, work)
    update = _descend(problem, np.sqrt(m / X.shape[0]), steps, params.outer_tol)
    return SampleWeights((update.weights.omega / np.sqrt(m))[inverse]), update.history


def pca_project(X, n_components):
    """Center columns and project onto the top principal directions.

    Returns ``(projected, basis)`` with orthonormal basis columns. When the
    centered matrix has lower rank than requested, only the available
    components are used (with a warning).
    """
    X = _finite_data(X)
    _require_integer("n_components", n_components)
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
    # Pearson correlation between columns; constant columns (read from X: their
    # computed mean can miss by an ulp and leave a tiny variance) get 0.
    cov = _covariance(X)
    std = np.sqrt(np.diag(cov))
    std[(np.ptp(X, axis=0) == 0) | (std == 0)] = np.inf
    return np.clip(cov / np.outer(std, std), -1.0, 1.0)


def select_uncorrelated_features(X, threshold=0.7) -> list[int]:
    """Greedy scan in column order, dropping any feature whose absolute
    correlation with an already-kept feature exceeds the threshold."""
    X = _finite_data(X)
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
