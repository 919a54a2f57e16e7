"""Joint solver: weighted k-means coupled with the moment-balancing loss.

The objective is

    sum_i w_i * ||X_i - assigned centroid||^2
      + lambda1 * balance_loss(X, w)
      + lambda2 * ||w||^2
      + lambda3 * (sum_i w_i - 1)^2

minimized by block descent: a closed-form centroid update (per-cluster
weighted means), an exhaustive per-row assignment search, and backtracking
gradient descent on the square-root weight parameterization. Every block is
non-increasing in the objective, so the recorded per-sweep objective values
form a monotone sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    HyperParams,
    SampleWeights,
    _weight_vector,
    as_data_matrix,
    one_hot_rows,
    validate_data,
)
from .decorrelation import (
    GROUP_MASS_EPS,
    _loss_from_gram,
    _weighted_gram,
    balance_gradient,
    balance_loss,
)

__all__ = [
    "EmptyClusterError",
    "FitResult",
    "RestartSummary",
    "fit",
    "fit_restarts",
    "update_assignments",
    "update_centroids",
    "update_weights",
]

LINE_SEARCH_MIN_STEP = 1e-16
_RESEED_MAX_FAILURES = 3


class EmptyClusterError(RuntimeError):
    """A cluster lost all members and re-seeding could not repopulate it."""

    def __init__(self, clusters):
        self.clusters = list(clusters)
        super().__init__(f"empty cluster(s) {self.clusters} could not be re-seeded")


def _row_sq_norms(A: np.ndarray) -> np.ndarray:
    return np.sum(A * A, axis=1)


def _weight_objective(X, w, resid_sq, params: HyperParams):
    """Joint objective at weights ``w`` given each row's squared residual
    ``||X_i - (G F^T)_i||^2``; returns ``(value, skipped_features)``."""
    value = float(w @ resid_sq)
    value += params.lambda2 * float(w @ w)
    value += params.lambda3 * (float(w.sum()) - 1.0) ** 2
    skipped = 0
    if params.lambda1 != 0.0:
        bal = balance_loss(X, w)
        value += params.lambda1 * bal.value
        skipped = bal.skipped_features
    return value, skipped


def _weight_gradient(X, omega, resid_sq, params: HyperParams, gram=None) -> np.ndarray:
    """Gradient of :func:`_weight_objective` at ``w = omega**2`` in omega.

    Per coordinate: 2*omega_i times the sample's squared reconstruction
    residual, plus the balancing gradient scaled by lambda1, plus
    4*lambda2*omega_i^3 and 4*lambda3*(sum(omega^2)-1)*omega_i from the two
    penalty terms. ``gram`` is passed on to :func:`balance_gradient`.
    """
    grad = 2.0 * omega * resid_sq
    grad += 4.0 * params.lambda2 * omega**3
    grad += 4.0 * params.lambda3 * (float(omega @ omega) - 1.0) * omega
    if params.lambda1 != 0.0:
        grad += params.lambda1 * balance_gradient(X, omega, gram)
    return grad


def _weight_ray(X, omega, g, resid_sq, params: HyperParams, gram):
    """:func:`_weight_objective` along the ray ``w(t) = (omega - t*g)**2``.

    The weighted Gram along the ray is ``gram - 2t B + t^2 C``, where ``gram``
    is the Gram of omega**2 (None when lambda1 is 0) and B, C those of
    omega*g and g**2, built here from X*omega and X*g. The k-means term,
    sum(w) and each feature's treated mass are quadratics in t and ||w||^2 a
    quartic, with coefficients from dot products. Returns
    ``value(t) -> (objective, skipped_features)``; a call costs O(d^2)
    instead of the O(n d^2) of a fresh Gram, and ``value(0)`` is
    ``_weight_objective(X, omega**2, ...)`` bit for bit.
    """
    w, wg, gg = omega * omega, omega * g, g * g
    km = (float(w @ resid_sq), float(wg @ resid_sq), float(gg @ resid_sq))
    mass = (float(w.sum()), float(wg.sum()), float(gg.sum()))
    quart = (float(w @ w), float(w @ wg), float(w @ gg), float(wg @ gg), float(gg @ gg))
    lambda1, lambda2, lambda3 = params.lambda1, params.lambda2, params.lambda3
    if lambda1 != 0.0:
        col_mass = (X.T @ w, X.T @ wg, X.T @ gg)
        Xg = X * g[:, None]
        B, C = (X * omega[:, None]).T @ Xg, Xg.T @ Xg

    def value(t):
        a, b = 2.0 * t, t * t
        total = mass[0] - a * mass[1] + b * mass[2]
        v = km[0] - a * km[1] + b * km[2]
        v += lambda2 * (
            quart[0] - 2.0 * a * quart[1] + 6.0 * b * quart[2]
            - 2.0 * a * b * quart[3] + b * b * quart[4]
        )
        v += lambda3 * (total - 1.0) ** 2
        if lambda1 == 0.0:
            return v, 0
        bal = _loss_from_gram(
            gram - a * B + b * C, col_mass[0] - a * col_mass[1] + b * col_mass[2], total
        )
        return v + lambda1 * bal.value, bal.skipped_features

    return value


def _descent_ray(X, omega, resid_sq, params: HyperParams):
    """Gradient ``g`` at omega and :func:`_weight_ray` along ``omega - t*g``,
    sharing the weighted Gram of omega**2; returns ``(g, value)``."""
    gram = _weighted_gram(X, omega * omega) if params.lambda1 != 0.0 else None
    g = _weight_gradient(X, omega, resid_sq, params, gram)
    return g, _weight_ray(X, omega, g, resid_sq, params, gram)


def _weighted_means(X, w, G):
    """Per-cluster weighted means and the list of memberless clusters.

    A cluster whose members carry (numerically) zero total weight keeps the
    plain mean of its members: the weighted loss is indifferent to its
    centroid, and a finite deterministic value keeps the iteration stable.
    """
    k = G.shape[1]
    counts = G.sum(axis=0)
    mass = G.T @ w
    weighted_sums = X.T @ (G * w[:, None])
    F = np.zeros((X.shape[1], k))
    empty = []
    for c in range(k):
        if counts[c] == 0:
            empty.append(c)
        elif mass[c] > GROUP_MASS_EPS:
            F[:, c] = weighted_sums[:, c] / mass[c]
        else:
            F[:, c] = (X.T @ G[:, c]) / counts[c]
    return F, empty


def update_centroids(X, w, G) -> np.ndarray:
    """Closed-form centroid update: each column is its cluster's weighted mean.

    Raises :class:`EmptyClusterError` when a cluster has no members; the fit
    loop owns the re-seeding policy.
    """
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    G = np.asarray(G, dtype=np.float64)
    F, empty = _weighted_means(X, w, G)
    if empty:
        raise EmptyClusterError(empty)
    return F


def update_assignments(X, F) -> np.ndarray:
    """Assign every row to its nearest centroid.

    The squared distances come from one matrix product, as
    ``||f_c||^2 - 2 x_i . f_c + ||x_i||^2``; a row whose computed distances
    tie goes to the lowest index. Independent of the sample weights: a row's
    best cluster does not change under positive rescaling of its own loss
    term.
    """
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    dists = np.sum(F * F, axis=0) - 2.0 * (X @ F) + _row_sq_norms(X)[:, None]
    return one_hot_rows(np.argmin(dists, axis=1), F.shape[1])


def _centroids_with_recovery(X, w, G):
    """Centroid update with empty-cluster re-seeding.

    Each empty cluster is re-seeded at the not-yet-taken sample with the
    largest weighted residual, then assignments are redone. A round that does
    not reduce the number of empty clusters counts as a failure; after
    _RESEED_MAX_FAILURES failures the fit gives up.
    """
    failures = 0
    prev_empty = None
    while True:
        F, empty = _weighted_means(X, w, G)
        if not empty:
            return F, G
        if prev_empty is not None and len(empty) >= prev_empty:
            failures += 1
            if failures >= _RESEED_MAX_FAILURES:
                raise EmptyClusterError(empty)
        prev_empty = len(empty)
        labels = G.argmax(axis=1)
        residuals = w * _row_sq_norms(X - F[:, labels].T)
        order = np.argsort(-residuals, kind="stable")
        for cluster, i in zip(empty, order):
            F[:, cluster] = X[i]
        G = update_assignments(X, F)


def _backtrack(fun, f0, step, shrink):
    """Shrink the step until the objective stops increasing.

    ``fun(t)`` is the objective at step size t along the descent ray; each
    call is one trial. Returns (t, f(t), accepted); accepted is False, with
    t = 0 and f0, when no step down to LINE_SEARCH_MIN_STEP achieves
    f(t) <= f0.
    """
    while step >= LINE_SEARCH_MIN_STEP:
        f_step = fun(step)
        if f_step <= f0:
            return step, f_step, True
        step *= shrink
    return 0.0, f0, False


class WeightUpdate(NamedTuple):
    """Outcome of :func:`update_weights`: the new weights, whether the line
    search stalled, and the objective ``value`` and the balance term's
    ``skipped_features`` at the returned weights."""

    weights: SampleWeights
    stalled: bool
    value: float
    skipped_features: int


def update_weights(X, F, G, omega, params: HyperParams) -> WeightUpdate:
    """Run up to ``max_w_iters`` backtracking gradient steps on omega.

    Each step builds the objective along its descent ray once
    (:func:`_weight_ray`), so every backtracking trial costs O(d^2).
    Returns a :class:`WeightUpdate`; ``stalled`` is True when the line search
    found no non-increasing step, in which case the incoming omega is kept.
    """
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64).copy()
    resid_sq = _row_sq_norms(X - G @ F.T)
    stalled = False
    for _ in range(params.max_w_iters):
        g, ray = _descent_ray(X, omega, resid_sq, params)
        t = 0.0
        if not np.any(g):
            break
        t, _, accepted = _backtrack(
            lambda s: ray(s)[0], ray(0.0)[0], params.grad_step, params.backtrack_shrink
        )
        if not accepted:
            stalled = True
            break
        omega = omega - t * g
    value, skipped = ray(t)
    return WeightUpdate(SampleWeights(omega), stalled, value, skipped)


@dataclass
class FitResult:
    """State at exit plus the per-sweep objective trace."""

    centroids: np.ndarray
    assignments: np.ndarray
    weights: SampleWeights
    objective_history: list[float]
    converged: bool
    iterations: int
    skipped_features_last: int

    @property
    def labels(self) -> np.ndarray:
        return self.assignments.argmax(axis=1)

    @property
    def final_objective(self) -> float:
        return self.objective_history[-1]


def _random_labels(n: int, n_clusters: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n_clusters, size=n)


def fit(X, params: HyperParams) -> FitResult:
    """Alternate centroid, assignment and weight updates until the objective
    settles.

    Starts from a uniform-random labeling seeded by ``params.seed`` and
    uniform weights summing to one. Stops when the relative objective change
    drops below ``outer_tol`` or after ``max_outer_iters`` sweeps. Plain
    Lloyd iterations are :func:`dckm.baselines.kmeans`.
    """
    X = as_data_matrix(X)
    report = validate_data(X)
    if not report.ok:
        raise ValueError("invalid data matrix: " + "; ".join(report.errors))
    n = X.shape[0]
    k = params.n_clusters
    if k > n:
        raise ValueError(f"n_clusters={k} exceeds sample count {n}")
    G = one_hot_rows(_random_labels(n, k, params.seed), k)
    weights = SampleWeights.uniform(n)

    history: list[float] = []
    previous = None
    converged = False
    skipped = 0
    F = np.zeros((X.shape[1], k))
    for _ in range(params.max_outer_iters):
        F, G = _centroids_with_recovery(X, weights.w, G)
        G = update_assignments(X, F)
        update = update_weights(X, F, G, weights.omega, params)
        weights, value, skipped = update.weights, update.value, update.skipped_features
        history.append(value)
        if previous is not None and abs(value - previous) <= params.outer_tol * max(
            1.0, abs(previous)
        ):
            converged = True
            break
        previous = value
    return FitResult(
        centroids=F,
        assignments=G,
        weights=weights,
        objective_history=history,
        converged=converged,
        iterations=len(history),
        skipped_features_last=skipped,
    )


@dataclass
class RestartSummary:
    seed: int
    objective: float
    iterations: int
    converged: bool
    labels: np.ndarray


def fit_restarts(X, params: HyperParams):
    """Run ``params.restarts`` fits with seeds seed, seed+1, ... and keep the
    one with the lowest final objective (first wins ties).

    Returns ``(best_result, summaries)`` with one summary per restart, in
    restart order; deterministic for a fixed base seed.
    """
    best = None
    summaries: list[RestartSummary] = []
    for i in range(params.restarts):
        run_params = replace(params, seed=params.seed + i)
        result = fit(X, run_params)
        summaries.append(
            RestartSummary(
                seed=run_params.seed,
                objective=result.final_objective,
                iterations=result.iterations,
                converged=result.converged,
                labels=result.labels,
            )
        )
        if best is None or result.final_objective < best.final_objective:
            best = result
    return best, summaries
