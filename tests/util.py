"""Shared test helpers: independent oracles and instance generators."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dckm.core import _weight_vector, as_data_matrix
from dckm.data import BiasSpec, generate_biased
from dckm.decorrelation import GROUP_MASS_EPS, _weighted_gram
from dckm.solver import LINE_SEARCH_MIN_STEP, _row_sq_norms, _weight_gradient, _weight_objective


def random_binary(rng, n, d, p=0.5):
    return (rng.random((n, d)) < p).astype(np.float64)


def wide_matrix(seed):
    """A biased binary matrix of acceptance test C10's widest shape
    (n=2000, d=100, k=5)."""
    spec = BiasSpec(n=2000, d=100, n_clusters=5, core_per_cluster=4, bias_features=60,
                    bias_strength=0.8, noise_flip=0.05, seed=seed)
    return generate_biased(spec).X


def central_difference(fun, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up[i] += step
        down = x.copy()
        down[i] -= step
        grad[i] = (fun(up) - fun(down)) / (2.0 * step)
    return grad


class DegenerateGroupError(ValueError):
    """Raised when a target feature's treated or control group has no weight."""

    def __init__(self, feature: int, group: str):
        self.feature = feature
        self.group = group
        super().__init__(f"feature {feature}: {group} group has no weight mass")


def remaining_features(X, j: int) -> np.ndarray:
    """Copy of X with target column j zeroed out."""
    X = as_data_matrix(X)
    if not 0 <= j < X.shape[1]:
        raise ValueError(f"feature index {j} out of range [0, {X.shape[1]})")
    out = X.copy()
    out[:, j] = 0.0
    return out


def weighted_treated_moment(X, j: int, w) -> np.ndarray:
    """Weighted mean of the remaining features over rows with feature j on."""
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    M = remaining_features(X, j)
    s = X[:, j]
    mass = float(w @ s)
    if mass <= GROUP_MASS_EPS:
        raise DegenerateGroupError(j, "treated")
    return M.T @ (w * s) / mass


def weighted_control_moment(X, j: int, w) -> np.ndarray:
    """Weighted mean of the remaining features over rows with feature j off."""
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    M = remaining_features(X, j)
    c = 1.0 - X[:, j]
    mass = float(w @ c)
    if mass <= GROUP_MASS_EPS:
        raise DegenerateGroupError(j, "control")
    return M.T @ (w * c) / mass


@dataclass
class BalanceResidual:
    """Treated-minus-control moment gap for one target feature.

    ``residual[feature]`` is 0 by construction (the target column is zeroed
    before the group means are taken).
    """

    feature: int
    residual: np.ndarray

    def squared_norm(self) -> float:
        return float(self.residual @ self.residual)


def balance_residual(X, j: int, w) -> BalanceResidual:
    """Difference of the weighted treated and control moments for feature j."""
    treated = weighted_treated_moment(X, j, w)
    control = weighted_control_moment(X, j, w)
    return BalanceResidual(feature=j, residual=treated - control)


def balance_loss_oracle(X, w):
    """Definitional balance loss: explicit per-feature group means."""
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    total = 0.0
    skipped = 0
    for j in range(X.shape[1]):
        s = X[:, j]
        c = 1.0 - s
        alpha = float(w @ s)
        beta = float(w @ c)
        if alpha <= GROUP_MASS_EPS or beta <= GROUP_MASS_EPS:
            skipped += 1
            continue
        M = X.copy()
        M[:, j] = 0.0
        residual = M.T @ (w * s) / alpha - M.T @ (w * c) / beta
        total += float(residual @ residual)
    return total, skipped


def balance_gradient_oracle(X, omega):
    """Gradient of ``balance_loss(X, omega**2)`` in omega, row by row from the
    quotient rule: with u = X @ residual, feature j's weight-space gradient is
    ``2 * (s*(u - ta)/alpha - c*(u - tb)/beta)``, s/c the treated and control
    indicators, alpha/beta the group masses, and ta/tb the residual's inner
    products with the two normalized group moments. Builds every n-by-d term
    explicitly; skipped features contribute zero."""
    X = as_data_matrix(X)
    omega = np.asarray(omega, dtype=np.float64)
    w = omega * omega
    gram = _weighted_gram(X, w)
    col_mass = X.T @ w
    total = float(w.sum())
    control_sums = col_mass[:, None] - gram
    beta = total - col_mass
    valid = (col_mass > GROUP_MASS_EPS) & (beta > GROUP_MASS_EPS * max(1.0, total))
    alpha_safe = np.where(valid, col_mass, 1.0)
    beta_safe = np.where(valid, beta, 1.0)
    R = gram / alpha_safe[None, :] - control_sums / beta_safe[None, :]
    np.fill_diagonal(R, 0.0)
    R[:, ~valid] = 0.0
    U = X @ R
    ta = np.einsum("fj,fj->j", R, gram) / alpha_safe
    tb = np.einsum("fj,fj->j", R, control_sums) / beta_safe
    P = (U - ta[None, :]) / alpha_safe[None, :]
    Q = (U - tb[None, :]) / beta_safe[None, :]
    P[:, ~valid] = 0.0
    Q[:, ~valid] = 0.0
    grad_w = 2.0 * np.sum(X * P - (1.0 - X) * Q, axis=1)
    return 2.0 * omega * grad_w


def objective(X, w, F, G, params):
    """Full joint objective at weights ``w``, centroids ``F`` (d, k) and
    one-hot assignments ``G`` (n, k), through the solver's
    ``_weight_objective``."""
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    n, d = X.shape
    if F.ndim != 2 or F.shape[0] != d:
        raise ValueError(f"centroids must be (d, k) with d={d}, got {F.shape}")
    if G.shape != (n, F.shape[1]):
        raise ValueError(f"assignments must be ({n}, {F.shape[1]}), got {G.shape}")
    w = _weight_vector(w, n)
    return _weight_objective(X, w, _row_sq_norms(X - G @ F.T), params)[0]


def omega_objective(X, F, G, omega, params):
    """Joint objective as a function of the square-root weights alone."""
    omega = np.asarray(omega, dtype=np.float64)
    return objective(X, omega * omega, F, G, params)


def omega_gradient(X, F, G, omega, params):
    """Gradient of :func:`omega_objective` in omega: the solver's own
    ``_weight_gradient``."""
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    return _weight_gradient(X, omega, _row_sq_norms(X - G @ F.T), params)


def direct_backtracking_oracle(X, F, G, omega, params):
    """The weight block scored the definitional way: every backtracking trial
    evaluates the full objective at the candidate omega.

    Returns ``(omega, accepted_step_sizes, stalled)``.
    """
    omega = np.asarray(omega, dtype=np.float64)
    value = omega_objective(X, F, G, omega, params)
    steps = []
    for _ in range(params.max_w_iters):
        g = omega_gradient(X, F, G, omega, params)
        if not np.any(g):
            break
        step = params.grad_step
        while step >= LINE_SEARCH_MIN_STEP:
            candidate = omega - step * g
            candidate_value = omega_objective(X, F, G, candidate, params)
            if candidate_value <= value:
                break
            step *= params.backtrack_shrink
        else:
            return omega, steps, True
        omega, value = candidate, candidate_value
        steps.append(step)
    return omega, steps, False


def lloyd_oracle(X, n_clusters, seed, max_iter, prefer=()):
    """Lloyd's algorithm written out in exact rational arithmetic: plain
    cluster means, each row to its nearest mean, until the labels repeat.

    Starts from the seeded uniform-random labeling that ``kmeans`` documents.
    A row exactly as near to several means goes to the lowest index, or to
    ``prefer[t][i]`` when iteration t has a preferred label among them:
    floating-point iterations see rounded means and may break such a tie
    either way. Returns ``(history, ties)``: every iteration's label vector
    and the number of exact ties met.
    """
    rows = [[Fraction(float(v)) for v in row] for row in np.asarray(X, dtype=np.float64)]
    n = len(rows)
    labels = np.random.default_rng(seed).integers(0, n_clusters, size=n)
    history = []
    ties = 0
    for t in range(max_iter):
        means = []
        for c in range(n_clusters):
            members = [rows[i] for i in range(n) if labels[i] == c]
            assert members, "cluster emptied: the oracle does not re-seed"
            means.append([sum(col) / len(members) for col in zip(*members)])
        new = np.empty(n, dtype=np.int64)
        for i in range(n):
            dists = [sum((x - m) ** 2 for x, m in zip(rows[i], mean)) for mean in means]
            nearest = [c for c in range(n_clusters) if dists[c] == min(dists)]
            ties += len(nearest) > 1
            preferred = prefer[t][i] if t < len(prefer) else None
            new[i] = preferred if preferred in nearest else nearest[0]
        history.append(new)
        if len(history) > 1 and np.array_equal(history[-1], history[-2]):
            break
        labels = new
    return history, ties


def ari_pair_oracle(labels_a, labels_b):
    """Adjusted Rand index by explicit enumeration of all sample pairs."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    n = labels_a.size
    same_a = same_b = same_both = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            sa = labels_a[i] == labels_a[j]
            sb = labels_b[i] == labels_b[j]
            same_a += sa
            same_b += sb
            same_both += sa and sb
    expected = same_a * same_b / pairs
    maximum = (same_a + same_b) / 2.0
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def kmeans_loss_for_labels(X, labels, n_clusters):
    """Within-cluster sum of squares for a fixed labeling (exact means)."""
    loss = 0.0
    for k in range(n_clusters):
        members = X[labels == k]
        if members.shape[0] == 0:
            continue
        centroid = members.mean(axis=0)
        loss += float(np.sum((members - centroid) ** 2))
    return loss
