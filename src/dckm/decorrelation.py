"""Per-feature moment balancing.

For a target feature j of a binary data matrix, the rows with the feature on
form the treated group and the rest the control group. The balance residual
for j is the gap between the weighted means of the *remaining* features
(column j zeroed) in the two groups. The balancing loss sums the squared
residual norms over every target feature, all sharing one global weight
vector; driving it down makes features look mutually uncorrelated under the
weighted distribution.

Weights enter every term as a ratio, so the loss is invariant to rescaling
the weight vector. Features whose treated or control group carries
(numerically) no weight are skipped: there is no group to balance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import _weight_vector, as_data_matrix

__all__ = [
    "GROUP_MASS_EPS",
    "BalanceLoss",
    "balance_gradient",
    "balance_loss",
]

# Below this weighted group mass a feature's balance term is undefined and
# the feature is skipped (zero loss, zero gradient).
GROUP_MASS_EPS = 1e-12


class BalanceLoss(NamedTuple):
    value: float
    skipped_features: int


def _group_stats(X: np.ndarray, w: np.ndarray):
    """Per-feature group masses and unnormalized group sums, batched.

    Column j of ``treated_sums`` equals ``X.T @ (w * X[:, j])``; the control
    sums are the complements against ``X.T @ w``. The residual matrix built
    from these has one column per target feature with the diagonal forced to
    zero, matching the per-feature definition with the target column removed.
    """
    col_mass = X.T @ w                      # treated mass per feature
    total = float(w.sum())
    treated_sums = X.T @ (X * w[:, None])   # (d, d): column j = X^T (w ⊙ X_{.j})
    control_sums = col_mass[:, None] - treated_sums
    alpha = col_mass
    beta = total - col_mass
    valid = (alpha > GROUP_MASS_EPS) & (beta > GROUP_MASS_EPS)
    return treated_sums, control_sums, alpha, beta, valid


def _residual_matrix(X: np.ndarray, w: np.ndarray):
    treated_sums, control_sums, alpha, beta, valid = _group_stats(X, w)
    alpha_safe = np.where(valid, alpha, 1.0)
    beta_safe = np.where(valid, beta, 1.0)
    R = treated_sums / alpha_safe[None, :] - control_sums / beta_safe[None, :]
    np.fill_diagonal(R, 0.0)
    R[:, ~valid] = 0.0
    return R, treated_sums, control_sums, alpha_safe, beta_safe, valid


def balance_loss(X, w) -> BalanceLoss:
    """Sum of squared balance residuals over all target features.

    Features with a degenerate treated or control group contribute nothing;
    their count comes back as ``skipped_features``.
    """
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    R, *_rest, valid = _residual_matrix(X, w)
    return BalanceLoss(float(np.sum(R * R)), int(np.sum(~valid)))


def balance_gradient(X, omega) -> np.ndarray:
    """Gradient of ``balance_loss(X, omega**2)`` with respect to ``omega``.

    Derived by the quotient rule per target feature: with u = X @ residual,
    the weight-space gradient of one feature's term is
    ``2 * (s*(u - ta)/alpha - c*(u - tb)/beta)`` where s/c are the treated and
    control indicators, alpha/beta the group masses, and ta/tb the residual's
    inner products with the two normalized group moments. Summed over
    features and chained through w = omega**2. Skipped features contribute
    zero, consistently with :func:`balance_loss`.
    """
    X = as_data_matrix(X)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (X.shape[0],):
        raise ValueError(f"omega must have shape ({X.shape[0]},), got {omega.shape}")
    w = omega * omega
    R, treated_sums, control_sums, alpha_safe, beta_safe, valid = _residual_matrix(X, w)
    U = X @ R                               # (n, d): column j = X @ residual_j
    ta = np.einsum("fj,fj->j", R, treated_sums) / alpha_safe
    tb = np.einsum("fj,fj->j", R, control_sums) / beta_safe
    P = (U - ta[None, :]) / alpha_safe[None, :]
    Q = (U - tb[None, :]) / beta_safe[None, :]
    P[:, ~valid] = 0.0
    Q[:, ~valid] = 0.0
    grad_w = 2.0 * np.sum(X * P - (1.0 - X) * Q, axis=1)
    return 2.0 * omega * grad_w
