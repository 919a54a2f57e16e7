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
# the feature is skipped (zero loss, zero gradient). The control mass is
# sum(w) minus the treated mass, so its rounding error grows with sum(w):
# it is held to GROUP_MASS_EPS * max(1, sum(w)) instead.
GROUP_MASS_EPS = 1e-12


class BalanceLoss(NamedTuple):
    value: float
    skipped_features: int


def _weighted_gram(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``X^T diag(w) X``; column j is ``X.T @ (w * X[:, j])``."""
    return X.T @ (X * w[:, None])


def _residuals(gram: np.ndarray, col_mass: np.ndarray, total: float):
    """Every feature's balance residual, from the weighted Gram, each
    feature's treated mass ``X.T @ w`` and the total mass ``sum(w)``.

    Column j of the Gram holds the treated group's sums for target feature
    j; the control sums are their complements against the treated masses.
    Returns ``(R, control_sums, alpha, beta, valid)``: R has one column per
    target feature with the diagonal forced to zero, matching the
    per-feature definition with the target column removed; alpha and beta
    are the group masses, set to 1 for skipped features (``valid`` False).
    """
    control_sums = col_mass[:, None] - gram
    beta = total - col_mass
    valid = (col_mass > GROUP_MASS_EPS) & (beta > GROUP_MASS_EPS * max(1.0, total))
    alpha_safe = np.where(valid, col_mass, 1.0)
    beta_safe = np.where(valid, beta, 1.0)
    R = gram / alpha_safe[None, :] - control_sums / beta_safe[None, :]
    np.fill_diagonal(R, 0.0)
    R[:, ~valid] = 0.0
    return R, control_sums, alpha_safe, beta_safe, valid


def _loss_from_gram(gram: np.ndarray, col_mass: np.ndarray, total: float) -> BalanceLoss:
    """:func:`balance_loss` from the arguments of :func:`_residuals`."""
    R, *_rest, valid = _residuals(gram, col_mass, total)
    return BalanceLoss(float(np.sum(R * R)), int(np.sum(~valid)))


def balance_loss(X, w) -> BalanceLoss:
    """Sum of squared balance residuals over all target features.

    Features with a degenerate treated or control group contribute nothing;
    their count comes back as ``skipped_features``.
    """
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    return _loss_from_gram(_weighted_gram(X, w), X.T @ w, float(w.sum()))


def balance_gradient(X, omega, gram=None) -> np.ndarray:
    """Gradient of ``balance_loss(X, omega**2)`` with respect to ``omega``.

    Derived by the quotient rule per target feature: with u = X @ residual,
    the weight-space gradient of one feature's term is
    ``2 * (s*(u - ta)/alpha - c*(u - tb)/beta)`` where s/c are the treated and
    control indicators, alpha/beta the group masses, and ta/tb the residual's
    inner products with the two normalized group moments. Summed over
    features and chained through w = omega**2. Skipped features contribute
    zero, consistently with :func:`balance_loss`.

    ``gram``, when given, is the weighted Gram ``X^T diag(omega**2) X`` the
    caller has already built; it is used as is.
    """
    X = as_data_matrix(X)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (X.shape[0],):
        raise ValueError(f"omega must have shape ({X.shape[0]},), got {omega.shape}")
    w = omega * omega
    if gram is None:
        gram = _weighted_gram(X, w)
    R, control_sums, alpha_safe, beta_safe, valid = _residuals(gram, X.T @ w, float(w.sum()))
    U = X @ R                               # (n, d): column j = X @ residual_j
    ta = np.einsum("fj,fj->j", R, gram) / alpha_safe
    tb = np.einsum("fj,fj->j", R, control_sums) / beta_safe
    P = (U - ta[None, :]) / alpha_safe[None, :]
    Q = (U - tb[None, :]) / beta_safe[None, :]
    P[:, ~valid] = 0.0
    Q[:, ~valid] = 0.0
    grad_w = 2.0 * np.sum(X * P - (1.0 - X) * Q, axis=1)
    return 2.0 * omega * grad_w
