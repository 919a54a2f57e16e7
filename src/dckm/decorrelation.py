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

from .core import _binary_data, _weight_vector, _WorkArea, as_data_matrix

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


def _weighted_gram(X: np.ndarray, root: np.ndarray, work: _WorkArea | None = None) -> np.ndarray:
    """``X^T diag(root**2) X``, built as ``Y.T @ Y`` with ``Y = X * root``
    row-wise. numpy hands a product of a matrix with its own transpose to
    SYRK, which does half the multiply-adds of ``X.T @ (X * w)`` and returns
    an exactly symmetric matrix; the result does not depend on root's signs.

    Given ``work``, the work area of X, it writes ``Yt = X.T * root`` into
    ``work.buf_t`` and returns ``Yt @ Yt.T``: the same products, the same
    SYRK and the same bits, with no n-by-d allocation.
    """
    if work is None:
        Y = X * root[:, None]
        return Y.T @ Y
    Yt = np.multiply(work.XT, root, out=work.buf_t)
    return Yt @ Yt.T


def _residuals(gram: np.ndarray, col_mass: np.ndarray, total: float):
    """Every feature's balance residual, from the weighted Gram, each
    feature's treated mass ``X.T @ w`` and the total mass ``sum(w)``.

    Column j of the Gram holds the treated group's sums for target feature
    j, and ``col_mass - gram[:, j]`` the control group's. Residual j is
    ``gram[:, j] / alpha_j - (col_mass - gram[:, j]) / beta_j``, written as
    ``gram[:, j] * (inv_a + inv_b)_j - col_mass * inv_b_j``, with the
    diagonal forced to zero to match the per-feature definition with the
    target column removed. Returns the :class:`BalanceLoss` and the
    ``parts = (gram, col_mass, R, inv_a, inv_b, s, loss)`` that
    :func:`balance_gradient` takes: inv_a and inv_b are the reciprocal
    treated and control masses alpha and beta, 0 for skipped features, so
    their columns of R vanish; ``s = inv_a + inv_b``. ``loss``, the same
    :class:`BalanceLoss`, rides along so that a caller holding the parts of
    a point has its balance value without computing the residuals again.
    """
    d = col_mass.size
    beta = total - col_mass
    valid = (col_mass > GROUP_MASS_EPS) & (beta > GROUP_MASS_EPS * max(1.0, total))
    inv_a, inv_b = np.zeros(d), np.zeros(d)
    np.divide(1.0, col_mass, out=inv_a, where=valid)
    np.divide(1.0, beta, out=inv_b, where=valid)
    s = inv_a + inv_b
    R = gram * s - col_mass[:, None] * inv_b
    R.flat[:: d + 1] = 0.0  # the diagonal
    loss = BalanceLoss(float(np.vdot(R, R)), d - int(np.count_nonzero(valid)))
    return loss, (gram, col_mass, R, inv_a, inv_b, s, loss)


def balance_loss(X, w) -> BalanceLoss:
    """Sum of squared balance residuals over all target features.

    Features with a degenerate treated or control group contribute nothing;
    their count comes back as ``skipped_features``. The weighted Gram is
    built from ``sqrt(w)``. X must be binary data with at least 2 rows and 2
    columns, as :func:`dckm.fit` takes: an entry other than 0 or 1, a
    non-finite entry, or a negative or non-finite weight raises
    ``ValueError``.
    """
    X = _binary_data(X)
    w = _weight_vector(w, X.shape[0])
    return _residuals(_weighted_gram(X, np.sqrt(w)), X.T @ w, float(w.sum()))[0]


def balance_gradient(X, omega, parts=None, work=None) -> np.ndarray:
    """Gradient of ``balance_loss(X, omega**2)`` with respect to ``omega``.

    By the quotient rule per target feature j, with s/c the treated and
    control indicators, alpha/beta the group masses and r_j the residual
    (column j of R from :func:`_residuals`), row i's weight-space gradient
    of feature j's term is ``2 * (s_ij*(u_ij - ta_j)/alpha_j - c_ij*(u_ij -
    tb_j)/beta_j)`` with ``u = X @ R``, ``ta_j = r_j . gram[:, j] / alpha_j``
    and ``tb_j = r_j . (col_mass - gram[:, j]) / beta_j``. Summed over j,
    with c = 1 - s and s binary, this is

        2 * [ x_i . (X @ (R diag(inv_a + inv_b)))_i
              - x_i . (ta*inv_a + tb*inv_b + R @ inv_b) + tb . inv_b ]

    which costs one n-by-d product plus matrix-vector products. Chained
    through w = omega**2. Skipped features have inv_a = inv_b = 0 and so
    contribute zero, consistently with :func:`balance_loss`.

    ``parts``, when given, is what :func:`_residuals` returned at this omega
    for a caller that has already scored it; it is used as is, its
    ``s = inv_a + inv_b`` included, and X is not checked again. Without
    ``parts``, X must be binary data: an entry other than 0 or 1 or a
    non-finite entry raises ``ValueError``, as in :func:`balance_loss`.
    ``work``, the :class:`dckm.core._WorkArea` of X, holds the n-by-d product
    ``X @ (R diag(s))`` (and the Gram, when built here) instead of a new
    array; the gradient has the same bits either way.
    """
    X = as_data_matrix(X) if parts is not None else _binary_data(X)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (X.shape[0],):
        raise ValueError(f"omega must have shape ({X.shape[0]},), got {omega.shape}")
    if parts is None:
        w = omega * omega
        parts = _residuals(_weighted_gram(X, omega, work), X.T @ w, float(w.sum()))[1]
    gram, col_mass, R, inv_a, inv_b, s, _ = parts
    rg = np.einsum("fj,fj->j", R, gram)
    ta = rg * inv_a
    tb = (col_mass @ R - rg) * inv_b
    XRs = np.matmul(X, R * s, out=None if work is None else work.buf)
    quad = np.einsum("ij,ij->i", X, XRs)
    grad_w = 2.0 * (quad - X @ (ta * inv_a + tb * inv_b + R @ inv_b) + float(tb @ inv_b))
    return 2.0 * omega * grad_w
