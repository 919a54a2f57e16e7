"""Clustering agreement metrics and the feature-correlation diagnostic."""

from __future__ import annotations

import numpy as np

from .core import _label_codes, _weight_vector, _work_area, as_data_matrix
from .decorrelation import _weighted_gram

__all__ = ["ari", "contingency_table", "correlation_amount", "nmi"]


def contingency_table(labels_a, labels_b) -> np.ndarray:
    """Joint label counts; cell (i, j) counts samples in cluster i of the
    first labeling and cluster j of the second."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape or labels_a.ndim != 1:
        raise ValueError("labelings must be 1-D vectors of equal length")
    a, b = _label_codes(labels_a), _label_codes(labels_b)
    ka, kb = int(a.max(initial=-1)) + 1, int(b.max(initial=-1)) + 1
    return np.bincount(a * kb + b, minlength=ka * kb).astype(np.int64, copy=False).reshape(ka, kb)


def _entropy(counts_1d: np.ndarray, n: int) -> float:
    p = counts_1d[counts_1d > 0] / n
    return float(-np.sum(p * np.log(p)))


def nmi(labels_a, labels_b) -> float:
    """Normalized mutual information, normalized by the geometric mean of the
    two label entropies.

    When both partitions are single-cluster (both entropies zero) the
    labelings agree trivially and the score is 1.0; when exactly one entropy
    is zero the partitions differ and the score is 0.0.
    """
    counts = contingency_table(labels_a, labels_b)
    n = int(counts.sum())
    if n < 1:
        raise ValueError("labelings must be non-empty")
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    h_a = _entropy(row, n)
    h_b = _entropy(col, n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    nz = counts > 0
    p = counts[nz] / n
    outer = np.outer(row, col)[nz] / (n * n)
    mi = float(np.sum(p * np.log(p / outer)))
    return float(min(max(mi / np.sqrt(h_a * h_b), 0.0), 1.0))


def _pair_count(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) // 2


def _same_partition(counts: np.ndarray) -> bool:
    # Equal as partitions iff each row and column has at most one nonzero cell.
    return bool(
        np.all((counts > 0).sum(axis=1) <= 1) and np.all((counts > 0).sum(axis=0) <= 1)
    )


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index via pair counting with expected-index correction.

    With a degenerate denominator (both labelings all-singletons or both a
    single cluster) returns 1.0 if the partitions are identical, else 0.0.
    """
    counts = contingency_table(labels_a, labels_b)
    n = int(counts.sum())
    if n < 2:
        raise ValueError("ari needs at least 2 samples")
    sum_cells = int(_pair_count(counts).sum())
    sum_a = int(_pair_count(counts.sum(axis=1)).sum())
    sum_b = int(_pair_count(counts.sum(axis=0)).sum())
    total_pairs = n * (n - 1) // 2
    expected = sum_a * sum_b / total_pairs
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0 if _same_partition(counts) else 0.0
    return float((sum_cells - expected) / (maximum - expected))


def _covariance(X: np.ndarray, w=None) -> np.ndarray:
    """Covariance of the columns of float matrix X under weights scaled to sum
    1 (uniform when absent): the balance term's Gram of the centered X, which
    stays accurate far from zero where ``Gram - mean mean^T`` does not."""
    w = np.ones(X.shape[0]) if w is None else _weight_vector(w, X.shape[0])
    total = float(w.sum())
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    w = w / total
    # Centered in C order transposed: the work area then copies nothing.
    return _weighted_gram(_work_area(np.subtract(X.T, (w @ X)[:, None], order="C").T), np.sqrt(w))


def correlation_amount(X, w=None) -> float:
    """Frobenius norm of the (weighted) between-feature covariance matrix.

    Weights are normalized to sum 1 (uniform when absent), so the value is
    invariant to rescaling them. The diagonal is zeroed so per-feature
    variance does not count as correlation.
    """
    X = as_data_matrix(X)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    cov = _covariance(X, w)
    np.fill_diagonal(cov, 0.0)
    return float(np.linalg.norm(cov, "fro"))
