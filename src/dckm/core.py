"""Shared data model: binary data-matrix validation, one-hot assignment
coding, square-root-parameterized sample weights, and solver hyperparameters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "HyperParams",
    "SampleWeights",
    "ValidationReport",
    "as_data_matrix",
    "one_hot_rows",
    "validate_data",
]

_MAX_REPORTED_ENTRIES = 5


def _require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value``, the argument or field ``name``, is
    an integer; numpy integers count, bools and integral floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def as_data_matrix(X) -> np.ndarray:
    """Coerce to a 2-D float64 array (no copy when already in that form)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D data matrix, got ndim={X.ndim}")
    return X


def _weight_vector(w, n: int) -> np.ndarray:
    """Unwrap :class:`SampleWeights` and coerce to a float64 vector of length
    n; raises ValueError unless every weight is finite and non-negative."""
    if isinstance(w, SampleWeights):
        w = w.w
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and non-negative")
    return w


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_data`: fatal errors, warnings, column flags."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    constant_columns: list[int] = field(default_factory=list)


def validate_data(X) -> ValidationReport:
    """Check that ``X`` is a usable binary data matrix.

    Non-finite or non-binary entries are fatal (the pipeline assumes inputs
    were binarized upstream, so anything else is a bug worth surfacing).
    Constant columns are only warned about: plain k-means tolerates them and
    the balancing terms skip them.

    Binary data is proven in one pass, with one ``(X == 0) | (X == 1)`` mask;
    its constant columns are those whose sum is 0 or n, which is exact for
    0/1 entries in any summation order. Only when the mask fails do the
    scans that locate the first bad entries run.
    """
    X = as_data_matrix(X)
    n, d = X.shape
    if n < 2 or d < 2:
        raise ValueError(f"need at least 2 samples and 2 features, got {n}x{d}")

    errors = []
    if ((X == 0.0) | (X == 1.0)).all():
        mass = np.ones(n) @ X
        constant = np.flatnonzero((mass == 0.0) | (mass == n)).tolist()
    else:
        finite = np.isfinite(X)
        errors = [f"non-finite entry at ({i}, {j})" for i, j in _first_positions(~finite)]
        nonbinary = finite & (X != 0.0) & (X != 1.0)
        errors += [
            f"entry ({i}, {j}) non-binary: {float(X[i, j])!r}"
            for i, j in _first_positions(nonbinary)
        ]
        constant = np.flatnonzero(np.all(X == X[0], axis=0)).tolist()
    warnings = [f"column {j} constant" for j in constant]
    return ValidationReport(
        ok=not errors, errors=errors, warnings=warnings, constant_columns=constant
    )


def _binary_data(X) -> np.ndarray:
    """:func:`as_data_matrix`, raising ValueError when :func:`validate_data`
    finds a fatal error (the balancing loss is defined for binary data only)."""
    X = as_data_matrix(X)
    report = validate_data(X)
    if not report.ok:
        raise ValueError("invalid data matrix: " + "; ".join(report.errors))
    return X


def _distinct_rows(X: np.ndarray):
    """The distinct rows of a binary matrix, in order of first occurrence.

    Returns ``(U, inverse, counts)`` with ``X == U[inverse]`` and ``counts``
    (float64) the number of copies of each row of U. Rows are keyed by their
    packed bits, so X must be data that :func:`_binary_data` accepted.
    """
    # Each packed row is viewed as one void key, which needs C order.
    packed = np.packbits(np.ascontiguousarray(X) != 0.0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return X[first[order]], rank[inverse.ravel()], counts[order].astype(np.float64)


class _WorkArea(NamedTuple):
    """Scratch space for the weight descents on data X (n by d), so that no
    trial or step allocates an n-by-d temporary: ``XT``, X transposed into C
    order, and one array of n*d float64 entries, seen as ``buf`` (n by d) and
    ``buf_t`` (d by n), that each weighted Gram, gradient product and
    residual computation overwrites; no kernel returns a view of it."""

    XT: np.ndarray
    buf: np.ndarray
    buf_t: np.ndarray


def _work_area(X: np.ndarray) -> _WorkArea:
    """A :class:`_WorkArea` for X."""
    flat = np.empty(X.size)
    return _WorkArea(np.ascontiguousarray(X.T), flat.reshape(X.shape), flat.reshape(X.T.shape))


class _WeightProblem(NamedTuple):
    """One weight descent's problem, centroids and labels fixed: rows ``X``
    that stand for ``m`` copies each, their squared residuals ``resid_sq``,
    the ``params`` and the :class:`_WorkArea` of X."""

    X: np.ndarray
    m: np.ndarray | float
    resid_sq: np.ndarray
    params: HyperParams
    work: _WorkArea


def _prepare(X):
    """``(X, U, inverse, m, work)``, what the fits on one X share: X checked
    by :func:`_binary_data`, its :func:`_distinct_rows` and U's work area."""
    X = _binary_data(X)
    U, inverse, m = _distinct_rows(X)
    return X, U, inverse, m, _work_area(U)


def _first_positions(mask: np.ndarray, limit: int = _MAX_REPORTED_ENTRIES):
    rows, cols = np.nonzero(mask)
    return [(int(i), int(j)) for i, j in zip(rows[:limit], cols[:limit])]


def _one_hot(labels: np.ndarray, n_clusters: int) -> np.ndarray:
    """:func:`one_hot_rows` without its checks, for integer labels that are
    known to lie in [0, n_clusters), such as an argmin over n_clusters
    columns or a draw from that range."""
    G = np.zeros((labels.size, n_clusters), dtype=np.float64)
    G[np.arange(labels.size), labels] = 1.0
    return G


def one_hot_rows(labels, n_clusters: int) -> np.ndarray:
    """Encode integer cluster ids as a one-hot (n, n_clusters) float matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D vector")
    if labels.size and not np.all(labels == labels.astype(np.int64)):
        raise ValueError("labels must be integers")
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_clusters):
        bad = labels[(labels < 0) | (labels >= n_clusters)][0]
        raise ValueError(f"label {bad} out of range [0, {n_clusters})")
    return _one_hot(labels, n_clusters)


class SampleWeights:
    """Non-negative per-sample weights stored through their square roots.

    ``w = omega * omega`` elementwise, so any real ``omega`` yields valid
    weights and gradient steps on ``omega`` never need projection. ``w`` is
    computed once from ``omega`` and the two stay exactly in sync.
    """

    __slots__ = ("omega", "w")

    def __init__(self, omega):
        omega = np.asarray(omega, dtype=np.float64)
        if omega.ndim != 1:
            raise ValueError("omega must be a 1-D vector")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega must be finite")
        w = omega * omega
        if float(w.sum()) <= 0.0:
            raise ValueError("weights must not be all zero")
        self.omega = omega
        self.w = w

    @classmethod
    def uniform(cls, n: int) -> "SampleWeights":
        """Weights 1/n for every sample (omega_i = sqrt(1/n)), summing to 1."""
        if n < 1:
            raise ValueError("need at least one sample")
        return cls(np.full(n, math.sqrt(1.0 / n)))

    def __len__(self) -> int:
        return self.omega.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"SampleWeights(n={len(self)}, sum={float(self.w.sum()):.6g})"


@dataclass(frozen=True)
class HyperParams:
    """Penalty weights and solver controls.

    lambda1 scales the moment-balancing loss, lambda2 the squared norm of the
    weights, lambda3 the (sum-to-one) penalty keeping weights from collapsing
    to zero. max_outer_iters caps a fit's sweeps; a fit converges when a
    sweep changes no label and moves the objective by at most outer_tol
    (relative). How many gradient steps each sweep's weight update takes and
    how each weight line search picks its trial steps are fixed in
    :mod:`dckm.solver` (WEIGHT_STEPS, FIRST_TRIAL_STEP, BACKTRACK_SHRINK).
    """

    n_clusters: int
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    max_outer_iters: int = 100
    outer_tol: float = 1e-6
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        for name in ("n_clusters", "max_outer_iters", "seed", "restarts"):
            _require_integer(name, getattr(self, name))
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        for name in ("lambda1", "lambda2", "lambda3"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
        if not (math.isfinite(self.outer_tol) and self.outer_tol > 0):
            raise ValueError("outer_tol must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
