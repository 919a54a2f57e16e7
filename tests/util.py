"""Shared test helpers: independent oracles and instance generators."""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

import dckm.solver
from dckm.core import SampleWeights, ValidationReport, _weight_vector, as_data_matrix
from dckm.data import BiasSpec, generate_biased
from dckm.decorrelation import GROUP_MASS_EPS, balance_loss
from dckm.solver import (
    BACKTRACK_SHRINK,
    FIRST_TRIAL_STEP,
    LINE_SEARCH_MIN_STEP,
    _centroids_with_recovery,
    _descend,
    _initial_assignments,
    _row_sq_norms,
    _weight_gradient,
    update_assignments,
    update_weights,
)


def random_binary(rng, n, d, p=0.5):
    return (rng.random((n, d)) < p).astype(np.float64)


def wide_matrix(seed):
    """A biased binary matrix of acceptance test C10's widest shape
    (n=2000, d=100, k=5)."""
    spec = BiasSpec(n=2000, d=100, n_clusters=5, core_per_cluster=4, bias_features=60,
                    bias_strength=0.8, noise_flip=0.05, seed=seed)
    return generate_biased(spec).X


def with_copies(rng, U, most=6):
    """``(X, m, index)``: the rows of U, each repeated 1 to ``most`` times
    (at least one row more than once) and shuffled, with ``X == U[index]``
    and m (float64) the number of copies of each row of U."""
    m = rng.integers(1, most + 1, U.shape[0])
    m[0] = max(m[0], 2)
    index = np.repeat(np.arange(U.shape[0]), m)
    rng.shuffle(index)
    return U[index], m.astype(np.float64), index


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
    explicitly, its weighted Gram included; skipped features contribute
    zero."""
    X = as_data_matrix(X)
    omega = np.asarray(omega, dtype=np.float64)
    w = omega * omega
    gram = X.T @ (X * w[:, None])
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


def balance_free_value(w, resid_sq, params, m=1.0):
    """The joint objective's terms other than the balance term at weights
    ``w``, for rows that stand for ``m`` copies each: the k-means term, the
    ||w||^2 term ``sum(w**2 / m)`` and the sum penalty, added in that order."""
    value = float(w @ resid_sq)
    value += params.lambda2 * float(w @ (w / m))
    value += params.lambda3 * (float(w.sum()) - 1.0) ** 2
    return value


def weight_objective(X, w, resid_sq, params):
    """Joint objective at weights ``w`` given each row's squared residual
    ``||X_i - (G F^T)_i||^2``, evaluated directly (a fresh weighted Gram in
    ``balance_loss``); returns ``(value, skipped_features)``. The solver's
    ``_weight_point`` must reproduce it bit for bit at ``w = omega**2``."""
    value = balance_free_value(w, resid_sq, params)
    skipped = 0
    if params.lambda1 != 0.0:
        bal = balance_loss(X, w)
        value += params.lambda1 * bal.value
        skipped = bal.skipped_features
    return value, skipped


def objective(X, w, F, G, params):
    """Full joint objective at weights ``w``, centroids ``F`` (d, k) and
    one-hot assignments ``G`` (n, k), through :func:`weight_objective`."""
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    n, d = X.shape
    if F.ndim != 2 or F.shape[0] != d:
        raise ValueError(f"centroids must be (d, k) with d={d}, got {F.shape}")
    if G.shape != (n, F.shape[1]):
        raise ValueError(f"assignments must be ({n}, {F.shape[1]}), got {G.shape}")
    w = _weight_vector(w, n)
    return weight_objective(X, w, _row_sq_norms(X - G @ F.T), params)[0]


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

    The first search starts at FIRST_TRIAL_STEP; each later one at the
    Barzilai-Borwein step ||s||^2 / s.y of the previous accepted step t along
    gradient g_prev (s = -t g_prev, y = g - g_prev), written as
    ``t ||g_prev||^2 / (||g_prev||^2 - g_prev.g)``, or at t itself when s.y
    <= 0 or the proposal is not finite or below LINE_SEARCH_MIN_STEP. A
    rejected step is multiplied by BACKTRACK_SHRINK, and a candidate whose
    weights are all zero is rejected.
    Returns ``(omega, accepted_step_sizes, stalled)``.
    """
    omega = np.asarray(omega, dtype=np.float64)
    value = omega_objective(X, F, G, omega, params)
    steps = []
    g_prev = None
    for _ in range(dckm.solver.WEIGHT_STEPS):
        g = omega_gradient(X, F, G, omega, params)
        if not np.any(g):
            break
        step = FIRST_TRIAL_STEP
        if g_prev is not None:
            step = steps[-1]
            norm_sq = float(g_prev @ g_prev)
            denom = norm_sq - float(g_prev @ g)  # s.y / t
            if denom > 0.0 and LINE_SEARCH_MIN_STEP <= step * norm_sq / denom < np.inf:
                step = step * norm_sq / denom
        g_prev = g
        while step >= LINE_SEARCH_MIN_STEP:
            candidate = omega - step * g
            if np.any(candidate * candidate):
                candidate_value = omega_objective(X, F, G, candidate, params)
                if candidate_value <= value:
                    break
            step *= BACKTRACK_SHRINK
        else:
            return omega, steps, True
        omega, value = candidate, candidate_value
        steps.append(step)
    return omega, steps, False


def full_row_fit(X, params):
    """:func:`dckm.fit`'s sweep loop run on every row of X, each row its own
    sample: the random start, then centroid, assignment and weight updates
    until the labels settle and the objective moves by at most
    ``outer_tol``, or for ``max_outer_iters`` sweeps. Returns ``(labels,
    omega, history, margin)``, margin being the smallest gap between a row's
    nearest and second-nearest centroid over all sweeps: a fit with a small
    margin may break a near tie differently on rounded centroids."""
    X = as_data_matrix(X)
    n = X.shape[0]
    ones = np.ones(n)
    G = _initial_assignments(n, params.n_clusters, params.seed)
    weights = SampleWeights.uniform(n)
    history = []
    descent = None
    margin = np.inf
    for _ in range(params.max_outer_iters):
        previous_G = G
        F, G = _centroids_with_recovery(X, weights.w, G, ones)
        dists = np.column_stack([_row_sq_norms(X - f) for f in F.T])
        margin = min(margin, float(np.min(np.diff(np.sort(dists, axis=1)[:, :2], axis=1))))
        G = update_assignments(X, F)
        update = update_weights(X, F, G, weights.omega, params, descent)
        weights, descent = update.weights, update.descent
        history.append(update.history[-1])
        if (
            len(history) > 1
            and abs(history[-1] - history[-2]) <= params.outer_tol * max(1.0, abs(history[-2]))
            and np.array_equal(G, previous_G)
        ):
            break
    return G.argmax(axis=1), weights.omega, history, margin


def full_row_balance_only_weights(X, params):
    """``balance_only_weights`` run on every row of X, each row its own
    sample: the weight descent with zero residuals from uniform weights.
    Returns ``(omega, history)``."""
    X = as_data_matrix(X)
    n = X.shape[0]
    steps = params.max_outer_iters * dckm.solver.WEIGHT_STEPS
    update = _descend(X, SampleWeights.uniform(n).omega, np.zeros(n), params, steps,
                      params.outer_tol)
    return update.weights.omega, update.history


def record_assignments(monkeypatch):
    """Wrap ``dckm.solver.update_assignments`` so that every call appends its
    labels to the returned list, as the benchmark's tracer wraps it.

    The Lloyd loop calls it once per iteration, and once more per
    empty-cluster re-seeding round; :func:`lloyd_oracle` never re-seeds.
    """
    history = []
    original = dckm.solver.update_assignments

    def recording(*args):
        G = original(*args)
        history.append(G.argmax(axis=1))
        return G

    monkeypatch.setattr(dckm.solver, "update_assignments", recording)
    return history


class LineSearch(NamedTuple):
    """One call of ``solver._backtrack``: its first trial step, the number of
    trials it scored and the step it accepted (None on a stall)."""

    first: float
    trials: int
    step: float | None


def record_line_searches(monkeypatch):
    """Wrap ``dckm.solver._backtrack`` so that every weight line search
    appends its :class:`LineSearch` to the returned list, in order, as the
    benchmark's tracer wraps it. The trial counts are counted here
    independently of the ones ``FitResult.line_searches`` reports."""
    searches = []
    original = dckm.solver._backtrack

    def recording(fun, f0, step):
        trials = 0

        def counted(t):
            nonlocal trials
            trials += 1
            return fun(t)

        t, trial = original(counted, f0, step)
        searches.append(LineSearch(step, trials, None if trial is None else t))
        return t, trial

    monkeypatch.setattr(dckm.solver, "_backtrack", recording)
    return searches


def record_screens(monkeypatch):
    """Wrap ``dckm.solver._descend`` and ``dckm.solver._backtrack`` so that
    every weight line search appends, in order, how many of its trials have a
    balance-free part (:func:`balance_free_value`) above the search's start
    value ``f0``: the trials that are rejected without a weighted Gram. Each
    trial's point is the last item of the tuple it scores; its part is
    recomputed here with the descent's ``resid_sq``, ``params`` and ``m``,
    independently of the ceiling the solver passes."""
    screened, descents = [], []
    descend, backtrack = dckm.solver._descend, dckm.solver._backtrack
    signature = inspect.signature(descend)

    def descending(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        descents.append(bound.arguments)
        try:
            return descend(*args, **kwargs)
        finally:
            descents.pop()

    def recording(fun, f0, step):
        context = descents[-1]
        count = 0

        def counted(t):
            nonlocal count
            trial = fun(t)
            point = trial[-1]
            count += balance_free_value(
                point * point, context["resid_sq"], context["params"], context["m"]
            ) > f0
            return trial

        result = backtrack(counted, f0, step)
        screened.append(count)
        return result

    monkeypatch.setattr(dckm.solver, "_descend", descending)
    monkeypatch.setattr(dckm.solver, "_backtrack", recording)
    return screened


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


def save_dataset_oracle(dataset, path) -> None:
    """``dckm.data.save_dataset`` as a per-cell writer: one ``csv.writer``
    row per sample, ``repr(float(v))`` for each cell."""
    path = Path(path)
    d = dataset.X.shape[1]
    names = dataset.feature_names or [f"f{j}" for j in range(d)]
    header = list(names) + (["label"] if dataset.labels is not None else [])
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(dataset.X.shape[0]):
            row = [repr(float(v)) for v in dataset.X[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def validate_data_oracle(X) -> ValidationReport:
    """``dckm.core.validate_data`` with one check per column for the
    constant columns and one per error kind for the first bad entries."""
    X = as_data_matrix(X)
    errors = []
    for i, j in list(zip(*np.nonzero(~np.isfinite(X))))[:5]:
        errors.append(f"non-finite entry at ({i}, {j})")
    nonbinary = np.isfinite(X) & (X != 0.0) & (X != 1.0)
    for i, j in list(zip(*np.nonzero(nonbinary)))[:5]:
        errors.append(f"entry ({i}, {j}) non-binary: {float(X[i, j])!r}")
    constant = [j for j in range(X.shape[1]) if np.all(X[:, j] == X[0, j])]
    return ValidationReport(
        ok=not errors, errors=errors, warnings=[f"column {j} constant" for j in constant],
        constant_columns=constant,
    )
