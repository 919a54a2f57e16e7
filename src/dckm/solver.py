"""Joint solver: weighted k-means coupled with the moment-balancing loss.

The objective is

    sum_i w_i * ||X_i - assigned centroid||^2
      + lambda1 * balance_loss(X, w)
      + lambda2 * ||w||^2
      + lambda3 * (sum_i w_i - 1)^2

minimized by block descent: a closed-form centroid update (per-cluster
weighted means), an exhaustive per-row assignment search, and backtracking
gradient descent on the square-root weight parameterization, each line search
starting at the Barzilai-Borwein step of the previous one. Each trial scores
the objective directly, with one weighted Gram and one set of balance
residuals, and the accepted trial hands both to the next step's gradient. A
trial whose balance-free terms alone already exceed the search's start value
is rejected before its Gram is built: the balance term is non-negative, so
the full value is at least as large, and the search would reject it anyway.
Each descent is one :class:`dckm.core._WeightProblem`: the rows, their
counts, their squared residuals, the hyperparameters and one work area
(:func:`dckm.core._work_area`) that every Gram, gradient product and set of
squared residuals is written into, so no trial or step allocates an n-by-d
array. The restarts of one :func:`fit_restarts` call share one validated X,
one set of distinct rows and one work area.
Every block is non-increasing in the objective, so the recorded per-sweep
objective values form a monotone sequence. :mod:`dckm.baselines` composes the
one weight descent (:func:`_descend`) and the one Lloyd loop (:func:`_lloyd`).

The objective sees the data only through each row's value, and identical
rows share their label and, from uniform weights, their weight. So
:func:`fit` and the weight descent of ``balance_only_weights`` run on the
distinct rows U with their counts m, as one sample each of weight
``w' = m*w`` (``omega' = sqrt(m)*omega``). The k-means term, sum(w), the
balance term and their gradients then need no change; the ||w||^2 term
divides by m. A gradient step on omega' is sqrt(m) times the step on omega,
so the iterates are those of the fit on all rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    HyperParams,
    SampleWeights,
    _one_hot,
    _prepare,
    _require_integer,
    _weight_vector,
    _WeightProblem,
    _work_area,
    as_data_matrix,
)
from .decorrelation import (
    GROUP_MASS_EPS,
    _residuals,
    _weighted_gram,
    balance_gradient,
)

__all__ = [
    "EmptyClusterError",
    "FitResult",
    "fit",
    "fit_restarts",
    "update_assignments",
    "update_centroids",
    "update_weights",
]

# The weight descent: the gradient steps of each sweep's weight update; its
# line search's first trial step with no earlier step, the factor each
# rejected trial step is multiplied by, and the smallest step tried.
WEIGHT_STEPS = 5
FIRST_TRIAL_STEP = 0.1
BACKTRACK_SHRINK = 0.5
LINE_SEARCH_MIN_STEP = 1e-16
_RESEED_MAX_FAILURES = 3


class EmptyClusterError(RuntimeError):
    """A cluster lost all members and re-seeding could not repopulate it."""

    def __init__(self, clusters):
        self.clusters = list(clusters)
        super().__init__(f"empty cluster(s) {self.clusters} could not be re-seeded")


def _row_sq_norms(A: np.ndarray, out=None) -> np.ndarray:
    """Each row's squared norm; the squares go to ``out`` (A's shape) when
    given, which may be A itself."""
    return np.sum(np.multiply(A, A, out=out), axis=1)


def _resid_sq(X, F, G, out=None) -> np.ndarray:
    """Each row's squared distance to its centroid, ``||x_i - F g_i||^2``,
    computed in one n-by-d array: ``out`` (X's shape) when given, else a new
    one."""
    D = np.matmul(G, F.T, out=out)
    return _row_sq_norms(np.subtract(X, D, out=D), out=D)


def _weight_gradient(problem: _WeightProblem, omega, parts=None) -> np.ndarray:
    """Gradient in omega of the joint objective at ``w = omega**2``.

    Per coordinate: 2*omega_i times the sample's squared reconstruction
    residual, plus the balancing gradient scaled by lambda1, plus
    4*lambda2*omega_i^3/m_i and 4*lambda3*(sum(omega^2)-1)*omega_i from the
    two penalty terms, for rows that stand for ``m`` copies each (see the
    module docstring). ``parts``, from :func:`_weight_point` at this omega,
    and the problem's work area are passed on to :func:`balance_gradient`,
    which builds the parts when None.
    """
    params = problem.params
    grad = 2.0 * omega * problem.resid_sq
    grad += 4.0 * params.lambda2 * omega**3 / problem.m
    grad += 4.0 * params.lambda3 * (float(omega @ omega) - 1.0) * omega
    if params.lambda1 != 0.0:
        grad += params.lambda1 * balance_gradient(problem.X, omega, parts, problem.work)
    return grad


def _weight_point(problem: _WeightProblem, omega, parts=None, ceiling=np.inf):
    """The joint objective at ``w = omega**2``, with each row's squared
    reconstruction residual ``problem.resid_sq`` fixed; the ||w||^2 term is
    ``sum(w**2 / m)``, for rows that stand for ``m`` copies each.

    Returns ``(value, skipped_features, parts)``: ``parts``, the balance term's
    Gram and residuals from :func:`_residuals`, is for :func:`_weight_gradient`
    at the same omega, or None when lambda1 is 0. Given ``parts`` from an
    earlier call at this omega, it takes the balance value from them instead
    of building the Gram and residuals again: the balance term depends on
    omega alone, and only ``resid_sq`` has changed. The value is bit for bit
    the direct evaluation ``tests/util.py::weight_objective(X, omega**2, ...)``,
    except at all-zero weights, which no :class:`SampleWeights` holds: there it
    is +inf, so that a line search never accepts them.

    When the balance-free part ``v`` (the k-means, ||w||^2 and sum terms)
    already exceeds ``ceiling``, returns ``(v, 0, None)`` without building a
    Gram. The full value is then above ``ceiling`` too: lambda1 * balance is
    non-negative and rounding to nearest is monotone, so ``v + lambda1 *
    balance`` rounds to at least ``v``. A line search that passes its start
    value as ``ceiling`` rejects such a point either way.
    """
    params = problem.params
    w = omega * omega
    total = float(w.sum())
    if total <= 0.0:
        return np.inf, 0, None
    value = float(w @ problem.resid_sq)
    value += params.lambda2 * float(w @ (w / problem.m))
    value += params.lambda3 * (total - 1.0) ** 2
    if params.lambda1 == 0.0 or value > ceiling:
        return value, 0, None
    if parts is None:
        bal, parts = _residuals(_weighted_gram(problem.work, omega), problem.X.T @ w, total)
    else:
        bal = parts[-1]
    return value + params.lambda1 * bal.value, bal.skipped_features, parts


def _weighted_means(X, w, G, m):
    """Per-cluster weighted means and the list of memberless clusters, for
    rows that stand for ``m`` copies each.

    A cluster whose members carry (numerically) zero total weight keeps the
    plain mean of its members: the weighted loss is indifferent to its
    centroid, and a finite deterministic value keeps the iteration stable.
    """
    k = G.shape[1]
    counts = G.T @ m
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
            F[:, c] = (X.T @ (G[:, c] * m)) / counts[c]
    return F, empty


def update_centroids(X, w, G) -> np.ndarray:
    """Closed-form centroid update: each column is its cluster's weighted mean.

    Raises :class:`EmptyClusterError` when a cluster has no members; the fit
    loop owns the re-seeding policy.
    """
    X = as_data_matrix(X)
    w = _weight_vector(w, X.shape[0])
    G = np.asarray(G, dtype=np.float64)
    F, empty = _weighted_means(X, w, G, np.ones(X.shape[0]))
    if empty:
        raise EmptyClusterError(empty)
    return F


def update_assignments(X, F, row_sq=None) -> np.ndarray:
    """Assign every row to its nearest centroid.

    The squared distances come from one matrix product, as
    ``||f_c||^2 - 2 x_i . f_c + ||x_i||^2``; a row whose computed distances
    tie goes to the lowest index. ``row_sq`` holds the rows' ``||x_i||^2``,
    which :func:`fit` and :func:`_lloyd` compute once per loop; it is computed
    here when not given. The term is the same for every cluster of a row, but
    it rounds the distances at their own scale, so that exactly equidistant
    centroids tie. Independent of the sample weights: a row's best cluster
    does not change under positive rescaling of its own loss term.
    """
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    if row_sq is None:
        row_sq = _row_sq_norms(X)
    dists = np.sum(F * F, axis=0) - 2.0 * (X @ F) + row_sq[:, None]
    return _one_hot(np.argmin(dists, axis=1), F.shape[1])


def _centroids_with_recovery(X, w, G, m):
    """Centroid update with empty-cluster re-seeding, for rows that stand
    for ``m`` copies each and carry their copies' total weight ``w``.

    Each empty cluster is re-seeded at the not-yet-taken row with the largest
    weighted residual of one copy, then assignments are redone. On distinct
    rows, two empty clusters are never re-seeded at two copies of one row. A
    round that does not reduce the number of empty clusters counts as a
    failure; after _RESEED_MAX_FAILURES failures the fit gives up.
    """
    failures = 0
    prev_empty = None
    while True:
        F, empty = _weighted_means(X, w, G, m)
        if not empty:
            return F, G
        if prev_empty is not None and len(empty) >= prev_empty:
            failures += 1
            if failures >= _RESEED_MAX_FAILURES:
                raise EmptyClusterError(empty)
        prev_empty = len(empty)
        residuals = w / m * _resid_sq(X, F, G)
        order = np.argsort(-residuals, kind="stable")
        for cluster, i in zip(empty, order):
            F[:, cluster] = X[i]
        G = update_assignments(X, F)


def _backtrack(fun, f0, step):
    """Shrink the step by BACKTRACK_SHRINK until the objective stops increasing.

    ``fun(t)`` scores step size t along the descent direction and returns a
    tuple whose first item is the objective there; each call is one trial.
    Returns ``(t, trial)`` for the first trial with objective <= f0, ``trial``
    being the tuple ``fun(t)`` returned, or ``(0.0, None)`` when no step down
    to LINE_SEARCH_MIN_STEP gets there.
    """
    while step >= LINE_SEARCH_MIN_STEP:
        trial = fun(step)
        if trial[0] <= f0:
            return step, trial
        step *= BACKTRACK_SHRINK
    return 0.0, None


class WeightUpdate(NamedTuple):
    """Outcome of a weight descent: the new weights, whether a line search
    stalled, the objective ``history`` (the start value, then one per accepted
    step), the balance term's ``skipped_features`` at the new weights, the
    ``descent`` state ``(step, gradient)`` of the last accepted step (None if
    none yet), from which the next descent's first trial step follows,
    ``line_searches``, each line search's number of trials in order (a
    stalled search is the last one), and the balance term's ``parts`` at the
    new weights (None when lambda1 is 0), with which the next descent starts
    without building them again."""

    weights: SampleWeights
    stalled: bool
    history: list[float]
    skipped_features: int
    descent: tuple[float, np.ndarray] | None
    line_searches: list[int]
    parts: tuple | None


def _first_trial(descent, g) -> float:
    """Where a line search with gradient ``g`` starts.

    With no previous accepted step, at FIRST_TRIAL_STEP. Otherwise at the
    Barzilai-Borwein step ||s||^2 / s.y of the previous step t along its
    gradient g_prev, with s = -t g_prev and y = g - g_prev, which is
    ``t ||g_prev||^2 / (||g_prev||^2 - g_prev.g)``. It falls back to t when
    s.y <= 0 or when the proposal is not finite or is below
    LINE_SEARCH_MIN_STEP.
    """
    if descent is None:
        return FIRST_TRIAL_STEP
    t, g_prev = descent
    gg = float(g_prev @ g_prev)
    curvature = gg - float(g_prev @ g)
    if not curvature > 0.0:
        return t
    proposal = t * gg / curvature
    return proposal if LINE_SEARCH_MIN_STEP <= proposal < np.inf else t


def _descend(problem: _WeightProblem, omega, max_steps, tol=None, descent=None, parts=None):
    """Up to ``max_steps`` (>= 1) backtracking gradient steps on omega, each
    search starting at :func:`_first_trial` of the last accepted step, carried
    in from ``descent`` when given. Every trial scores ``omega - t*g`` with
    :func:`_weight_point`, with the search's start value as the ceiling: a
    trial whose balance-free terms already exceed it is rejected without a
    Gram, as its full value would be, and every other trial builds one
    weighted Gram and one set of balance residuals. The accepted trial's
    omega, value, Gram and residuals become the next step's start, so no step
    rebuilds its starting point. A trial whose weights are all zero scores
    +inf, so the search shrinks past it: when every row has the same residual
    the gradient is parallel to omega, and a step can land on omega = 0.
    Stops early at a zero gradient, at a stall (no non-increasing step), or
    after a step whose relative objective change is at most ``tol``.
    ``parts``, when given, are the balance term's parts at the start omega,
    whose balance value the start reuses. Returns the :class:`WeightUpdate`
    at the final omega, with each search's trial count.
    """
    value, skipped, parts = _weight_point(problem, omega, parts)
    history = [value]
    line_searches = []
    stalled = False
    for _ in range(max_steps):
        g = _weight_gradient(problem, omega, parts)
        if not g.any():
            break
        line_searches.append(0)

        def score(t):
            line_searches[-1] += 1
            point = omega - t * g
            return (*_weight_point(problem, point, None, value), point)

        t, trial = _backtrack(score, value, _first_trial(descent, g))
        if trial is None:
            stalled = True
            break
        value, skipped, parts, omega = trial
        descent = (t, g)
        history.append(value)
        if tol is not None and abs(value - history[-2]) <= tol * max(1.0, abs(history[-2])):
            break
    return WeightUpdate(
        SampleWeights(omega), stalled, history, skipped, descent, line_searches, parts
    )


def update_weights(X, F, G, omega, params: HyperParams, descent=None, counts=1.0,
                   parts=None, work=None) -> WeightUpdate:
    """Run up to WEIGHT_STEPS backtracking gradient steps on omega with
    centroids F and assignments G fixed; ``stalled`` in the returned
    :class:`WeightUpdate` means a line search found no non-increasing step.
    ``descent`` is the state a previous call returned: without it the first
    search starts at FIRST_TRIAL_STEP. ``parts`` is that call's ``parts``,
    given only when omega is that call's omega on the same X: the start
    point's Gram, residuals and balance value are then not computed again.
    When row i of X stands for ``counts[i]`` identical rows, omega_i is
    sqrt(counts[i]) times their common omega.

    ``work``, from ``core._work_area(X)`` and built here when not given,
    takes the rows' squared residuals and every Gram and gradient product of
    the descent; nothing returned refers to it."""
    X = as_data_matrix(X)
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64).copy()
    work = work or _work_area(X)
    m = np.asarray(counts, dtype=np.float64)
    problem = _WeightProblem(X, m, _resid_sq(X, F, G, work.buf), params, work)
    return _descend(problem, omega, WEIGHT_STEPS, descent=descent, parts=parts)


@dataclass
class FitResult:
    """State at exit plus the per-sweep objective trace; ``line_searches``
    holds every weight line search's trial count, in order, and
    ``stalled_sweeps`` counts the sweeps whose weight update stalled."""

    centroids: np.ndarray
    assignments: np.ndarray
    weights: SampleWeights
    objective_history: list[float]
    converged: bool
    iterations: int
    skipped_features_last: int
    line_searches: list[int]
    stalled_sweeps: int

    @property
    def labels(self) -> np.ndarray:
        return self.assignments.argmax(axis=1)

    @property
    def objective(self) -> float:
        return self.objective_history[-1]


def _initial_assignments(n: int, n_clusters: int, seed: int) -> np.ndarray:
    """The seeded uniform-random one-hot start of :func:`fit` and :func:`_lloyd`."""
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds sample count {n}")
    labels = np.random.default_rng(seed).integers(0, n_clusters, size=n)
    return _one_hot(labels, n_clusters)


def fit(X, params: HyperParams, *, _prepared=None) -> FitResult:
    """Alternate centroid, assignment and weight updates until the objective
    settles.

    Starts from a uniform-random labeling seeded by ``params.seed`` and
    uniform weights summing to one. ``converged`` means that, in one sweep,
    no label changed and the objective moved by at most ``outer_tol``
    (relative); it does not mean a stationary point of the objective.
    Otherwise the fit stops after ``max_outer_iters`` sweeps. The weight
    descent's step state carries from sweep to sweep, so only the first line
    search starts at FIRST_TRIAL_STEP. So do the balance term's parts at the
    accepted weights: centroids and assignments change only the k-means term,
    so the next sweep's start takes its balance value and gradient parts from
    them. Lloyd iterations with fixed weights are :func:`_lloyd`.

    The random start labels every row, so the first centroid update runs on
    all of X; every later update runs on the distinct rows with their counts
    (see the module docstring), and the labels and weights are expanded back
    to all rows at the end. ``_prepared`` is ``core._prepare(X)``, which
    :func:`fit_restarts` hands to each of its restarts.
    """
    X, U, inverse, m, work = _prepared or _prepare(X)
    n = X.shape[0]
    G = _initial_assignments(n, params.n_clusters, params.seed)
    F, _ = _centroids_with_recovery(X, SampleWeights.uniform(n).w, G, np.ones(n))
    omega = np.sqrt(m / n)

    history: list[float] = []
    line_searches: list[int] = []
    stalled_sweeps = 0
    descent = parts = None
    converged = False
    row_sq = _row_sq_norms(U, out=work.buf)
    for sweep in range(params.max_outer_iters):
        previous_G = G
        if sweep:
            F, G = _centroids_with_recovery(U, omega * omega, G, m)
        G = update_assignments(U, F, row_sq)
        update = update_weights(U, F, G, omega, params, descent, m, parts, work)
        omega, descent, parts = update.weights.omega, update.descent, update.parts
        history.append(update.history[-1])
        line_searches += update.line_searches
        stalled_sweeps += update.stalled
        if (
            sweep
            and abs(history[-1] - history[-2]) <= params.outer_tol * max(1.0, abs(history[-2]))
            and np.array_equal(G, previous_G)
        ):
            converged = True
            break
    return FitResult(
        centroids=F,
        assignments=G[inverse],
        weights=SampleWeights((omega / np.sqrt(m))[inverse]),
        objective_history=history,
        converged=converged,
        iterations=len(history),
        skipped_features_last=update.skipped_features,
        line_searches=line_searches,
        stalled_sweeps=stalled_sweeps,
    )


@dataclass
class KMeansResult:
    """Outcome of :func:`_lloyd`: ``objective`` is the (weighted) within-cluster
    sum of squares; ``converged`` means the labels repeated."""

    centroids: np.ndarray
    assignments: np.ndarray
    labels: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _lloyd(X, w, n_clusters, seed, max_iter, weighted_loss) -> KMeansResult:
    """Lloyd iterations with fixed weights ``w``, from :func:`fit`'s start,
    until the labels repeat or for ``max_iter`` iterations; the objective is
    weighted or plain per ``weighted_loss``. Raises ValueError unless
    ``n_clusters``, ``seed`` and ``max_iter`` are integers (bools are not)."""
    for name, value in (("n_clusters", n_clusters), ("seed", seed), ("max_iter", max_iter)):
        _require_integer(name, value)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    G = _initial_assignments(X.shape[0], n_clusters, seed)
    previous = None
    converged = False
    row_sq = _row_sq_norms(X)
    ones = np.ones(X.shape[0])
    for iterations in range(1, max_iter + 1):
        F, G = _centroids_with_recovery(X, w, G, ones)
        G = update_assignments(X, F, row_sq)
        labels = G.argmax(axis=1)
        if previous is not None and np.array_equal(labels, previous):
            converged = True
            break
        previous = labels
    resid_sq = _resid_sq(X, F, G)
    objective = float(w @ resid_sq) if weighted_loss else float(resid_sq.sum())
    return KMeansResult(F, G, labels, objective, iterations, converged)


def _restarts(run, params: HyperParams):
    """The one restart loop: ``run(seed)`` for the seeds ``params.seed + i``,
    i < ``params.restarts``, in order. Returns ``(best, runs)``: ``best`` is
    the run with the lowest ``objective``, the first one on ties."""
    runs = [run(params.seed + i) for i in range(params.restarts)]
    return min(runs, key=lambda r: r.objective), runs


def fit_restarts(X, params: HyperParams):
    """Run ``params.restarts`` fits with seeds seed, seed+1, ... and keep the
    one with the lowest final objective (first wins ties).

    Returns ``(best_result, runs)``: ``runs`` holds every restart's
    :class:`FitResult`, in restart order; deterministic for a fixed base seed.

    The restarts share one validated X, one set of distinct rows and one
    work area, prepared once per call. Each restart is one call of
    :func:`fit`, looked up by name. The benchmark's tracer checks each fit's
    outputs (a non-increasing objective history, the labels, the weights) in
    a hook on ``solver.fit``, so a batched version that bypassed :func:`fit`
    would switch those checks off without failing anything.
    """
    prepared = _prepare(X)
    return _restarts(lambda seed: fit(X, replace(params, seed=seed), _prepared=prepared), params)
