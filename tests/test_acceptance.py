"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The synthetic-data criteria use the calibrated generator family
(n=500, d=24, k=3, one core feature per cluster, five bias features,
noise 0.005); the comparison protocol fixes lambda3=1 and selects lambda1,
lambda2 per dataset from the {1e-2..1e3} grid by mean NMI over 20 restarts,
with k-means compared on the same restart seeds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dckm.baselines import kmeans
from dckm.core import HyperParams, SampleWeights, one_hot_rows
from dckm.data import BiasSpec, generate_biased, save_dataset
from dckm.decorrelation import balance_loss
from dckm.metrics import ari, correlation_amount, nmi
from dckm.solver import (
    EmptyClusterError,
    fit,
    fit_restarts,
    update_assignments,
    update_centroids,
)

from util import (
    ari_pair_oracle,
    central_difference,
    lloyd_oracle,
    omega_gradient,
    omega_objective,
    random_binary,
    record_assignments,
)

FAMILY = dict(n=500, d=24, n_clusters=3, core_per_cluster=1, bias_features=5,
              noise_flip=0.005)
GRID_VALUES = (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)


def report(number, name, detail):
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({detail})")


def random_state(rng, n, d, k):
    X = random_binary(rng, n, d)
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    G = one_hot_rows(labels, k)
    F = update_centroids(X, np.full(n, 1.0 / n), G)
    return X, F, G


def test_c01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        k = min(k, n)
        X, F, G = random_state(rng, n, d, k)
        omega = rng.uniform(0.7, 1.3, n)
        hp = HyperParams(
            n_clusters=k,
            lambda1=float(rng.uniform(0.1, 2.0)),
            lambda2=float(rng.uniform(0.1, 2.0)),
            lambda3=float(rng.uniform(0.5, 2.0)),
        )
        analytic = omega_gradient(X, F, G, omega, hp)
        fd = central_difference(lambda om: omega_objective(X, F, G, om, hp), omega, 1e-6)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
        assert np.all(np.abs(analytic - fd) / denom <= 1e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, "gradient correctness", f"50 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_block_descent_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for i in range(20):
        X = random_binary(rng, 200, 20, p=float(rng.uniform(0.3, 0.6)))
        hp = HyperParams(
            n_clusters=4,
            lambda1=float(10.0 ** rng.uniform(-2, 1)),
            lambda2=float(10.0 ** rng.uniform(-2, 3)),
            lambda3=1.0,
            max_outer_iters=50,
            outer_tol=1e-300,
            seed=i,
        )
        result = fit(X, hp)
        hist = np.array(result.objective_history)
        assert hist.size == 50
        assert np.all(np.isfinite(hist))
        assert np.all(np.diff(hist) <= 1e-8 * np.maximum(1.0, np.abs(hist[:-1])))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(2, "block-descent monotonicity", f"20 instances x 50 sweeps, {elapsed:.1f}s")


def test_c03_lloyd_reduction(monkeypatch):
    rng = np.random.default_rng(303)
    recorded = record_assignments(monkeypatch)
    exact_ties = 0
    for i in range(10):
        n = int(rng.integers(30, 80))
        d = int(rng.integers(4, 10))
        k = int(rng.integers(2, 5))
        X = random_binary(rng, n, d)
        recorded.clear()
        lloyd = kmeans(X, k, seed=1000 + i, max_iter=60)
        expected, ties = lloyd_oracle(X, k, 1000 + i, 60, prefer=recorded)
        exact_ties += ties
        assert len(recorded) == len(expected)
        for a, b in zip(recorded, expected):
            assert np.array_equal(a, b)
        assert np.array_equal(lloyd.labels, expected[-1])
    report(3, "Lloyd reduction",
           f"10 instances, assignment sequences identical to exact Lloyd, {exact_ties} exact ties")


def test_c04_assignment_oracle():
    rng = np.random.default_rng(404)
    ties_seen = 0
    for case in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        X = random_binary(rng, n, d)
        if case % 3 == 0:
            # coarse centroids make exact distance ties common
            F = rng.integers(0, 2, size=(d, k)).astype(np.float64)
        else:
            F = rng.random((d, k)).round(1)
        G = update_assignments(X, F)
        for i in range(n):
            best, best_dist = 0, np.inf
            tied = False
            for c in range(k):
                diff = X[i] - F[:, c]
                dist = np.sum(diff * diff)
                if dist < best_dist:
                    best, best_dist = c, dist
                elif dist == best_dist:
                    tied = True
            ties_seen += tied
            assert int(G[i].argmax()) == best
    assert ties_seen > 0  # the tie rule was actually exercised
    report(4, "assignment-update oracle", f"100 cases exact, {ties_seen} tied rows")


def test_c05_centroid_update_optimality():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(3, 12))
        k = int(rng.integers(2, 5))
        X = random_binary(rng, n, d)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        G = one_hot_rows(labels, k)
        w = rng.uniform(0.1, 3.0, n)
        F = update_centroids(X, w, G)
        grad = -2.0 * (X.T @ (G * w[:, None]) - F * (G.T @ w)[None, :])
        worst = max(worst, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad)) <= 1e-8
    report(5, "centroid-update optimality", f"20 instances, worst gradient {worst:.2e}")


def test_c06_decorrelation_effect():
    hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=1e3, lambda3=1.0,
                     max_outer_iters=50, seed=0)
    reduced = 0
    ratios = []
    for seed in range(10):
        ds = generate_biased(BiasSpec(bias_strength=0.9, seed=seed, **FAMILY))
        result = fit(ds.X, hp)
        unweighted = correlation_amount(ds.X)
        weighted = correlation_amount(ds.X, result.weights.w)
        ratios.append(weighted / unweighted)
        reduced += weighted < unweighted
    assert reduced >= 9
    report(6, "decorrelation effect", f"{reduced}/10 seeds reduced, mean ratio {np.mean(ratios):.2f}")


def _mean_metrics_kmeans(ds, base, restarts):
    labels = [kmeans(ds.X, 3, seed=base + i).labels for i in range(restarts)]
    return (
        float(np.mean([nmi(ds.labels, lb) for lb in labels])),
        float(np.mean([ari(ds.labels, lb) for lb in labels])),
    )


def _mean_metrics_dckm_grid(ds, base, restarts, max_outer):
    """Protocol: lambda3 = 1, best (lambda1, lambda2) grid point by mean NMI."""
    best = (-1.0, None)
    for l1 in GRID_VALUES:
        for l2 in GRID_VALUES:
            hp = HyperParams(n_clusters=3, lambda1=l1, lambda2=l2, lambda3=1.0,
                             seed=base, restarts=restarts, max_outer_iters=max_outer)
            try:
                _, summaries = fit_restarts(ds.X, hp)
            except EmptyClusterError:
                continue
            mean_nmi = float(np.mean([nmi(ds.labels, s.labels) for s in summaries]))
            mean_ari = float(np.mean([ari(ds.labels, s.labels) for s in summaries]))
            if mean_nmi > best[0]:
                best = (mean_nmi, mean_ari)
    return best


@pytest.mark.slow
def test_c07_clustering_gain_under_bias():
    started = time.perf_counter()
    base, restarts, max_outer = 100, 20, 40

    biased = generate_biased(BiasSpec(bias_strength=0.9, seed=5, **FAMILY))
    km_nmi, km_ari = _mean_metrics_kmeans(biased, base, restarts)
    dc_nmi, dc_ari = _mean_metrics_dckm_grid(biased, base, restarts, max_outer)
    assert dc_nmi >= km_nmi + 0.03
    assert dc_ari > km_ari

    unbiased = generate_biased(BiasSpec(bias_strength=0.5, seed=5, **FAMILY))
    km_nmi0, _ = _mean_metrics_kmeans(unbiased, base, restarts)
    dc_nmi0, _ = _mean_metrics_dckm_grid(unbiased, base, restarts, max_outer)
    assert dc_nmi0 >= km_nmi0 - 0.03  # no harm when there is no bias

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        7,
        "clustering gain under bias",
        f"NMI {dc_nmi:.3f} vs {km_nmi:.3f} (+{dc_nmi - km_nmi:.3f}), "
        f"ARI +{dc_ari - km_ari:.3f}; no-bias {dc_nmi0:.3f} vs {km_nmi0:.3f}; {elapsed:.0f}s",
    )


def test_c08_metric_oracles():
    assert nmi([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0
    assert ari([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(
        ari_pair_oracle([0, 0, 1, 1], [0, 1, 0, 1])
    )
    rng = np.random.default_rng(808)
    values = [
        ari(rng.integers(0, 4, 1000), rng.integers(0, 4, 1000)) for _ in range(100)
    ]
    mean = float(np.mean(values))
    assert -0.02 <= mean <= 0.02
    report(8, "metric oracles", f"hand values exact, random-ARI mean {mean:+.4f}")


def test_c09_balance_loss_scale_invariance():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        X = random_binary(rng, int(rng.integers(5, 40)), int(rng.integers(2, 10)))
        w = rng.uniform(0.1, 2.0, X.shape[0])
        base = balance_loss(X, w).value
        for c in (0.1, 3.0, 100.0):
            scaled = balance_loss(X, c * w).value
            if base != 0.0:
                worst = max(worst, abs(scaled - base) / abs(base))
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-300)
    report(9, "balance-loss scale invariance", f"20 instances, worst rel dev {worst:.2e}")


def _median_sweep_time(n, trials=5):
    spec = BiasSpec(n=n, d=100, n_clusters=5, core_per_cluster=4, bias_features=60,
                    bias_strength=0.8, noise_flip=0.05, seed=7)
    X = generate_biased(spec).X
    hp = HyperParams(n_clusters=5, lambda1=1.0, lambda2=100.0, lambda3=1.0,
                     max_outer_iters=3, outer_tol=1e-300, seed=1)
    fit(X, hp)  # warm-up
    times = []
    for _ in range(trials):
        started = time.perf_counter()
        result = fit(X, hp)
        times.append((time.perf_counter() - started) / result.iterations)
    return float(np.median(times))


def test_c10_linear_scaling_in_samples():
    t1 = _median_sweep_time(1000)
    t2 = _median_sweep_time(2000)
    assert t2 <= 3.0 * t1
    report(10, "linear per-sweep scaling", f"per-sweep {t1 * 1e3:.1f}ms @1000 vs {t2 * 1e3:.1f}ms @2000, ratio {t2 / t1:.2f}")


def test_c11_cli_determinism(tmp_path):
    from dckm.cli import main

    data = tmp_path / "data.csv"
    ds = generate_biased(BiasSpec(n=80, d=12, n_clusters=3, core_per_cluster=2,
                                  bias_features=6, noise_flip=0.02, seed=11))
    save_dataset(ds, data)
    flags = [
        "fit", "--data", str(data), "--labels", "label", "--method", "dckm",
        "--k", "3", "--l1", "1", "--l2", "100", "--restarts", "3",
        "--seed", "13", "--max-outer", "15",
    ]
    first, second = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(flags + ["--out", str(first)]) == 0
    assert main(flags + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text(encoding="utf-8").splitlines()[0] == "dckm-result v1"
    report(11, "CLI determinism", "identical flags give byte-identical result files")
