"""Acceptance test C07's protocol, fit by fit, summarised per lambda cell.

Runs ``solver.fit_restarts`` once per (dataset, cell), as C07 and ``dckm
bench`` do: the biased (bias 0.9) and unbiased (bias 0.5) datasets of the C07
family (``BiasSpec``'s defaults) at data seed 5, lambda3 = 1, the 36
(lambda1, lambda2) cells of ``dckm bench``'s default grid ({1e-2..1e3}) and
restart seeds 100-119, so 1,440 fits per run. A cell in which a fit raises
``EmptyClusterError`` is dropped whole, as in C07, and stands in ``--fits`` as
one placeholder per restart seed. It measures the ``dckm`` that Python
imports, so the same script can run against another checkout:

    PYTHONPATH=src python3 scripts/c07_grid.py --cap 40 --label NAME \\
        --fits NAME.npz [--bench BENCH_c07_grid.json]
    PYTHONPATH=src python3 scripts/c07_grid.py --compare PARENT.npz CHANGE.npz

A run prints each dataset's number of distinct rows (the rows a fit runs on),
the protocol NMI/ARI (C07's choice: the cell with the best mean NMI) and,
on stderr, the wall time of its ``fit_restarts`` calls, so that stdout,
``--fits`` and ``--bench`` stay comparable byte for byte between runs. With
``--bench``, it stores its per-cell summary in that file under
``runs[NAME]``. ``--fits`` saves every fit's labels, final objective, sweeps,
convergence and trial counts; ``--compare`` pairs two such files fit by fit
and prints how many label vectors moved and the final-objective ratios, or
exits 1 when the files' keys or ``labels`` shapes differ.

Per cell: medians over the 20 restarts (sweeps, ess, grad_norm_ratio,
objective), means (nmi, ari), the converged share, trials per gradient step
(all trials over all steps, from each fit's ``line_searches``) and the
stalled line searches. ess is (sum w)^2 / sum w^2 of n = 500;
grad_norm_ratio is the weight gradient's norm at the returned weights over
its norm at uniform weights, for the same centroids and labels. Of the runs
in ``BENCH_c07_grid.json``, ``direct_cap40`` and ``distinct_rows_cap40``
are this script's; an
uncommitted scratch version of it made ``fixed_start_cap40``, ``bb_cap40``
and ``bb_cap1000``, and this one reproduces ``bb_cap40`` cell for cell from
the code of that run.

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise. At
the cap of 40, a run on a 2-vCPU host prints a fit wall time of 35-45 s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import dckm.solver as solver  # noqa: E402
from dckm.cli import DEFAULT_GRID  # noqa: E402
from dckm.core import HyperParams, SampleWeights, _distinct_rows  # noqa: E402
from dckm.data import BiasSpec, generate_biased  # noqa: E402
from dckm.metrics import ari, nmi  # noqa: E402
from dckm.solver import _WeightProblem, _work_area  # noqa: E402

GRID = DEFAULT_GRID
RESTART_SEEDS = range(100, 120)
DATASETS = (("biased", 0.9), ("unbiased", 0.5))
FIT_KEYS = ("labels", "objective", "sweeps", "converged", "trials", "steps")


def run_grid(cap):
    """Every fit of the protocol at ``cap`` sweeps, one ``solver.fit_restarts``
    call per (dataset, cell); returns the per-cell summaries and the per-fit
    arrays."""
    cells, fits, per_search = [], {key: [] for key in FIT_KEYS}, []
    fit_s = 0.0
    for name, bias in DATASETS:
        ds = generate_biased(BiasSpec(bias_strength=bias, seed=5))
        X = ds.X
        n = X.shape[0]
        print(f"{name}: {_distinct_rows(X)[0].shape[0]} distinct rows of {n}")
        uniform = SampleWeights.uniform(n).omega
        dropped = dict(labels=np.full(n, -1), objective=np.nan, sweeps=0, converged=False,
                       trials=0, steps=0)
        for l1 in GRID:
            for l2 in GRID:
                hp = HyperParams(n_clusters=3, lambda1=l1, lambda2=l2, lambda3=1.0,
                                 seed=RESTART_SEEDS[0], max_outer_iters=cap,
                                 restarts=len(RESTART_SEEDS))
                start = time.perf_counter()
                try:
                    runs = solver.fit_restarts(X, hp)[1]
                except solver.EmptyClusterError:  # C07 drops the whole cell
                    runs = []
                fit_s += time.perf_counter() - start
                rows = [describe(X, ds.labels, uniform, hp, result) for result in runs]
                for row in rows or [dropped] * len(RESTART_SEEDS):
                    for key in FIT_KEYS:
                        fits[key].append(row[key])
                for result in runs:
                    per_search += result.line_searches
                cells.append(summarise(name, l1, l2, rows))
    fits = {k: np.asarray(v) for k, v in fits.items()}
    fits["labels"] = fits["labels"].astype(np.int8)
    fits["per_search"] = np.bincount(per_search)
    # Wall time varies between runs, so it stays out of stdout and the files.
    print(f"fit wall time: {fit_s:.2f} s in {len(cells)} fit_restarts calls", file=sys.stderr)
    return cells, fits


def describe(X, truth, uniform, hp, result):
    """One fit's entries in the per-fit arrays and its row of the per-cell
    summary."""
    w = result.weights.w
    G, F = result.assignments, result.centroids
    problem = _WeightProblem(X, 1.0, solver._resid_sq(X, F, G), hp, _work_area(X))
    grad = solver._weight_gradient(problem, result.weights.omega)
    grad0 = solver._weight_gradient(problem, uniform)
    return dict(
        labels=result.labels,
        sweeps=result.iterations,
        converged=result.converged,
        trials=sum(result.line_searches),
        steps=len(result.line_searches),
        stalls=result.stalled_sweeps,
        nmi=nmi(truth, result.labels),
        ari=ari(truth, result.labels),
        ess=float(w.sum()) ** 2 / float(w @ w),
        ratio=float(np.linalg.norm(grad) / np.linalg.norm(grad0)),
        objective=result.objective,
    )


def summarise(name, l1, l2, rows):
    """One cell's summary, unrounded (:func:`dump` rounds what it writes);
    ``rows`` is empty for a dropped cell."""

    def median(key):
        return statistics.median(r[key] for r in rows) if rows else None

    def mean(key):
        return float(np.mean([r[key] for r in rows])) if rows else None

    def total(key):
        return sum(r[key] for r in rows)

    return {
        "data": name, "lambda1": l1, "lambda2": l2, "fits": len(rows),
        "converged_frac": total("converged") / len(RESTART_SEEDS),
        "sweeps_median": median("sweeps"),
        "trials_per_step": total("trials") / max(total("steps"), 1),
        "nmi": mean("nmi"), "ari": mean("ari"), "ess_median": median("ess"),
        "grad_norm_ratio_median": median("ratio"),
        "objective_median": median("objective"), "stalls": total("stalls"),
    }


def protocol(cells):
    """C07's choice per dataset, as ``dckm bench`` makes it: the first cell
    with the highest unrounded mean NMI, among cells where every fit
    finished."""
    complete = [c for c in cells if c["fits"] == len(RESTART_SEEDS)]
    return {
        name: max((c for c in complete if c["data"] == name), key=lambda c: c["nmi"])
        for name in dict.fromkeys(c["data"] for c in complete)
    }


def report_run(cells, fits):
    for name, cell in protocol(cells).items():
        print(f"{name}: protocol NMI {cell['nmi']:.4f} ARI {cell['ari']:.4f} at "
              f"(lambda1, lambda2) = ({cell['lambda1']:g}, {cell['lambda2']:g})")
    steps = fits["steps"]
    per_fit = fits["trials"][steps > 0] / steps[steps > 0]
    print(f"trials per step: {fits['trials'].sum() / steps.sum():.3f} overall; per fit "
          f"median {np.median(per_fit):.3f}, 90th {np.quantile(per_fit, 0.9):.3f}, "
          f"max {per_fit.max():.3f}")
    hist = fits["per_search"] / fits["per_search"].sum()
    shown = ", ".join(f"{k}: {hist[k]:.1%}" for k in range(1, 6))
    print(f"line searches by trials: {shown}, 6 or more: {hist[6:].sum():.1%}, "
          f"most {np.flatnonzero(fits['per_search'])[-1]}")
    print(f"converged: {fits['converged'].mean():.4f} of {fits['converged'].size} fits")
    print(f"stalled line searches: {sum(c['stalls'] for c in cells)}")


def compare(path_a, path_b):
    """Print the fit-by-fit comparison of two ``--fits`` files and return 0;
    return 1 after one line on stderr when they do not hold the same keys
    and the same ``labels`` shape, so that their fits do not pair."""
    a, b = np.load(path_a), np.load(path_b)
    shapes = [f["labels"].shape if "labels" in f.files else None for f in (a, b)]
    if sorted(a.files) != sorted(b.files) or shapes[0] != shapes[1]:
        print(f"--compare: {path_a} (labels {shapes[0]}) and {path_b} (labels {shapes[1]}) "
              "do not pair fit by fit: they need the same keys and labels shape",
              file=sys.stderr)
        return 1
    moved = np.any(a["labels"] != b["labels"], axis=1)
    print(f"label vectors moved: {int(moved.sum())} of {moved.size}")
    ok = np.isfinite(a["objective"]) & np.isfinite(b["objective"])
    ratio = b["objective"][ok] / a["objective"][ok]
    q = np.quantile(ratio, [0.0, 0.1, 0.5, 0.9, 1.0])
    print(f"final objective ratio (second / first) over {ok.sum()} fits: median "
          f"{q[2]:.4f}, 10th-90th {q[1]:.4f}-{q[3]:.4f}, range {q[0]:.4f}-{q[4]:.4f}; "
          f"lower in {np.mean(ratio < 1.0):.1%}, equal in {np.mean(ratio == 1.0):.1%}")
    for name, f in (("first", a), ("second", b)):
        print(f"{name}: trials per step {f['trials'].sum() / f['steps'].sum():.3f}, "
              f"converged {f['converged'].mean():.4f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=int, default=40, help="sweep cap (max_outer_iters)")
    parser.add_argument("--label", help="run name under runs[] in the --bench file")
    parser.add_argument("--bench", help="JSON file to store the per-cell summary in")
    parser.add_argument("--fits", help="write the per-fit arrays to this .npz")
    parser.add_argument("--compare", nargs=2, metavar="NPZ", help="pair two --fits files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.bench and not args.label:
        parser.error("--bench needs --label")
    if args.bench and not os.path.isfile(args.bench):
        parser.error(f"--bench {args.bench}: no such file (it adds a run to an existing file)")
    cells, fits = run_grid(args.cap)
    report_run(cells, fits)
    if args.fits:
        np.savez_compressed(args.fits, **fits)
    if args.bench:
        with open(args.bench) as fh:
            bench = json.load(fh)
        bench["runs"][args.label] = cells
        with open(args.bench, "w") as fh:
            fh.write(dump(bench))
    return 0


def rounded(cell):
    """``cell`` with each float rounded to 4 decimals, as the file holds it."""
    return {key: round(v, 4) if isinstance(v, float) else v for key, v in cell.items()}


def dump(bench):
    """The file's layout: one line per cell, its floats :func:`rounded`."""
    runs = ",\n".join(
        f'  {json.dumps(name)}: [\n'
        + ",\n".join(f"   {json.dumps(rounded(c))}" for c in cells) + "\n  ]"
        for name, cells in bench["runs"].items()
    )
    return f'{{\n "what": {json.dumps(bench["what"])},\n "runs": {{\n{runs}\n }}\n}}\n'


if __name__ == "__main__":
    sys.exit(main())
