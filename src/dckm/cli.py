"""Command-line surface: dataset generation, model fitting, benchmark sweeps
and correlation diagnostics.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure.
Result files are line-oriented ``key=value`` text with a versioned header
(see README for the schema); they contain no timing, so identical flags
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .baselines import balance_only_weights, kmeans, pca_project, select_uncorrelated_features, weighted_kmeans
from .core import HyperParams
from .data import BiasSpec, LabeledDataset, generate_biased, load_csv, save_dataset
from .metrics import ari, correlation_amount, nmi
from .solver import EmptyClusterError, fit_restarts

__all__ = ["main", "run"]

RESULT_HEADER = "dckm-result v1"
BENCH_HEADER = "dckm-bench v1"
DEFAULT_GRID = (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)
METHODS = ("dckm", "kmeans", "deckm", "pcakm", "dropkm")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    return int(os.environ.get("DCKM_SEED", "0"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="dckm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic biased dataset", parents=[])
    gen.add_argument("--n", type=int, default=500, help="number of samples")
    gen.add_argument("--d", type=int, default=24, help="number of features")
    gen.add_argument("--k", type=int, default=3, help="number of clusters")
    gen.add_argument("--core-per-cluster", type=int, default=1)
    gen.add_argument("--bias-features", type=int, default=5)
    gen.add_argument("--bias", type=float, default=0.9, help="bias strength in [0.5, 1)")
    gen.add_argument("--noise", type=float, default=0.005, help="bit-flip probability")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output CSV path")

    fit = sub.add_parser("fit", help="fit one method on a dataset")
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--labels", default=None, help="label column name or index")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--k", type=int, required=True)
    fit.add_argument("--l1", type=float, default=1.0)
    fit.add_argument("--l2", type=float, default=1.0)
    fit.add_argument("--l3", type=float, default=1.0)
    fit.add_argument("--restarts", type=int, default=20)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--max-outer", type=int, default=100)
    fit.add_argument("--max-w-iters", type=int, default=5)
    fit.add_argument("--tol", type=float, default=1e-6,
                     help="relative objective change that ends a fit (in a sweep with no "
                          "label change) or deckm's weight descent")
    fit.add_argument("--step", type=float, default=0.1,
                     help="first trial step of the first weight line search")
    fit.add_argument("--shrink", type=float, default=0.5,
                     help="factor applied to a rejected trial step, in (0, 1)")
    fit.add_argument("--threshold", type=float, default=0.7, help="dropkm correlation threshold")
    fit.add_argument("--pca-dims", type=int, default=None, help="pcakm components (default k-1)")
    fit.add_argument("--out", default=None, help="structured result file")
    fit.add_argument("--weights-out", default=None, help="write learned weights (dckm/deckm)")

    bench = sub.add_parser("bench", help="compare methods over a hyperparameter grid")
    bench.add_argument("--data", action="append", required=True, help="dataset CSV (repeatable)")
    bench.add_argument("--labels", default="label")
    bench.add_argument("--methods", required=True, help="comma-separated method list")
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--grid", default=None, help="comma-separated lambda values")
    bench.add_argument("--l3", type=float, default=1.0)
    bench.add_argument("--restarts", type=int, default=20)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--max-outer", type=int, default=100)
    bench.add_argument("--threshold", type=float, default=0.7)
    bench.add_argument("--out", default=None, help="comparison table file")

    corr = sub.add_parser("corr", help="report the dataset's correlation diagnostic")
    corr.add_argument("--data", required=True)
    corr.add_argument("--labels", default=None)
    corr.add_argument("--weights", default=None, help="weights file from a prior fit")

    return parser


def _parse_label_column(value):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


@dataclass
class RunRecord:
    """Aggregated outcome of one method on one dataset."""

    method: str
    params: dict
    seed: int
    restarts: int
    per_restart_objective: list
    best_objective: float
    best_iterations: int
    best_converged: bool
    correlation_unweighted: float
    per_restart_nmi: list | None = None
    per_restart_ari: list | None = None
    mean_nmi: float | None = None
    std_nmi: float | None = None
    mean_ari: float | None = None
    std_ari: float | None = None
    correlation_weighted: float | None = None
    skipped_features: int | None = None
    kept_features: list | None = None
    wall_time: float = 0.0
    weights: np.ndarray | None = None

    def lines(self) -> list[str]:
        """Deterministic key=value serialization (timing excluded)."""
        out = [RESULT_HEADER]
        out.append(f"method={self.method}")
        for key in sorted(self.params):
            out.append(f"{key}={_fmt(self.params[key])}")
        out.append(f"seed={self.seed}")
        out.append(f"restarts={self.restarts}")
        out.append(f"best_objective={_fmt(self.best_objective)}")
        out.append(f"best_iterations={self.best_iterations}")
        out.append(f"best_converged={_fmt(self.best_converged)}")
        out.append(f"restart_objective={_fmt(self.per_restart_objective)}")
        if self.per_restart_nmi is not None:
            out.append(f"mean_nmi={_fmt(self.mean_nmi)}")
            out.append(f"std_nmi={_fmt(self.std_nmi)}")
            out.append(f"mean_ari={_fmt(self.mean_ari)}")
            out.append(f"std_ari={_fmt(self.std_ari)}")
            out.append(f"restart_nmi={_fmt(self.per_restart_nmi)}")
            out.append(f"restart_ari={_fmt(self.per_restart_ari)}")
        out.append(f"correlation_unweighted={_fmt(self.correlation_unweighted)}")
        if self.correlation_weighted is not None:
            out.append(f"correlation_weighted={_fmt(self.correlation_weighted)}")
        if self.skipped_features is not None:
            out.append(f"skipped_features={self.skipped_features}")
        if self.kept_features is not None:
            out.append(f"kept_feature_count={len(self.kept_features)}")
            out.append(f"kept_features={_fmt(self.kept_features)}")
        return out


def _method_params(method: str, hp: HyperParams, drop_threshold, pca_dims) -> dict:
    """The settings ``method`` uses beyond ``hp``, checked before any data is
    read: pcakm's component count (default k - 1) and dropkm's correlation
    threshold. Raises ValueError on a value the method cannot run with."""
    if method == "pcakm":
        dims = pca_dims if pca_dims is not None else hp.n_clusters - 1
        if dims < 1:
            raise ValueError("pcakm needs k >= 2 or --pca-dims >= 1")
        return {"pca_dims": dims}
    if method == "dropkm":
        if not 0.0 < drop_threshold <= 1.0:
            raise ValueError("dropkm needs a --threshold in (0, 1]")
        return {"drop_threshold": drop_threshold}
    return {}


def run_method(X, true_labels, method: str, hp: HyperParams, *, drop_threshold=0.7, pca_dims=None, extra_params=None) -> RunRecord:
    """Run one method with ``hp.restarts`` seeded restarts and aggregate.

    Each method is one pipeline of :mod:`dckm.baselines` blocks (or the
    joint solver for dckm): its data-dependent preparation runs once, then
    one clustering per restart seed ``hp.seed + i``. The best restart
    (lowest method objective) supplies the reported objective, iteration
    count and, where applicable, learned weights.
    """
    start = time.perf_counter()
    params = {
        "k": hp.n_clusters,
        "lambda1": hp.lambda1,
        "lambda2": hp.lambda2,
        "lambda3": hp.lambda3,
        "max_outer_iters": hp.max_outer_iters,
        "max_w_iters": hp.max_w_iters,
        "outer_tol": hp.outer_tol,
        "grad_step": hp.grad_step,
        "backtrack_shrink": hp.backtrack_shrink,
    }
    params.update(_method_params(method, hp, drop_threshold, pca_dims))
    if extra_params:
        params.update(extra_params)

    weights = None
    skipped = None
    kept = None
    if method == "dckm":
        best, runs = fit_restarts(X, hp)
        objectives = [r.objective for r in runs]
        weights = best.weights.w
        skipped = best.skipped_features_last
    else:
        if method == "deckm":
            sw, history = balance_only_weights(X, hp)
            weights = sw.w
            params["stage1_steps"] = len(history) - 1

            def cluster(seed):
                return weighted_kmeans(
                    X, weights, hp.n_clusters, seed=seed, max_iter=hp.max_outer_iters
                )

        else:
            if method == "kmeans":
                Z = X
            elif method == "pcakm":
                Z, _ = pca_project(X, params["pca_dims"])
            elif method == "dropkm":
                kept = select_uncorrelated_features(X, drop_threshold)
                Z = X[:, kept]
            else:
                raise ValueError(f"unknown method {method!r}")

            def cluster(seed):
                return kmeans(Z, hp.n_clusters, seed=seed, max_iter=hp.max_outer_iters)

        runs = [cluster(hp.seed + i) for i in range(hp.restarts)]
        objectives = [r.loss for r in runs]
        best = min(runs, key=lambda r: r.loss)  # first wins ties

    record = RunRecord(
        method=method,
        params=params,
        seed=hp.seed,
        restarts=hp.restarts,
        per_restart_objective=objectives,
        best_objective=min(objectives),
        best_iterations=best.iterations,
        best_converged=best.converged,
        correlation_unweighted=correlation_amount(X),
        skipped_features=skipped,
        kept_features=kept,
        weights=weights,
    )
    if weights is not None:
        record.correlation_weighted = correlation_amount(X, weights)
    if true_labels is not None:
        record.per_restart_nmi = [nmi(true_labels, r.labels) for r in runs]
        record.per_restart_ari = [ari(true_labels, r.labels) for r in runs]
        record.mean_nmi = float(np.mean(record.per_restart_nmi))
        record.std_nmi = float(np.std(record.per_restart_nmi))
        record.mean_ari = float(np.mean(record.per_restart_ari))
        record.std_ari = float(np.std(record.per_restart_ari))
    record.wall_time = time.perf_counter() - start
    return record


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        spec = BiasSpec(
            n=args.n,
            d=args.d,
            n_clusters=args.k,
            core_per_cluster=args.core_per_cluster,
            bias_features=args.bias_features,
            bias_strength=args.bias,
            noise_flip=args.noise,
            seed=seed,
        )
    except ValueError as exc:
        print(f"dckm gen: invalid flags: {exc}", file=sys.stderr)
        return EXIT_USAGE
    dataset = generate_biased(spec)
    try:
        save_dataset(dataset, args.out)
    except OSError as exc:
        print(f"dckm gen: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_DATA
    for key, value in dataset.provenance.items():
        print(f"{key}={_fmt(value)}")
    print(f"rows={dataset.X.shape[0]}")
    print(f"columns={dataset.X.shape[1]}")
    print(f"out={args.out}")
    return EXIT_OK


def _load(args) -> LabeledDataset:
    return load_csv(args.data, label_column=_parse_label_column(args.labels))


def _cmd_fit(args) -> int:
    try:
        dataset = _load(args)
    except (OSError, ValueError) as exc:
        print(f"dckm fit: {exc}", file=sys.stderr)
        return EXIT_DATA
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        hp = HyperParams(
            n_clusters=args.k,
            lambda1=args.l1,
            lambda2=args.l2,
            lambda3=args.l3,
            max_outer_iters=args.max_outer,
            max_w_iters=args.max_w_iters,
            outer_tol=args.tol,
            grad_step=args.step,
            backtrack_shrink=args.shrink,
            seed=seed,
            restarts=args.restarts,
        )
        _method_params(args.method, hp, args.threshold, args.pca_dims)
    except ValueError as exc:
        print(f"dckm fit: invalid flags: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.weights_out is not None and args.method not in ("dckm", "deckm"):
        print("dckm fit: --weights-out applies only to dckm/deckm", file=sys.stderr)
        return EXIT_USAGE
    try:
        record = run_method(
            dataset.X,
            dataset.labels,
            args.method,
            hp,
            drop_threshold=args.threshold,
            pca_dims=args.pca_dims,
            extra_params={"data": args.data, "n": dataset.X.shape[0], "d": dataset.X.shape[1]},
        )
    except EmptyClusterError as exc:
        print(f"dckm fit: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"dckm fit: {exc}", file=sys.stderr)
        return EXIT_DATA

    for line in record.lines()[1:]:
        print(line)
    print(f"wall_time_s={record.wall_time:.3f}")
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(record.lines()) + "\n")
        except OSError as exc:
            print(f"dckm fit: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_DATA
    if args.weights_out is not None:
        try:
            with open(args.weights_out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(repr(float(v)) + "\n" for v in record.weights)
        except OSError as exc:
            print(f"dckm fit: cannot write {args.weights_out}: {exc}", file=sys.stderr)
            return EXIT_DATA
    return EXIT_OK


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print("dckm bench: empty method list", file=sys.stderr)
        return EXIT_USAGE
    for m in methods:
        if m not in METHODS:
            print(f"dckm bench: unknown method {m!r}", file=sys.stderr)
            return EXIT_USAGE
    seed = args.seed if args.seed is not None else _default_seed()

    def cell(l1, l2):
        return HyperParams(
            n_clusters=args.k,
            lambda1=l1,
            lambda2=l2,
            lambda3=args.l3,
            max_outer_iters=args.max_outer,
            seed=seed,
            restarts=args.restarts,
        )

    try:
        grid = DEFAULT_GRID if args.grid is None else tuple(float(v) for v in args.grid.split(","))
        lambda_cells = [cell(l1, l2) for l1 in grid for l2 in grid]
        plain_cells = [cell(1.0, 1.0)]
        for method in methods:
            _method_params(method, plain_cells[0], args.threshold, None)
    except ValueError as exc:
        print(f"dckm bench: invalid flags: {exc}", file=sys.stderr)
        return EXIT_USAGE
    label_col = _parse_label_column(args.labels)

    lines = [BENCH_HEADER]
    lines.append(f"datasets={','.join(args.data)}")
    lines.append(f"methods={','.join(methods)}")
    lines.append(f"grid={_fmt(list(grid))}")
    lines.append(f"restarts={args.restarts}")
    lines.append(f"seed={seed}")
    table: dict[tuple[str, str], RunRecord] = {}

    for data_path in args.data:
        try:
            dataset = load_csv(data_path, label_column=label_col)
        except (OSError, ValueError) as exc:
            print(f"dckm bench: {exc}", file=sys.stderr)
            return EXIT_DATA
        if dataset.labels is None:
            print(f"dckm bench: {data_path}: ground-truth labels required", file=sys.stderr)
            return EXIT_DATA
        for method in methods:
            uses_lambdas = method in ("dckm", "deckm")
            best_record = None
            for hp in lambda_cells if uses_lambdas else plain_cells:
                cell_l1 = _fmt(hp.lambda1) if uses_lambdas else "-"
                cell_l2 = _fmt(hp.lambda2) if uses_lambdas else "-"
                try:
                    record = run_method(
                        dataset.X, dataset.labels, method, hp, drop_threshold=args.threshold
                    )
                except (EmptyClusterError, ValueError) as exc:
                    lines.append(
                        f"[cell] dataset={data_path} method={method} lambda1={cell_l1} "
                        f"lambda2={cell_l2} error={exc}"
                    )
                    continue
                lines.append(
                    f"[cell] dataset={data_path} method={method} lambda1={cell_l1} "
                    f"lambda2={cell_l2} mean_nmi={_fmt(record.mean_nmi)} "
                    f"std_nmi={_fmt(record.std_nmi)} mean_ari={_fmt(record.mean_ari)} "
                    f"std_ari={_fmt(record.std_ari)}"
                )
                if best_record is None or record.mean_nmi > best_record.mean_nmi:
                    best_record = record
            if best_record is not None:
                table[(data_path, method)] = best_record

        row = table.get((data_path, "dckm"))
        baselines = [
            (m, table[(data_path, m)]) for m in methods if m != "dckm" and (data_path, m) in table
        ]
        if row is not None and baselines:
            best_nmi_method, best_nmi = max(baselines, key=lambda kv: kv[1].mean_nmi)
            best_ari_method, best_ari = max(baselines, key=lambda kv: kv[1].mean_ari)
            nmi_gain = (
                (row.mean_nmi - best_nmi.mean_nmi) / best_nmi.mean_nmi * 100.0
                if best_nmi.mean_nmi
                else float("nan")
            )
            ari_gain = (
                (row.mean_ari - best_ari.mean_ari) / best_ari.mean_ari * 100.0
                if best_ari.mean_ari
                else float("nan")
            )
            lines.append(
                f"[row] dataset={data_path} best_baseline_nmi={best_nmi_method} "
                f"dckm_nmi={_fmt(row.mean_nmi)} baseline_nmi={_fmt(best_nmi.mean_nmi)} "
                f"nmi_improvement_pct={_fmt(nmi_gain)} best_baseline_ari={best_ari_method} "
                f"dckm_ari={_fmt(row.mean_ari)} baseline_ari={_fmt(best_ari.mean_ari)} "
                f"ari_improvement_pct={_fmt(ari_gain)}"
            )

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"dckm bench: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_DATA
    return EXIT_OK


def _cmd_corr(args) -> int:
    try:
        dataset = _load(args)
    except (OSError, ValueError) as exc:
        print(f"dckm corr: {exc}", file=sys.stderr)
        return EXIT_DATA
    unweighted = correlation_amount(dataset.X)
    print(f"correlation_unweighted={_fmt(unweighted)}")
    if args.weights is not None:
        try:
            with open(args.weights, "r", encoding="utf-8") as fh:
                w = np.asarray([float(line) for line in fh if line.strip()])
        except (OSError, ValueError) as exc:
            print(f"dckm corr: cannot read weights: {exc}", file=sys.stderr)
            return EXIT_DATA
        if w.shape != (dataset.X.shape[0],):
            print(
                f"dckm corr: weight length {w.size} does not match {dataset.X.shape[0]} samples",
                file=sys.stderr,
            )
            return EXIT_DATA
        try:
            weighted = correlation_amount(dataset.X, w)
        except ValueError as exc:
            print(f"dckm corr: invalid weights: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"correlation_weighted={_fmt(weighted)}")
        ratio = weighted / unweighted if unweighted else float("nan")
        print(f"reduction_ratio={_fmt(ratio)}")
    return EXIT_OK


_HANDLERS = {"gen": _cmd_gen, "fit": _cmd_fit, "bench": _cmd_bench, "corr": _cmd_corr}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _HANDLERS[args.command](args)


def run() -> None:  # console-script entry point
    raise SystemExit(main())
