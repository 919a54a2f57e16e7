"""Command-line surface: dataset generation, model fitting, benchmark sweeps
and correlation diagnostics.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure. Every
flag, and the DCKM_SEED environment variable that --seed defaults to, is
checked before any data is read; a failure prints one line,
"dckm <command>: <message>", to stderr, and each warning one line,
"dckm <command>: warning: <message>", without changing the exit code.
Result files are line-oriented ``key=value`` text with a versioned header
(see README for the schema); they contain no timing, so identical flags
produce byte-identical files on one numpy build and BLAS thread count. The
weighted Gram's SYRK rounds differently at other OpenBLAS thread counts, so
the console entry point :func:`run` (also ``python -m dckm.cli``) first sets
numpy's bundled OpenBLAS to one thread; then identical flags give identical
files whatever ``OPENBLAS_NUM_THREADS`` says. :func:`main`, which also runs
in process, leaves the caller's threads alone.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import balance_only_weights, kmeans, pca_project, select_uncorrelated_features, weighted_kmeans
from .core import HyperParams
from .data import BiasSpec, LabeledDataset, float_texts, generate_biased, load_csv, save_dataset
from .decorrelation import GROUP_MASS_EPS
from .metrics import ari, correlation_amount, nmi
from .solver import EmptyClusterError, _restarts, fit_restarts

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


class _Exit(Exception):
    """A command's failure; :func:`main` prints the message and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_parser() -> _Parser:
    # A flag's dest is the HyperParams or BiasSpec field it sets (see
    # _params); metavar keeps the usage text naming the flag. Such a flag is
    # left out of the parsed flags unless given, so that the field keeps its
    # dataclass default; --restarts defaults to the protocol's 20 instead.
    unset = argparse.SUPPRESS
    parser = _Parser(prog="dckm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic biased dataset")
    gen.add_argument("--n", type=int, default=unset, help="number of samples")
    gen.add_argument("--d", type=int, default=unset, help="number of features")
    gen.add_argument("--k", dest="n_clusters", metavar="K", type=int, default=unset,
                     help="number of clusters")
    gen.add_argument("--core-per-cluster", type=int, default=unset)
    gen.add_argument("--bias-features", type=int, default=unset)
    gen.add_argument("--bias", dest="bias_strength", metavar="BIAS", type=float, default=unset,
                     help="bias strength in [0.5, 1)")
    gen.add_argument("--noise", dest="noise_flip", metavar="NOISE", type=float, default=unset,
                     help="bit-flip probability")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output CSV path")

    # The flags fit and bench share.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--k", dest="n_clusters", metavar="K", type=int, required=True)
    shared.add_argument("--l3", dest="lambda3", metavar="L3", type=float, default=unset)
    shared.add_argument("--restarts", type=int, default=20)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--max-outer", dest="max_outer_iters", metavar="MAX_OUTER", type=int,
                        default=unset)
    shared.add_argument("--threshold", type=float, default=0.7,
                        help="dropkm correlation threshold")

    fit = sub.add_parser("fit", help="fit one method on a dataset", parents=[shared])
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--labels", default=None, help="label column name or index")
    fit.add_argument("--method", required=True, choices=METHODS)
    fit.add_argument("--l1", dest="lambda1", metavar="L1", type=float, default=unset)
    fit.add_argument("--l2", dest="lambda2", metavar="L2", type=float, default=unset)
    fit.add_argument("--tol", dest="outer_tol", metavar="TOL", type=float, default=unset,
                     help="relative objective change that ends a fit (in a sweep with no "
                          "label change) or deckm's weight descent")
    fit.add_argument("--pca-dims", type=int, default=None, help="pcakm components (default k-1)")
    fit.add_argument("--out", default=None, help="structured result file")
    fit.add_argument("--weights-out", default=None, help="write learned weights (dckm/deckm)")

    bench = sub.add_parser("bench", help="compare methods over a hyperparameter grid",
                           parents=[shared])
    bench.add_argument("--data", action="append", required=True, help="dataset CSV (repeatable)")
    bench.add_argument("--labels", default="label")
    bench.add_argument("--methods", required=True, help="comma-separated method list")
    bench.add_argument("--grid", default=None, help="comma-separated lambda values")
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


@contextmanager
def _flag_check():
    """Report a ValueError raised while checking flags as a usage failure."""
    try:
        yield
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"invalid flags: {exc}") from None


@contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as a data failure."""
    try:
        yield
    except OSError as exc:
        raise _Exit(EXIT_DATA, f"cannot write {path}: {exc}") from None


def _write_text(path, text: str) -> None:
    with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _read_dataset(path, labels) -> LabeledDataset:
    try:
        return load_csv(path, label_column=_parse_label_column(labels))
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_DATA, str(exc)) from None


def _seed(args) -> int:
    """--seed, else the DCKM_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("DCKM_SEED", "0"))
    except ValueError:
        raise ValueError("DCKM_SEED must be an integer") from None


def _params(cls, args):
    """``cls`` (HyperParams or BiasSpec) from the flags whose dest is one of
    its fields and the seed from :func:`_seed`; other fields keep their
    defaults. Raises ValueError on values ``cls`` rejects."""
    values = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    values["seed"] = _seed(args)
    return cls(**values)


@dataclass
class RunRecord:
    """Aggregated outcome of one method on one dataset; ``best`` is the
    restart that the solver's restart loop chose (FitResult or KMeansResult).
    The ``correlation_*`` diagnostics are set by ``dckm fit``, which writes
    them; a record from :func:`run_method` has neither."""

    method: str
    params: dict
    seed: int
    restarts: int
    best: object
    per_restart_objective: list
    correlation_unweighted: float | None = None
    correlation_weighted: float | None = None
    per_restart_nmi: list | None = None
    per_restart_ari: list | None = None
    kept_features: list | None = None
    weights: np.ndarray | None = None

    @property
    def best_objective(self) -> float:
        return self.best.objective

    def mean(self, metric: str) -> float:
        """Mean over restarts of ``metric`` ("nmi" or "ari")."""
        return float(np.mean(getattr(self, f"per_restart_{metric}")))

    def score_fields(self) -> list[str]:
        """``mean_nmi``, ``std_nmi``, ``mean_ari`` and ``std_ari`` as key=value."""
        out = []
        for metric in ("nmi", "ari"):
            std = float(np.std(getattr(self, f"per_restart_{metric}")))
            out += [f"mean_{metric}={_fmt(self.mean(metric))}", f"std_{metric}={_fmt(std)}"]
        return out

    def lines(self) -> list[str]:
        """Deterministic key=value serialization (timing excluded)."""
        out = [RESULT_HEADER, f"method={self.method}"]
        out += [f"{key}={_fmt(self.params[key])}" for key in sorted(self.params)]
        out.append(f"seed={self.seed}")
        out.append(f"restarts={self.restarts}")
        out.append(f"best_objective={_fmt(self.best_objective)}")
        out.append(f"best_iterations={self.best.iterations}")
        out.append(f"best_converged={_fmt(self.best.converged)}")
        out.append(f"restart_objective={_fmt(self.per_restart_objective)}")
        if self.per_restart_nmi is not None:
            out += self.score_fields()
            out.append(f"restart_nmi={_fmt(self.per_restart_nmi)}")
            out.append(f"restart_ari={_fmt(self.per_restart_ari)}")
        if self.correlation_unweighted is not None:
            out.append(f"correlation_unweighted={_fmt(self.correlation_unweighted)}")
        if self.correlation_weighted is not None:
            out.append(f"correlation_weighted={_fmt(self.correlation_weighted)}")
        if self.method == "dckm":
            out.append(f"skipped_features={self.best.skipped_features_last}")
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


def run_method(X, true_labels, method: str, hp: HyperParams, *, drop_threshold=0.7,
               pca_dims=None) -> RunRecord:
    """Run one method with ``hp.restarts`` seeded restarts and aggregate.

    Each method is one pipeline of :mod:`dckm.baselines` blocks (or the
    joint solver for dckm): its data-dependent preparation runs once, then
    one clustering per restart seed ``hp.seed + i``, through the solver's
    one restart loop, whose choice (lowest objective, first on ties) is the
    record's ``best``. pcakm's ``pca_dims`` is the number of components used
    (fewer than asked on rank-deficient data). With ``true_labels`` it
    scores every restart (NMI, ARI); it computes no result-file diagnostic,
    so that ``dckm bench``, which prints none, pays for none.

    For dckm and deckm, weights whose sum is at most ``GROUP_MASS_EPS`` leave
    no balance group with any weight, so every feature's balance term is
    skipped; such a collapse raises a warning and the record is returned as
    usual.
    """
    params = asdict(hp)
    del params["seed"], params["restarts"]
    params["k"] = params.pop("n_clusters")
    params.update(_method_params(method, hp, drop_threshold, pca_dims))

    weights = None
    kept = None
    if method == "dckm":
        best, runs = fit_restarts(X, hp)
        weights = best.weights.w
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
                Z, basis = pca_project(X, params["pca_dims"])
                params["pca_dims"] = basis.shape[1]
            elif method == "dropkm":
                kept = select_uncorrelated_features(X, drop_threshold)
                Z = X[:, kept]
            else:
                raise ValueError(f"unknown method {method!r}")

            def cluster(seed):
                return kmeans(Z, hp.n_clusters, seed=seed, max_iter=hp.max_outer_iters)

        best, runs = _restarts(cluster, hp)

    if weights is not None and float(weights.sum()) <= GROUP_MASS_EPS:
        warnings.warn(
            f"{method} weights collapsed: sum(w) = {float(weights.sum()):.3g} <= "
            f"{GROUP_MASS_EPS:g}, so the balance term skipped every feature",
            stacklevel=2,
        )
    record = RunRecord(
        method=method,
        params=params,
        seed=hp.seed,
        restarts=hp.restarts,
        best=best,
        per_restart_objective=[r.objective for r in runs],
        kept_features=kept,
        weights=weights,
    )
    if true_labels is not None:
        record.per_restart_nmi = [nmi(true_labels, r.labels) for r in runs]
        record.per_restart_ari = [ari(true_labels, r.labels) for r in runs]
    return record


def _cmd_gen(args) -> None:
    with _flag_check():
        spec = _params(BiasSpec, args)
    dataset = generate_biased(spec)
    with _writing(args.out):
        save_dataset(dataset, args.out)
    for key, value in dataset.provenance.items():
        print(f"{key}={_fmt(value)}")
    print(f"rows={dataset.X.shape[0]}")
    print(f"columns={dataset.X.shape[1]}")
    print(f"out={args.out}")


def _cmd_fit(args) -> None:
    with _flag_check():
        hp = _params(HyperParams, args)
        _method_params(args.method, hp, args.threshold, args.pca_dims)
    if args.weights_out is not None and args.method not in ("dckm", "deckm"):
        raise _Exit(EXIT_USAGE, "--weights-out applies only to dckm/deckm")
    dataset = _read_dataset(args.data, args.labels)
    start = time.perf_counter()
    try:
        record = run_method(
            dataset.X, dataset.labels, args.method, hp,
            drop_threshold=args.threshold, pca_dims=args.pca_dims,
        )
        record.correlation_unweighted = correlation_amount(dataset.X)
        if record.weights is not None:
            record.correlation_weighted = correlation_amount(dataset.X, record.weights)
    except EmptyClusterError as exc:
        raise _Exit(EXIT_SOLVER, f"solver failure: {exc}") from None
    except ValueError as exc:
        raise _Exit(EXIT_DATA, str(exc)) from None
    wall_time = time.perf_counter() - start
    record.params.update(data=args.data, n=dataset.X.shape[0], d=dataset.X.shape[1])

    for line in record.lines()[1:]:
        print(line)
    print(f"wall_time_s={wall_time:.3f}")
    if args.out is not None:
        _write_text(args.out, "\n".join(record.lines()) + "\n")
    if args.weights_out is not None:
        _write_text(args.weights_out, "".join(t + "\n" for t in float_texts(record.weights).tolist()))


def _cmd_bench(args) -> None:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise _Exit(EXIT_USAGE, "empty method list")
    for m in methods:
        if m not in METHODS:
            raise _Exit(EXIT_USAGE, f"unknown method {m!r}")
        if methods.count(m) > 1:
            raise _Exit(EXIT_USAGE, f"method {m!r} given more than once")
    for path in args.data:
        if args.data.count(path) > 1:
            raise _Exit(EXIT_USAGE, f"--data {path} given more than once")
    with _flag_check():
        grid = DEFAULT_GRID if args.grid is None else tuple(float(v) for v in args.grid.split(","))
        for value in grid:
            if grid.count(value) > 1:
                raise _Exit(EXIT_USAGE, f"grid value {_fmt(value)} given more than once")
        plain = _params(HyperParams, args)
        lambda_cells = [replace(plain, lambda1=l1, lambda2=l2) for l1 in grid for l2 in grid]
        for method in methods:
            _method_params(method, plain, args.threshold, None)

    lines = [BENCH_HEADER]
    lines.append(f"datasets={','.join(args.data)}")
    lines.append(f"methods={','.join(methods)}")
    lines.append(f"grid={_fmt(list(grid))}")
    lines.append(f"restarts={args.restarts}")
    lines.append(f"seed={plain.seed}")

    datasets = [(path, _read_dataset(path, args.labels)) for path in args.data]
    for data_path, dataset in datasets:
        chosen: dict[str, RunRecord] = {}
        for method in methods:
            uses_lambdas = method in ("dckm", "deckm")
            records = []
            for hp in lambda_cells if uses_lambdas else [plain]:
                cell = (
                    f"[cell] dataset={data_path} method={method} "
                    f"lambda1={_fmt(hp.lambda1) if uses_lambdas else '-'} "
                    f"lambda2={_fmt(hp.lambda2) if uses_lambdas else '-'}"
                )
                try:
                    record = run_method(
                        dataset.X, dataset.labels, method, hp, drop_threshold=args.threshold
                    )
                except (EmptyClusterError, ValueError) as exc:
                    lines.append(f"{cell} error={exc}")
                    continue
                lines.append(" ".join([cell] + record.score_fields()))
                records.append(record)
            if records:  # C07's choice: the first cell with the highest mean NMI
                chosen[method] = max(records, key=lambda r: r.mean("nmi"))

        row = chosen.pop("dckm", None)
        if row is not None and chosen:
            row_fields = [f"[row] dataset={data_path}"]
            for metric in ("nmi", "ari"):
                best_method, best = max(chosen.items(), key=lambda kv: kv[1].mean(metric))
                ours, theirs = row.mean(metric), best.mean(metric)
                gain = (ours - theirs) / theirs * 100.0 if theirs else float("nan")
                row_fields += [
                    f"best_baseline_{metric}={best_method}", f"dckm_{metric}={_fmt(ours)}",
                    f"baseline_{metric}={_fmt(theirs)}", f"{metric}_improvement_pct={_fmt(gain)}",
                ]
            lines.append(" ".join(row_fields))

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out is not None:
        _write_text(args.out, text)


def _cmd_corr(args) -> None:
    dataset = _read_dataset(args.data, args.labels)
    unweighted = correlation_amount(dataset.X)
    # Every value is computed before the first line prints, so a bad
    # weights file leaves stdout empty.
    lines = [f"correlation_unweighted={_fmt(unweighted)}"]
    if args.weights is not None:
        try:
            with open(args.weights, "r", encoding="utf-8") as fh:
                w = np.asarray([float(line) for line in fh if line.strip()])
        except (OSError, ValueError) as exc:
            raise _Exit(EXIT_DATA, f"cannot read weights: {exc}") from None
        if w.shape != (dataset.X.shape[0],):
            raise _Exit(
                EXIT_DATA, f"weight length {w.size} does not match {dataset.X.shape[0]} samples"
            )
        try:
            weighted = correlation_amount(dataset.X, w)
        except ValueError as exc:
            raise _Exit(EXIT_DATA, f"invalid weights: {exc}") from None
        ratio = weighted / unweighted if unweighted else float("nan")
        lines += [f"correlation_weighted={_fmt(weighted)}", f"reduction_ratio={_fmt(ratio)}"]
    print("\n".join(lines))


_HANDLERS = {"gen": _cmd_gen, "fit": _cmd_fit, "bench": _cmd_bench, "corr": _cmd_corr}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Restores the caller's warning state: main also runs in-process.
    with warnings.catch_warnings(record=True) as caught:
        try:
            _HANDLERS[args.command](args)
        except _Exit as exc:
            print(f"dckm {args.command}: {exc}", file=sys.stderr)
            return exc.code
        finally:
            for warning in caught:
                print(f"dckm {args.command}: warning: {warning.message}", file=sys.stderr)
    return EXIT_OK


def _one_blas_thread() -> None:
    """Set the OpenBLAS that numpy bundles to one thread, through the first
    setter it exports; do nothing when none is found. Setting
    ``OPENBLAS_NUM_THREADS`` here would not work: numpy is already loaded."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter(1)
                return


def run() -> None:  # console-script entry point
    _one_blas_thread()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
