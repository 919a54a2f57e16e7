"""The public names of every module resolve, the package's, the baselines'
and the solver's public names are pinned, the settable values (HyperParams
fields and each subcommand's flags) are pinned, the baselines reach into the
solver only through its two loops, and every function the benchmark's tracer
wraps by name exists."""

import argparse
import importlib
import importlib.util
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import dckm
import dckm.solver
from dckm.cli import _build_parser  # the tracer's Probe needs dckm.cli imported
from dckm.core import HyperParams
from dckm.data import BiasSpec, generate_biased

MODULES = ["dckm"] + [f"dckm.{m.name}" for m in pkgutil.iter_modules(dckm.__path__)]
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for module, attr, _ in tracer.TRACED] + [("solver", "_backtrack")]
    missing = [
        f"dckm.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"dckm.{module}"), attr, None))
    ]
    assert not missing


def test_a_traced_fit_restarts_call_is_seen_by_the_tracer():
    """One traced ``fit_restarts`` call of three restarts: the tracer counts
    each fit, each weight update and each gradient step, its output checks
    find no problem, and the restarts share one validation of X. A refactor
    that stopped calling the traced names would fail here instead of
    blinding the benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    X = generate_biased(BiasSpec(n=120, d=10, n_clusters=3, core_per_cluster=1,
                                 bias_features=3, seed=2)).X
    hp = HyperParams(n_clusters=3, lambda1=1.0, lambda2=10.0, seed=100, restarts=3,
                     max_outer_iters=4)
    with tracer.Probe(spans=True) as probe:
        dckm.solver.fit_restarts(X, hp)
    traced = probe.layer_metrics()
    assert traced["solver.fits"] == 3
    assert traced["solver.grad_evals"] == traced["solver.steps"] > 0
    assert traced["solver.update_weights.s"] > 0
    assert probe.problems == []
    assert traced["core.validate_data.calls"] == 1


PINNED = {
    "dckm": [
        "BiasSpec", "EmptyClusterError", "FitResult", "HyperParams", "LabeledDataset",
        "SampleWeights", "ari", "balance_gradient", "balance_loss", "balance_only_weights",
        "binarize", "correlation_amount", "fit", "fit_restarts", "generate_biased", "kmeans",
        "load_csv", "nmi", "one_hot_rows", "pca_project", "save_dataset",
        "select_uncorrelated_features", "update_assignments", "update_centroids",
        "update_weights", "validate_data", "weighted_kmeans",
    ],
    "dckm.baselines": [
        "KMeansResult", "balance_only_weights", "kmeans", "pca_project",
        "select_uncorrelated_features", "weighted_kmeans",
    ],
    "dckm.solver": [
        "EmptyClusterError", "FitResult", "fit", "fit_restarts", "update_assignments",
        "update_centroids", "update_weights",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PINNED))
def test_public_names_pinned(module_name):
    assert sorted(importlib.import_module(module_name).__all__) == PINNED[module_name]


# Every settable value is a deliberate edit here, as every public name is
# above: a new field or flag is a knob that each user can get wrong.
HYPERPARAMS = [
    "lambda1", "lambda2", "lambda3", "max_outer_iters", "n_clusters", "outer_tol",
    "restarts", "seed",
]
FLAGS = {
    "gen": ["--bias", "--bias-features", "--core-per-cluster", "--d", "--k", "--n", "--noise",
            "--out", "--seed"],
    "fit": ["--data", "--k", "--l1", "--l2", "--l3", "--labels", "--max-outer", "--method",
            "--out", "--pca-dims", "--restarts", "--seed", "--threshold", "--tol",
            "--weights-out"],
    "bench": ["--data", "--grid", "--k", "--l3", "--labels", "--max-outer", "--methods",
              "--out", "--restarts", "--seed", "--threshold"],
    "corr": ["--data", "--labels", "--weights"],
}


def test_hyperparameters_pinned():
    assert sorted(f.name for f in fields(dckm.HyperParams)) == HYPERPARAMS


def test_flags_pinned():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: sorted(option for action in sub._actions for option in action.option_strings
                     if option not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert flags == FLAGS


def test_field_flags_take_the_dataclass_defaults():
    """A flag that sets a HyperParams or BiasSpec field declares no default of
    its own, so each default lives in one place; --restarts alone keeps the
    protocol's 20."""
    names = {f.name for cls in (dckm.HyperParams, dckm.BiasSpec) for f in fields(cls)}
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        (name, action.dest)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.dest in names and action.default not in (None, argparse.SUPPRESS)
    }
    assert declared == {("fit", "restarts"), ("bench", "restarts")}


def test_baselines_reach_only_the_solver_loops():
    baselines = importlib.import_module("dckm.baselines")
    private = sorted(
        value.__name__
        for value in vars(baselines).values()
        if getattr(value, "__module__", None) == "dckm.solver" and value.__name__.startswith("_")
    )
    assert private == ["_descend", "_lloyd"]


def test_solver_scores_through_one_residual_path():
    solver = importlib.import_module("dckm.solver")
    private = sorted(
        value.__name__
        for value in vars(solver).values()
        if getattr(value, "__module__", None) == "dckm.decorrelation"
        and value.__name__.startswith("_")
    )
    assert private == ["_residuals", "_weighted_gram"]
