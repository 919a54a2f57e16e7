"""The public names of every module resolve, the package's and the
baselines' public names are pinned, and every function the benchmark's tracer
wraps by name exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import dckm

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
}


@pytest.mark.parametrize("module_name", sorted(PINNED))
def test_public_names_pinned(module_name):
    assert sorted(importlib.import_module(module_name).__all__) == PINNED[module_name]
