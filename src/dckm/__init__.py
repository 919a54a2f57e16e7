"""Decorrelated k-means: clustering binary-featured data under selection bias.

The solver couples a weighted k-means factorization with a moment-balancing
loss over a shared sample-weight vector, so spurious feature co-occurrence
patterns stop steering the clusters.
"""

from .baselines import (
    balance_only_weights,
    kmeans,
    pca_project,
    select_uncorrelated_features,
    weighted_kmeans,
)
from .core import HyperParams, SampleWeights, one_hot_rows, validate_data
from .data import BiasSpec, LabeledDataset, binarize, generate_biased, load_csv, save_dataset
from .decorrelation import balance_gradient, balance_loss
from .metrics import ari, correlation_amount, nmi
from .solver import (
    EmptyClusterError,
    FitResult,
    fit,
    fit_restarts,
    objective,
    omega_gradient,
    omega_objective,
    update_assignments,
    update_centroids,
    update_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BiasSpec",
    "EmptyClusterError",
    "FitResult",
    "HyperParams",
    "LabeledDataset",
    "SampleWeights",
    "ari",
    "balance_gradient",
    "balance_loss",
    "balance_only_weights",
    "binarize",
    "correlation_amount",
    "fit",
    "fit_restarts",
    "generate_biased",
    "kmeans",
    "load_csv",
    "nmi",
    "objective",
    "omega_gradient",
    "omega_objective",
    "one_hot_rows",
    "pca_project",
    "save_dataset",
    "select_uncorrelated_features",
    "update_assignments",
    "update_centroids",
    "update_weights",
    "validate_data",
    "weighted_kmeans",
]
