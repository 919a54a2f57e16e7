"""The benchmark's workloads.

Each workload has a set-up step (import, data generation, CSV write and
read-back) and a pass (the protocol whose wall time is ``solve_s``). A pass is
one closed-loop caller: every call into ``dckm`` waits for the previous one to
return. The workload seed only chooses the generated datasets; ``dckm``
receives the data and the fixed protocol parameters.

Calls go through module attributes (``solver.fit_restarts``, not a name
imported here), so wrappers installed by :mod:`tracer` see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dckm import baselines, cli, data, metrics, solver
from dckm.core import HyperParams

# Restart seeds are base, base+1, ... as in acceptance test C07.
RESTART_BASE = 100


@dataclass
class PassResult:
    signature: str  # digest of every label vector and objective (or table bytes)
    nmi: float
    ari: float
    attempted: int
    failed: int
    detail: dict


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Dataset seeds for a run: disjoint blocks, so runs at different seeds
    never share a dataset."""
    return [seed * count + j for j in range(count)]


def _roundtrip(dataset, path: Path, problems: list[str]):
    data.save_dataset(dataset, path)
    loaded = data.load_csv(path, label_column="label")
    if not (np.array_equal(loaded.X, dataset.X) and np.array_equal(loaded.labels, dataset.labels)):
        problems.append(f"{path.name}: CSV read-back differs from the generated data")
    return loaded


@dataclass(frozen=True)
class GridWorkload:
    """The C07 comparison protocol on generated biased datasets.

    For every dataset and (lambda1, lambda2) cell: ``fit_restarts`` with
    lambda3 = 1, then k-means on the same restart seeds. The cell with the
    highest mean NMI over all datasets and restarts is selected; ``nmi`` and
    ``ari`` are dckm's means there. A cell that raises ``EmptyClusterError``
    counts as a failed operation and is left out of the selection.
    """

    name: str
    spec: dict  # BiasSpec fields except the seed
    datasets: int
    cells: tuple
    restarts: int
    max_outer_iters: int

    def setup(self, seed: int, out_dir: Path, problems: list[str]):
        out = []
        for ds_seed in dataset_seeds(seed, self.datasets):
            dataset = data.generate_biased(data.BiasSpec(seed=ds_seed, **self.spec))
            out.append(_roundtrip(dataset, out_dir / f"{self.name}-{ds_seed}.csv", problems))
        return out

    def run_pass(self, datasets, out_dir: Path) -> PassResult:
        k = self.spec["n_clusters"]
        digest = hashlib.sha256()
        attempted = failed = 0
        scores = {cell: [] for cell in self.cells}
        km_scores = []
        for ds in datasets:
            for cell in self.cells:
                hp = HyperParams(
                    n_clusters=k,
                    lambda1=cell[0],
                    lambda2=cell[1],
                    lambda3=1.0,
                    seed=RESTART_BASE,
                    restarts=self.restarts,
                    max_outer_iters=self.max_outer_iters,
                )
                attempted += 1
                try:
                    _, summaries = solver.fit_restarts(ds.X, hp)
                except solver.EmptyClusterError:
                    failed += 1
                    digest.update(b"empty-cluster")
                    continue
                for s in summaries:
                    digest.update(s.labels.astype(np.int64).tobytes())
                    digest.update(struct.pack("<d", s.objective))
                    scores[cell].append((metrics.nmi(ds.labels, s.labels), metrics.ari(ds.labels, s.labels)))
            for i in range(self.restarts):
                attempted += 1
                try:
                    labels = baselines.kmeans(ds.X, k, seed=RESTART_BASE + i).labels
                except solver.EmptyClusterError:
                    failed += 1
                    digest.update(b"empty-cluster")
                    continue
                digest.update(labels.astype(np.int64).tobytes())
                km_scores.append(metrics.nmi(ds.labels, labels))
        means = {cell: np.mean(v, axis=0) for cell, v in scores.items() if v}
        best = max(means, key=lambda cell: means[cell][0]) if means else None
        nmi, ari = (float(means[best][0]), float(means[best][1])) if best else (float("nan"),) * 2
        detail = {
            "best_cell": list(best) if best else None,
            "cell_mean_nmi": {f"{c[0]:g},{c[1]:g}": float(m[0]) for c, m in means.items()},
            "kmeans_mean_nmi": float(np.mean(km_scores)) if km_scores else None,
        }
        return PassResult(digest.hexdigest(), nmi, ari, attempted, failed, detail)


# BiasSpec field -> dckm gen flag
GEN_FLAGS = {
    "n": "--n",
    "d": "--d",
    "n_clusters": "--k",
    "core_per_cluster": "--core-per-cluster",
    "bias_features": "--bias-features",
    "bias_strength": "--bias",
    "noise_flip": "--noise",
}


@dataclass(frozen=True)
class CliWorkload:
    """``dckm gen`` per dataset, then one ``dckm bench`` over all of them,
    through ``dckm.cli.main(argv)`` in this process."""

    name: str
    spec: dict  # BiasSpec fields except the seed, passed as dckm gen flags
    datasets: int
    methods: str
    grid: str
    restarts: int
    max_outer_iters: int

    def setup(self, seed: int, out_dir: Path, problems: list[str]):
        paths = []
        for ds_seed in dataset_seeds(seed, self.datasets):
            path = out_dir / f"{self.name}-{ds_seed}.csv"
            argv = ["gen"]
            for field, flag in GEN_FLAGS.items():
                argv += [flag, repr(self.spec[field])]
            code = _cli(argv + ["--seed", str(ds_seed), "--out", str(path)])
            if code != 0:
                problems.append(f"dckm gen exited {code}")
                continue
            loaded = data.load_csv(path, label_column="label")
            expected = data.generate_biased(data.BiasSpec(seed=ds_seed, **self.spec))
            if not np.array_equal(loaded.X, expected.X):
                problems.append(f"{path.name}: dckm gen output differs from generate_biased")
            paths.append(path)
        return paths

    def run_pass(self, paths, out_dir: Path) -> PassResult:
        table = out_dir / f"{self.name}-table.txt"
        argv = ["bench"]
        for path in paths:
            argv += ["--data", str(path)]
        argv += [
            "--labels", "label", "--methods", self.methods, "--k", str(self.spec["n_clusters"]),
            "--grid", self.grid, "--restarts", str(self.restarts), "--seed", str(RESTART_BASE),
            "--max-outer", str(self.max_outer_iters), "--out", str(table),
        ]
        table.unlink(missing_ok=True)
        code = _cli(argv)
        attempted, failed = 1, int(code != 0)
        text = table.read_bytes() if table.exists() else b""
        nmis, aris = [], []
        for line in text.decode("utf-8").splitlines():
            fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
            if line.startswith("[cell]"):
                attempted += 1
                failed += "error" in fields
            elif line.startswith("[row]"):
                nmis.append(float(fields["dckm_nmi"]))
                aris.append(float(fields["dckm_ari"]))
        ok = len(nmis) == len(paths) == self.datasets
        detail = {"exit_code": code, "table_bytes": len(text), "rows": len(nmis)}
        return PassResult(
            hashlib.sha256(text).hexdigest(),
            float(np.mean(nmis)) if ok else float("nan"),
            float(np.mean(aris)) if ok else float("nan"),
            attempted,
            failed,
            detail,
        )


def _cli(argv) -> int:
    """``dckm.cli.main(argv)`` with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


C07_FAMILY = dict(
    n=500, d=24, n_clusters=3, core_per_cluster=1, bias_features=5, bias_strength=0.9, noise_flip=0.005
)
C10_SHAPE = dict(
    n=2000, d=100, n_clusters=5, core_per_cluster=4, bias_features=60, bias_strength=0.8, noise_flip=0.05
)

# Why each workload exists, and its expected layer costs: README.md and the
# "why" lines of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            name="grid-c07",
            spec=C07_FAMILY,
            datasets=15,
            cells=((1e-2, 1e3), (1e3, 1e3)),
            restarts=1,
            max_outer_iters=40,
        ),
        GridWorkload(
            name="wide-c10",
            spec=C10_SHAPE,
            datasets=6,
            cells=((1e3, 1e3),),
            restarts=2,
            max_outer_iters=5,
        ),
        CliWorkload(
            name="cli-bench",
            spec=C07_FAMILY,
            datasets=6,
            methods="kmeans,dropkm,pcakm,deckm,dckm",
            grid="0.01,1000",
            restarts=2,
            max_outer_iters=10,
        ),
    )
}
