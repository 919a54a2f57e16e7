"""Smoke test of ``scripts/c07_grid.py``, which fits each (dataset, cell)
with one ``solver.fit_restarts`` call and reads the counts each fit returns:
one cell, two restart seeds, one dataset."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import dckm.solver as solver

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "c07_grid.py"


@pytest.fixture
def c07_grid(monkeypatch):
    # The script sets these when they are unset; undo that after the test.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    spec = importlib.util.spec_from_file_location("c07_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "GRID", (1.0,))
    monkeypatch.setattr(module, "RESTART_SEEDS", range(100, 102))
    monkeypatch.setattr(module, "DATASETS", (("biased", 0.9),))
    return module


def test_run_grid_and_compare(c07_grid, tmp_path, capsys):
    cells, fits = c07_grid.run_grid(2)
    assert len(cells) == 1 and cells[0]["fits"] == 2
    assert fits["labels"].shape == (2, 500)
    for key in ("objective", "sweeps", "converged", "trials", "steps"):
        assert fits[key].shape == (2,)
    assert np.all(fits["trials"] >= fits["steps"]) and np.all(fits["steps"] > 0)
    assert fits["per_search"].sum() == fits["steps"].sum()
    c07_grid.report_run(cells, fits)

    paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
    for path in paths:
        np.savez_compressed(path, **fits)
    capsys.readouterr()
    c07_grid.compare(*paths)
    assert "label vectors moved: 0 of 2" in capsys.readouterr().out


def test_bench_needs_an_existing_file(c07_grid, tmp_path, monkeypatch, capsys):
    """``--bench`` adds a run to an existing file, so a path that does not
    exist is refused with a usage error before the grid runs."""
    runs = []
    monkeypatch.setattr(c07_grid, "run_grid", runs.append)
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        c07_grid.main(["--cap", "2", "--label", "x", "--bench", str(missing)])
    assert exc.value.code == 2
    assert runs == [] and not missing.exists()
    assert f"--bench {missing}: no such file" in capsys.readouterr().err


def test_wall_time_goes_to_stderr(c07_grid, capsys):
    """The fits' wall time is reported on stderr, so two runs print the same
    stdout."""
    outs = []
    for _ in range(2):
        assert c07_grid.main(["--cap", "2"]) == 0
        out, err = capsys.readouterr()
        outs.append(out)
        assert err.startswith("fit wall time: ") and err.count("\n") == 1
        assert "wall time" not in out
    assert outs[0] == outs[1]

def test_protocol_takes_the_first_best_complete_cell(c07_grid):
    cells = [
        {"data": "a", "fits": 2, "nmi": 0.5, "id": 0},
        {"data": "b", "fits": 1, "nmi": 0.9, "id": 1},  # a fit failed
        {"data": "a", "fits": 1, "nmi": 0.9, "id": 2},  # a fit failed
        {"data": "a", "fits": 2, "nmi": 0.7, "id": 3},
        {"data": "b", "fits": 2, "nmi": 0.6, "id": 4},
        {"data": "a", "fits": 2, "nmi": 0.7, "id": 5},
    ]
    chosen = c07_grid.protocol(cells)
    assert list(chosen) == ["a", "b"]
    assert chosen["a"]["id"] == 3 and chosen["b"]["id"] == 4


def test_protocol_chooses_on_unrounded_means(c07_grid):
    """Two cells whose mean NMI differ only after the fourth decimal: the
    second is the better one, as ``dckm bench`` would choose, while the file
    holds both rounded to 0.994."""

    def fit(nmi):
        return dict(converged=True, sweeps=3, trials=6, steps=3, stalls=0, nmi=nmi, ari=0.9,
                    ess=100.0, ratio=0.5, objective=1.0)

    cells = [c07_grid.summarise("biased", l1, 1.0, [fit(nmi), fit(nmi)])
             for l1, nmi in ((1.0, 0.99401), (10.0, 0.99404))]
    assert c07_grid.protocol(cells)["biased"]["lambda1"] == 10.0
    assert [c07_grid.rounded(c)["nmi"] for c in cells] == [0.994, 0.994]


def test_run_grid_runs_the_library_restart_loop(c07_grid, monkeypatch):
    """One ``fit_restarts`` call per (dataset, cell) with C07's seeds, and no
    solver function replaced while it runs."""
    original = solver.fit_restarts, solver.fit, solver._backtrack
    calls = []

    def spy(X, params):
        untouched = solver.fit is original[1] and solver._backtrack is original[2]
        calls.append((params.lambda1, params.lambda2, params.seed, params.restarts, untouched))
        return original[0](X, params)

    monkeypatch.setattr(solver, "fit_restarts", spy)
    monkeypatch.setattr(c07_grid, "GRID", (1.0, 10.0))
    monkeypatch.setattr(c07_grid, "DATASETS", (("biased", 0.9), ("unbiased", 0.5)))
    c07_grid.run_grid(2)
    cells = [(l1, l2) for l1 in (1.0, 10.0) for l2 in (1.0, 10.0)]
    assert calls == [(l1, l2, 100, 2, True) for _ in range(2) for l1, l2 in cells]


def test_failed_cell_is_dropped_whole(c07_grid, monkeypatch):
    def empty_cluster(X, params):
        raise solver.EmptyClusterError([2])

    monkeypatch.setattr(solver, "fit_restarts", empty_cluster)
    cells, fits = c07_grid.run_grid(2)
    assert cells[0]["fits"] == 0 and cells[0]["nmi"] is None
    # One placeholder per restart seed keeps --compare aligned fit by fit.
    assert np.all(fits["labels"] == -1) and fits["labels"].shape == (2, 500)
    assert np.all(np.isnan(fits["objective"])) and not fits["steps"].any()


def fits_file(path, n_fits, n_rows=500):
    """A ``--fits`` file of ``n_fits`` identical fits."""
    np.savez_compressed(
        path, labels=np.zeros((n_fits, n_rows), dtype=np.int64), objective=np.ones(n_fits),
        sweeps=np.full(n_fits, 3), converged=np.ones(n_fits, dtype=bool),
        trials=np.full(n_fits, 6), steps=np.full(n_fits, 3), per_search=np.zeros(8, dtype=np.int64),
    )
    return path


@pytest.mark.parametrize("shapes", [((1,), (1440,)), ((2,), (1,)), ((2, 500), (2, 400))])
def test_compare_rejects_files_that_do_not_pair(c07_grid, tmp_path, capsys, shapes):
    """A 1-fit file against a 1,440-fit one used to broadcast and count more
    moved label vectors than fits; other shapes crashed in numpy."""
    paths = [fits_file(tmp_path / f"{name}.npz", *shape)
             for name, shape in zip("ab", shapes)]
    assert c07_grid.main(["--compare", *map(str, paths)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    for path in paths:
        labels_shape = tuple(np.load(path)["labels"].shape)
        assert f"{path} (labels {labels_shape})" in err


def test_compare_rejects_files_with_other_keys(c07_grid, tmp_path, capsys):
    a = fits_file(tmp_path / "a.npz", 2)
    b = tmp_path / "b.npz"
    np.savez_compressed(b, **{k: v for k, v in np.load(a).items() if k != "trials"})
    assert c07_grid.main(["--compare", str(a), str(b)]) == 1
    assert "do not pair fit by fit" in capsys.readouterr().err
    assert c07_grid.main(["--compare", str(a), str(a)]) == 0
