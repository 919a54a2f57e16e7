"""Smoke test of ``scripts/c07_grid.py``, which wraps ``solver._backtrack``
and reads what it returns: one cell, two restart seeds, one dataset."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

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
