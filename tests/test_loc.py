"""``scripts/loc.py``: per module and in total, the ``wc -l`` line count and
the code lines, which leave out blank lines, comments and docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "loc.py"

SOURCE = '''"""Module
docstring."""

# comment
import os


class A:
    """One line."""

    x = 1  # trailing comment


def f():
    """Two
    lines."""
    return "not a docstring"
'''


def load():
    spec = importlib.util.spec_from_file_location("loc", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_and_code_lines(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    loc = load()
    assert loc.count(tmp_path / "a.py") == (17, 5)
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split() == ["19", "6", "total", "(wc", "-l,", "code", "lines)"]
