"""Size of the library: the line count of ``src/dckm/*.py`` and its code lines.

    python3 scripts/loc.py [DIR]

Prints, per module and in total, ``wc -l``'s line count and the number of
code lines: lines that are not blank, not a comment and not part of a
docstring (a string literal that is the first statement of a module, class
or function, found with ``ast``). DIR defaults to the ``src/dckm`` of the
checkout that holds this script.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(lines, code_lines)`` of one source file. Lines are counted as
    ``wc -l`` counts them, by their ``\\n`` bytes: ``str.splitlines`` would
    also split at form feeds and other separators, and count a last line
    that has no newline."""
    text = path.read_bytes().decode("utf-8")
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(text.split("\n"), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return text.count("\n"), code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "dckm"
    total_lines = total_code = 0
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total (wc -l, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
