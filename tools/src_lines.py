"""Count the lines of the package source: non-blank, and non-blank outside docstrings.

Run as ``python tools/src_lines.py``; it counts the repository's ``src/``.
It prints one line per module (its path under ``src/``, then both counts),
then the two totals.

A docstring is the leading string statement of a module, class or function,
as ``ast`` finds it; its lines run from the statement's first to its last
line.  Only the standard library is used, so the script runs without the
package's dependencies.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers that docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(non-blank lines, non-blank lines outside docstrings) of one file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, str(path)))
    non_blank = [n for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    return len(non_blank), sum(n not in docs for n in non_blank)


def main() -> int:
    totals = [0, 0]
    for path in sorted(SRC.rglob("*.py")):
        counts = count(path)
        print(f"{path.relative_to(SRC)}: {counts[0]} non-blank, {counts[1]} outside docstrings")
        for i, n in enumerate(counts):
            totals[i] += n
    print(f"src non-blank lines: {totals[0]}")
    print(f"src non-blank lines outside docstrings: {totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
