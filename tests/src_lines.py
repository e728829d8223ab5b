"""Line counts of the package source: total lines, code lines and modules.

A code line is one that is neither blank, nor a comment, nor part of a
docstring (the string that opens a module, class or function body, found
with ast).  pytest does not collect this file.  Run from anywhere:

    python tests/src_lines.py
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sierpinski"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers that a docstring of the module or any class or function spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one module."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in skip)
    return len(lines), code


def main() -> None:
    modules = sorted(SOURCE.glob("*.py"))
    totals = [count(path) for path in modules]
    total, code = (sum(column) for column in zip(*totals))
    print(f"{total:,} lines, {code:,} code lines, {len(modules)} modules in src/sierpinski")


if __name__ == "__main__":
    main()
