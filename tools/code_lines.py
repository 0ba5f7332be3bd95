"""Count the code lines of each module in ``src/diamondlab``.

A code line is one that is not blank, not a comment, and not inside a
module, class or function docstring.  Prints one ``module lines`` line
per module, then the total.  It reads the files and writes nothing.

Usage: python3 tools/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diamondlab"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (from 1) inside a module, class or function
    docstring."""
    inside = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            inside.update(range(first.lineno, first.end_lineno + 1))
    return inside


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
