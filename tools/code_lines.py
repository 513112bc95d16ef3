"""Count the code lines of Python files.

A code line holds a token other than a comment, and is not part of a
docstring (of a module, class or function); blank lines hold none.  A
statement or string that spans several lines counts each of them.

    python3 tools/code_lines.py PATH...

prints the count of each file and, for more than one file, the total.  A
directory PATH stands for every ``*.py`` file under it, in sorted order, so
``python3 tools/code_lines.py src tests`` counts the package and its tests.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of the docstrings in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of the Python source ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _files(paths: list[str]) -> list[str]:
    """The files named by ``paths``: a directory gives its ``*.py`` files,
    recursively, in sorted order."""
    out = []
    for path in paths:
        out += sorted(map(str, Path(path).rglob("*.py"))) if Path(path).is_dir() else [path]
    return out


def main(paths: list[str]) -> None:
    paths = _files(paths)
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        print(f"{count:6d} {path}")
        total += count
    if len(paths) > 1:
        print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
