"""Count the code lines of Python files.

A code line holds a token other than a comment, and is not part of a
docstring (of a module, class or function); blank lines hold none.  A
statement or string that spans several lines counts each of them.

    python3 tools/code_lines.py FILE...

prints the count of each file and, for more than one file, the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

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


def main(paths: list[str]) -> None:
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
