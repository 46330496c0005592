"""Count the code lines of each ``nhwind`` module.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, and that token is not a module, class or function
docstring.  A token that spans several lines (a multi-line string or
bracketed expression) counts each line it touches.  Blank lines,
comment-only lines and docstrings therefore count nothing.

Usage, from the repository root::

    python tools/code_lines.py            # every module of src/nhwind
    python tools/code_lines.py FILE ...   # the given files

Prints one ``name count`` line per module.  Standard library only.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nhwind"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple, tuple]]:
    """``((row, col), (end_row, end_col))`` of every docstring, with
    columns in UTF-8 bytes as :mod:`ast` gives them."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    """Code lines of a Python source text, by the rule above."""
    spans = _docstring_spans(ast.parse(source))
    lines = source.splitlines()
    counted = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        if tok.type == tokenize.STRING:
            row, col = tok.start
            start = (row, len(lines[row - 1][:col].encode()))
            if any(a <= start < b for a, b in spans):
                continue
        counted.update(range(tok.start[0], tok.end[0] + 1))
    return len(counted)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    for path in paths:
        print(path.stem, count_code_lines(path.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
