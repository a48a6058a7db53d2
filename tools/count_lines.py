#!/usr/bin/env python3
"""Count the logical lines of Python modules: lines that hold code.

    python3 tools/count_lines.py [PATH ...]

Each ``PATH`` is a ``.py`` file or a directory, searched recursively for
``.py`` files; the default is this checkout's ``src/gmprod``. A line is
logical unless it is blank, holds only a comment, or lies in a docstring
(the string that opens a module, class or function body). Every line of
any other string counts, a multi-line one included. Prints one
``COUNT PATH`` line per module, sorted by path, then ``COUNT total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that a docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """The number of logical lines in the Python ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories searched recursively, sorted."""
    return sorted({f for path in paths for f in ([path] if path.is_file() else path.rglob("*.py"))})


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description="Count the logical lines of Python modules.")
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "gmprod"],
                        help="files or directories (default: src/gmprod)")
    opts = parser.parse_args(args)
    total = 0
    for path in modules(opts.paths):
        n = count_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
