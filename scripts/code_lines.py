#!/usr/bin/env python3
"""Print the code lines of each Python module and their total.

A code line is a line that holds part of a statement: blank lines, comment
lines and the lines of docstrings (the leading string of a module, class
or function body) do not count.  A line with code and a trailing comment
counts.

Usage: python scripts/code_lines.py [-h] [path ...]

Each path is a Python file or a directory searched for *.py files; the
default is the package, src/leonardz.  A path that does not exist ends the
run with exit status 2 and a one-line message on standard error.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source):
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    default = Path(__file__).resolve().parent.parent / "src" / "leonardz"
    parser = argparse.ArgumentParser(
        prog=Path(argv[0]).name,
        description="Print the code lines of each Python module and their total.")
    parser.add_argument("paths", nargs="*", type=Path, default=[default], metavar="path",
                        help="a Python file, or a directory searched for *.py files "
                             "(default: the package, src/leonardz)")
    paths = parser.parse_args(argv[1:]).paths
    missing = next((path for path in paths if not path.exists()), None)
    if missing is not None:
        print(f"{parser.prog}: error: no such file or directory: {missing}", file=sys.stderr)
        return 2
    total = 0
    for path in modules(paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
