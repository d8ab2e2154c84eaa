#!/usr/bin/env python3
"""The physical lines and the code lines of the Python files under a
directory (by default the package source, ``src/``).

Physical lines are the line ends, as ``cat DIR/**/*.py | wc -l`` counts
them. A code line holds a token other than a comment, a line break, an
indent, a dedent or the end marker, and is no line of a module, class or
function docstring; so blank, comment and docstring lines are not code.

Usage: python3 scripts/src_lines.py [DIR]

prints, for example:

    physical 2525
    code 1762
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """The physical lines and the code lines of a Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("dir", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    physical = code = 0
    for path in sorted(Path(args.dir).rglob("*.py")):
        lines, code_lines = counts(path.read_text(encoding="utf-8"))
        physical += lines
        code += code_lines
    print(f"physical {physical}\ncode {code}")


if __name__ == "__main__":
    main()
