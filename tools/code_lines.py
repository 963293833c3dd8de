"""Count the code lines of Python sources: lines that hold a token other
than a comment, with the docstrings of modules, classes and functions
taken out.

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default: the
package under src/).  Prints one line per file, the count and the path,
and a last line with the total, in the layout of `wc -l`.
"""
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of the tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in one source file."""
    text = Path(path).read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def sources(paths):
    for p in map(Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def main(argv=None):
    paths = list(sources(argv or [SRC]))
    counts = [code_lines(p) for p in paths]
    for n, p in zip(counts, paths):
        print(f"{n:7d} {os.path.relpath(p)}")
    print(f"{sum(counts):7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
