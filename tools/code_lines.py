"""Count the code lines of each module of ``src/ottolab`` and ``tests``.

A code line is a line that is not blank, not only a comment, and not
inside a module, class or function docstring.  The docstring spans come
from ``ast``; every other line counts when ``tokenize`` finds a token on it
other than a comment, a line break or an indentation change (a string that
spans lines counts on each of its lines).  Prints one block per directory,
the package's and then the tests', each one line per module and then the
total, and exits 0: the counts are reported, not checked.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: (directory, name prefix) of each block
BLOCKS = ((ROOT / "src" / "ottolab", ""), (ROOT / "tests", "tests/"))

#: tokens that do not make a line a code line
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    for i, (directory, prefix) in enumerate(BLOCKS):
        if i:
            print()
        total = 0
        for path in sorted(directory.glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {prefix}{path.stem}")
        print(f"{total:6d}  {prefix}total")


if __name__ == "__main__":
    main()
