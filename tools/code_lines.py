"""Count the code lines of each module of ``src/pointersim``.

A code line holds at least one token that is not a comment and lies outside
every module, class and function docstring, so blank lines, comment lines
and docstrings do not count.  Docstring spans come from ``ast`` and tokens
from ``tokenize``; the script needs only the standard library.

Run it from anywhere as ``python tools/code_lines.py``; it prints one line
per module and the total last.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "pointersim"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
