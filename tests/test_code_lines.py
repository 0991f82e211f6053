"""Smoke test of ``tools/code_lines.py``, the package's code-line counter."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# docstrings, the comment and the blank line do not count; the def line and
# both lines of the split return statement do
SOURCE = '''"""Module docstring
over two lines."""

# a comment line
def f(x):
    """Function docstring."""
    return (x +
            1)
'''


def test_counts_only_code_lines():
    assert code_lines.code_lines(SOURCE) == 3


def test_main_prints_the_total_of_its_modules_last(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert len(rows) > 2 and all(name.endswith(".py") for _, name in rows[:-1])
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
