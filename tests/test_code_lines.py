"""Self-test of the code-line counter in tools/code_lines.py."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Counted: import, def, both lines of the bracketed sum, return, class,
# and both lines of the multi-line string value; 8 in all.  Not
# counted: three docstrings (two spanning two lines), the comment-only
# line and the blank lines.
FIXTURE = '''"""Module docstring
over two lines."""
import os  # a trailing comment does not hide the code


# a comment-only line
def f(x):
    """Function docstring."""
    total = (x +
             1)
    return "not a docstring"


class C:
    """Class docstring,
    over two lines."""
    s = """a multi-line
string value"""
'''


def test_counts_code_lines_only():
    assert code_lines.count_code_lines(FIXTURE) == 8
    assert code_lines.count_code_lines("") == 0


def test_prints_each_package_module(capsys):
    assert code_lines.main([]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert {"berry", "bloch", "cli", "lattice"} <= set(names)
