""".github/code_lines.py, the count of lines that carry code, on a
fixture source whose count is worked out by hand."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# nine lines carry code: the import, the def, both lines of the total and
# of the string, the return, the class and its assignment
SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    # another comment
    total = (x +
             1)
    text = """a string
that is not a docstring"""
    return total, text, os


class C:
    """A class docstring."""

    y = 1
'''


def test_fixture_count():
    assert code_lines.code_lines(SOURCE) == 9


def test_counts_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(SOURCE)
    second.write_text("x = 1\n\n# done\n")
    code_lines.main([str(first), str(second)])
    assert capsys.readouterr().out.split() == [
        "9", str(first), "1", str(second), "10", "total",
    ]
