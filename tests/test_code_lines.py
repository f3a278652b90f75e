"""``tools/code_lines.py``, which sizes ``src/rasqp`` in code lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment is still code

# A comment line.


class Box:
    """Class docstring."""

    def size(self, a,
             b):
        """Function docstring,
        over two lines.
        """
        text = """not a
docstring"""
        "a later string is an expression, not a docstring"
        return os.path.join(
            a,
            b,
            text,
        )
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import 1, class 1, def over 2, the assigned string 2, the later
    # string 1, the call over 5: docstrings, comments and blanks drop out.
    assert load_tool().code_lines(SOURCE) == 12


def test_printed_total_is_the_sum_of_the_rows(capsys):
    assert load_tool().main() == 0
    *rows, total = capsys.readouterr().out.splitlines()
    assert rows
    name, count = total.split()
    assert name == "total"
    assert int(count) == sum(int(row.split()[1]) for row in rows)
