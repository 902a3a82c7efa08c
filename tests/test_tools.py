import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# the counted lines are marked "# code"
MODULE = '''"""Module docstring,
on two lines."""

import os  # code


# a comment-only line
class Box:  # code
    """Class docstring."""

    size = 1  # code

    def area(self):  # code
        """Function docstring,

        with a blank line inside."""
        "a string statement after the docstring"  # code
        return (self.size  # code
                * 2)  # code
'''


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", TOOLS / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    return loc


def test_code_lines_counts_only_code(tmp_path):
    # docstrings of the module, a class and a function, comment-only and
    # blank lines are not code; a string statement that is no docstring,
    # and each line of a multi-line expression, are
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert load_loc().code_lines(path) == 7
