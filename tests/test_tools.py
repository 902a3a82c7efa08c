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


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_counts_only_code(tmp_path):
    # docstrings of the module, a class and a function, comment-only and
    # blank lines are not code; a string statement that is no docstring,
    # and each line of a multi-line expression, are
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    assert load_tool("loc").code_lines(path) == 7


def test_pairs_claim_rule():
    # fixed numbers, no benchmark run: the parent's quartiles by linear
    # interpolation are 12.25 and 16.75 (IQR 4.5), its median 14.5
    compare = load_tool("pairs").compare
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    c = compare(parent, [p + 5 for p in parent], "higher")
    assert c["parent"] == (12.25, 14.5, 16.75)
    assert c["change"] == (17.25, 19.5, 21.75)
    assert (c["wins"], c["pairs"], c["claim"], c["worse"]) == (10, 10, True,
                                                               False)
    # every pair won, but a median gap of 4 is inside the IQR
    c = compare(parent, [p + 4 for p in parent], "higher")
    assert (c["wins"], c["claim"], c["worse"]) == (10, False, False)
    # a gap of 10, but one pair lost and one tied: 8 of 10 wins
    change = [p + 10 for p in parent]
    change[0], change[1] = 9.0, 11.0
    c = compare(parent, change, "higher")
    assert (c["wins"], c["claim"]) == (8, False)
    # one pair lost is still 9 of 10
    change[1] = 21.0
    assert compare(parent, change, "higher")["claim"]
    # for a metric where lower is better the same numbers lose every pair
    c = compare(parent, [p + 5 for p in parent], "lower")
    assert (c["wins"], c["claim"], c["worse"]) == (0, False, True)
    c = compare(parent, [p - 5 for p in parent], "lower")
    assert (c["wins"], c["claim"], c["worse"]) == (10, True, False)


def test_pairs_worse_rule():
    # the mirror of the claim rule, on the numbers above: the parent won
    # at least nine tenths of the pairs, and its median is better by more
    # than its own IQR of 4.5
    compare = load_tool("pairs").compare
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    c = compare(parent, [p - 5 for p in parent], "higher")
    assert (c["wins"], c["claim"], c["worse"]) == (0, False, True)
    # every pair lost, but a median gap of 4 is inside the IQR
    assert not compare(parent, [p - 4 for p in parent], "higher")["worse"]
    # a gap of 10, but one pair won and one tied: 8 of 10 lost
    change = [p - 10 for p in parent]
    change[0], change[1] = 11.0, 11.0
    c = compare(parent, change, "higher")
    assert (c["wins"], c["worse"]) == (1, False)
    # one pair won is still 9 of 10 lost
    change[1] = 1.0
    assert compare(parent, change, "higher")["worse"]
    # a tie on every pair is neither a gain nor a loss
    c = compare(parent, parent, "lower")
    assert (c["wins"], c["claim"], c["worse"]) == (0, False, False)
