import ast
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

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


def test_pairs_bound_rule():
    # the benchmark's no-regression rule: the change's median may be worse
    # than the parent's median of 14.5 by at most bound of it
    compare = load_tool("pairs").compare
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    c = compare(parent, [p + 2.9 for p in parent], "lower", 0.2)
    assert c["worse_by"] == pytest.approx(0.2) and c["within"]
    c = compare(parent, [p + 3 for p in parent], "lower", 0.2)
    assert c["worse_by"] == pytest.approx(3 / 14.5) and not c["within"]
    c = compare(parent, [p - 3 for p in parent], "higher", 0.2)
    assert c["worse_by"] == pytest.approx(3 / 14.5) and not c["within"]
    # better by any amount is within, and with no bound nothing is over
    c = compare(parent, [p + 30 for p in parent], "higher", 0.0)
    assert c["worse_by"] == pytest.approx(-30 / 14.5) and c["within"]
    assert compare(parent, [p * 9 for p in parent], "lower")["within"]


def test_pairs_run_records_a_failed_run(monkeypatch):
    # a run that exits non-zero is a failed, not correct result with its
    # exit code and last stderr line, not an exception
    pairs = load_tool("pairs")
    calls = []

    def fake(cmd, **kw):
        calls.append(kw)
        return subprocess.CompletedProcess(cmd, 3, "", "Traceback\nboom\n")

    monkeypatch.setattr(pairs.subprocess, "run", fake)
    res = pairs.run(Path("."), "desk", 1, 0.5)
    assert res == {"correct": False, "failed": 0, "metrics": {}, "exit": 3,
                   "error": "boom"}
    assert "check" not in calls[0]


def test_pairs_main_goes_on_past_a_failed_run(monkeypatch, tmp_path, capsys):
    # fixed results from a fake run: the change's second run fails, so its
    # pair is left out of every metric, and the counts name it
    pairs = load_tool("pairs")
    spec = {"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    seen = []

    def fake(root, workload, seed, seconds):
        seen.append((root.name, seed))
        if (root.name, seed) == ("change", 11):
            return {"correct": False, "failed": 0, "metrics": {}, "exit": 1,
                    "error": "boom"}
        scale = 1.1 if root.name == "change" else 1.0
        return {"correct": True, "failed": 0, "metrics": {
            "wall_s": {"value": scale * (1.0 + seed / 100)},
            "ops_per_s": {"value": (100.0 + seed) / scale ** 3}}}

    monkeypatch.setattr(pairs, "run", fake)
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "desk", "--pairs", "4",
                       "--seed", "10"]) == 0
    assert seen == [("parent", 10), ("change", 10), ("change", 11),
                    ("parent", 11), ("parent", 12), ("change", 12),
                    ("change", 13), ("parent", 13)]
    out = capsys.readouterr().out
    assert "parent: 4 runs, 0 failed" in out
    assert "change: 4 runs, 1 failed" in out and "exit 1: boom" in out
    rows = {line.split()[0]: line for line in out.splitlines()}
    # on the three pairs left wall_s is 10% worse, within its 25% bound,
    # and ops_per_s 1 - 1/1.1^3 = 24.9% worse
    assert " 0/3 " in rows["wall_s"] and "ok (+10.0% of 25%)" in rows["wall_s"]
    assert " 0/3 " in rows["ops_per_s"]
    assert "ok (+24.9% of 25%)" in rows["ops_per_s"]


def test_mutants_are_current():
    # runs no mutant: each old text occurs exactly once in its file, and
    # each test a mutant names is defined in its test file
    mutants = load_tool("mutants")
    src = TOOLS.parent / "src" / "cycleweights"
    tests = {}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (src / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            if path not in tests:
                tree = ast.parse((TOOLS.parent / path).read_text())
                tests[path] = {node.name for node in tree.body
                               if isinstance(node, ast.FunctionDef)}
            assert name.partition("[")[0] in tests[path], (m.name, test)


def test_mutant_outcome_rule():
    # fixed pytest output, no run: a mutant is caught when every test it
    # names failed, a bare name standing for any of its cases
    mutants = load_tool("mutants")
    report = ("..F\n=== short test summary info ===\n"
              "FAILED tests/test_a.py::test_x[p1] - AssertionError\n"
              "FAILED tests/test_a.py::test_y - ValueError: boom\n")
    failed = mutants.failed_tests(report)
    assert failed == ["tests/test_a.py::test_x[p1]", "tests/test_a.py::test_y"]
    assert mutants.caught(["tests/test_a.py::test_x"], failed)
    assert mutants.caught(["tests/test_a.py::test_x[p1]",
                           "tests/test_a.py::test_y"], failed)
    assert not mutants.caught(["tests/test_a.py::test_x[p2]"], failed)
    assert not mutants.caught(["tests/test_a.py::test_y",
                               "tests/test_a.py::test_z"], failed)
    assert not mutants.caught(["tests/test_a.py::test_x_more"], failed)
