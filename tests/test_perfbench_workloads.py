"""One round of each benchmark workload at the tiny size, in process: a
change to the API the benchmark reads (`h_exact(...).log()`,
`HTable.load`, `--cache-dir`, ...) fails here before a benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class _StubClock:
    """The workloads time their operations with `lap()`; no time is kept."""

    def lap(self):
        return 0.0


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling `tracing` by bare name, and its
    # dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(_DIR))
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["desk", "small-n", "tables"])
def test_workload_round_is_correct(workloads, name, tmp_path):
    size = workloads.SIZES["tiny"]
    wl = {"desk": lambda: workloads.Desk(size, 1),
          "small-n": lambda: workloads.SmallN(size, 1),
          "tables": lambda: workloads.Tables(size, str(tmp_path))}[name]()
    wl.setup()
    rnd = wl.run(0, _StubClock())
    assert rnd.ops > 0
    assert rnd.failed == 0
    assert rnd.errors + wl.finish() == []
