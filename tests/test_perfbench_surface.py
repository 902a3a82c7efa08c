"""The benchmark's tracer names package functions by dotted path, and
reads counts off some of their results; every name it traces must resolve,
and every field it reads must be there, or `perfbench/run.py --trace 1`
breaks."""

import importlib.util
import json
import pathlib

import pytest

from cycleweights import asymptotics, oracle, weights

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name", tracing.TRACED)
def test_traced_name_resolves(name):
    owner, attr, fn, _ = tracing._resolve(name)
    assert callable(fn) and fn.__name__ == attr


def _real_call(name, tmp_path):
    """(args, result) of one call of the traced function `name`."""
    w = weights.polynomial(1.0)
    if name == "asymptotics.solve_saddle":
        return (w, 1000), asymptotics.solve_saddle(w, 1000)
    if name == "weights.g_theta_partial":
        return (w, 0.5, 1e-12), weights.g_theta_partial(w, 0.5, 1e-12)
    if name == "oracle.HTable.save":
        tab, path = oracle.build_h_table(w, 100), str(tmp_path / "h.cwht")
        return (tab, path), tab.save(path)
    raise AssertionError(f"no call of {name} to read")


@pytest.mark.parametrize("name", tracing._RESULT_COUNTS)
def test_result_count_reads_a_real_result(name, tmp_path):
    # the fields the tracer reads off a result: SaddleData.truncation_K,
    # g_theta_partial's K and the saved file's size
    per_layer = {m["name"] for m in json.loads(
        (_PATH.parents[1] / "BENCHMARK.json").read_text())["per_layer"]}
    metric, value = tracing._RESULT_COUNTS[name](*_real_call(name, tmp_path))
    assert metric in per_layer
    assert value > 0
