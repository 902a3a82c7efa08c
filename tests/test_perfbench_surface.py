"""The benchmark's tracer names package functions by dotted path; every
name it traces must resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
import pathlib

import pytest

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
