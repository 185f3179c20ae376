"""The benchmark's tracer patches library functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` fails at start-up."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, path", [t[:2] for t in tracer.TARGETS], ids=[f"{t[0]}:{t[1]}" for t in tracer.TARGETS]
)
def test_traced_name_resolves_to_a_function(module, path):
    owner, attr = tracer.resolve(module, path)
    assert callable(getattr(owner, attr))
