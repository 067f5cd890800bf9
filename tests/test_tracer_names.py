"""The functions that bench/tracer.py wraps still exist under their names.

A traced run raises TraceError for a name with no binding left; this test
catches a rename or deletion without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, qualname) for _, module, qualname in tracer.SPANS + tracer.COUNTED]


@pytest.mark.parametrize("module_name, qualname", _traced_names())
def test_traced_name_resolves_to_callable(module_name, qualname):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = module
    if owner_name:
        owner = vars(module).get(owner_name)
        assert isinstance(owner, type), f"{module_name}.{owner_name} is not a class"
    assert callable(vars(owner).get(attr)), f"{module_name}.{qualname} is gone"
