"""The names the benchmark's tracer (perfbench/tracer.py) wraps or reads.

`perfbench/run.py --trace 1` replaces each (module, name) of the tracer's
WRAPPED list with a wrapper and reads cache_info() from the kernel caches;
a rename or deletion in the package breaks the traced benchmark, so it
must fail here first.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = load_tracer()


WRAPPED = [(module, name) for module, name, _ in TRACER_MODULE.WRAPPED]


@pytest.mark.parametrize("module, name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_wrapped_name_exists(module, name):
    assert module in TRACER_MODULE.MODULES
    assert callable(getattr(importlib.import_module(f"twostage.{module}"), name))


@pytest.mark.parametrize(
    "module, name",
    [
        ("binomial", "binom_pmf"),
        ("binomial", "binom_cdf"),
        ("binomial", "binom_upper_tail"),
        ("inference", "interval_for_outcome"),
    ],
)
def test_cached_function_keeps_cache_info(module, name):
    info = getattr(importlib.import_module(f"twostage.{module}"), name).cache_info()
    assert info.currsize >= 0
