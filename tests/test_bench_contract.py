"""The benchmark's layer tracer must find every function it names.

bench/tracer.py replaces each function named in SELF_TIME with a timing
wrapper, looking it up with getattr and no default, so a traced name that
the library no longer defines makes every traced benchmark run crash.
The tracer uses only the standard library and is imported here read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _self_time_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.SELF_TIME)


@pytest.mark.parametrize("span_name", _self_time_names())
def test_traced_name_resolves(span_name):
    module_name, func_name = span_name.split(".")
    module = importlib.import_module(f"instrorder.{module_name}")
    assert callable(getattr(module, func_name))
