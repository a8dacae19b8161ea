"""The benchmark must be able to run against the library as it stands.

bench/tracer.py replaces each function named in SELF_TIME with a timing
wrapper, looking it up with getattr and no default, so a traced name that
the library no longer defines makes every traced benchmark run crash.
The tracer uses only the standard library and is imported here read-only.

The smoke tests run a few operations of each workload, with bench/ on
sys.path for the test only, so that a library type the benchmark's
workloads or oracles cannot read fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


@pytest.fixture
def bench(monkeypatch):
    """Import bench modules by name; they leave sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


def _run(op):
    raw = op.call()
    assert op.decide(raw) == op.expected, op.name
    assert op.check(raw) is None, op.name


def test_povm_lp_first_rung_and_anchor_run(bench):
    ops = bench("povm_lp").build(1, None)
    for op in ops[:2] + ops[-2:]:  # the first rung's yes and no, then the anchor's
        _run(op)


def test_instrument_witness_classifier_and_question_run(bench):
    ops = bench("instrument_witness").build(1, None)
    by_name = {op.name: op for op in ops}
    _run(by_name["measure_and_prepare m&p d=4 n=3 mixed"])
    _run(by_name["indecomposable luders d=4 n=4 vs rotated"])


def test_cli_pipeline_first_luders_rung_runs(bench, tmp_path):
    cli_pipeline = bench("cli_pipeline")
    d, n = cli_pipeline.LUDERS_RUNGS[0]
    for op in cli_pipeline.luders_ops(0, d, n, 1, tmp_path):
        _run(op)
