"""Layer tracer: spans around calls into the library, installed from outside.

Each traced function is replaced by a wrapper in every ``instrorder`` module
that holds the same function object, because ``from .povm import
find_post_processing`` in ``order`` and ``cli`` makes bindings of its own.
Calls that resolve the name through a module at call time, which is every
call inside the package, then pass through the wrapper.

Spans are kept in memory as (name, start, end, parent, op, extra) and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

RANDGEN = (
    "random_distribution",
    "random_isometry",
    "random_unitary",
    "random_state",
    "random_povm",
    "random_rank1_povm",
    "random_instrument",
)
WITNESS_CONSTRUCTORS = (
    "witness_detailed_to_original",
    "witness_original_to_detailed",
    "witness_identity_reversal",
    "witness_to_trash_and_prepare",
    "witness_indecomposable_equivalence",
    "witness_map_post_processing",
)


def _tableau_cells(args, kwargs, result):
    m, n = args[0].shape
    return (m + 1) * (n + m + 1)


def _kraus_count(args, kwargs, result):
    return sum(len(op.kraus) for op in result.operations)


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (self-time metric, count metric or None, extra metric or None,
# function computing the extra quantity from (args, kwargs, result))
SELF_TIME = {
    "feasibility.solve_nonnegative": ("feasibility.solve_s", "feasibility.calls",
                                      ("feasibility.tableau_cells", _tableau_cells)),
    "povm.find_post_processing": ("povm.find_s", None, None),
    "povm.povm_equivalent": ("povm.equivalent_s", None, None),
    "povm.validate_povm": ("povm.validate_s", None, None),
    "instrument.minimal_kraus": ("instrument.minimal_kraus_s", "instrument.minimal_kraus_calls", None),
    "instrument.compose_post_processing": ("instrument.compose_s", None,
                                           ("instrument.compose_kraus", _kraus_count)),
    "instrument.detailed_instrument": ("instrument.detailed_s", None, None),
    "instrument.validate_instrument": ("instrument.validate_s", None, None),
    "instrument.luders": ("instrument.luders_s", None, None),
    "linalg.numerical_rank": ("linalg.numerical_rank_s", "linalg.numerical_rank_calls", None),
    "linalg.partial_isometry_factor": ("linalg.partial_isometry_s", None, None),
    "classify.is_indecomposable_instrument": ("classify.indecomposable_s", None, None),
    "classify.is_trash_and_prepare": ("classify.trash_prepare_s", None, None),
    "classify.is_measure_and_prepare": ("classify.measure_prepare_s", None, None),
    "classify.identity_class_certificate": ("classify.identity_class_s", None, None),
    "classify.is_extreme": ("classify.extreme_s", None, None),
    "simulate.is_isometric_channel": ("simulate.isometric_s", None, None),
    "order.witness_error": ("order.replay_s", None, None),
    "order.replay_witness": ("order.replay_s", None, None),
    "serialize.save": ("serialize.save_s", None, ("serialize.bytes_written", _saved_bytes)),
    "serialize.load": ("serialize.load_s", None, ("serialize.bytes_read", _loaded_bytes)),
    "cli.main": ("cli.self_s", None, None),
}
SELF_TIME.update({f"order.{name}": ("order.witness_s", None, None) for name in WITNESS_CONSTRUCTORS})
SELF_TIME.update({f"randgen.{name}": ("randgen.s", None, None) for name in RANDGEN})

# metric -> unit, in the order the benchmark reports them
UNITS = {}
for _time, _count, _extra in SELF_TIME.values():
    UNITS[_time] = "s"
    if _count:
        UNITS[_count] = "count"
    if _extra:
        UNITS[_extra[0]] = "B" if _extra[0].startswith("serialize.") else "count"
UNITS["order.witnesses"] = "count"
UNITS["traced.pass_s"] = "s"


class Tracer:
    """Records a span per call of every function named in SELF_TIME."""

    def __init__(self):
        self.spans = []
        self.op = None  # (pass number, operation index), set by the caller
        self._stack = []
        self._restore = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "instrorder" or name.startswith("instrorder.")]
        for span_name, (_, _, extra) in SELF_TIME.items():
            module_name, func_name = span_name.split(".")
            source = sys.modules.get(f"instrorder.{module_name}")
            if source is None:  # never imported (cli), so never called
                continue
            original = getattr(source, func_name)
            wrapper = self._wrap(span_name, original, extra[1] if extra else None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, measure):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op, None]
            if measure is not None:
                spans[index][5] = measure(args, kwargs, result)
            return result

        return traced

    def per_pass(self):
        """Per-layer totals for each pass number seen in the spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, op, extra) in enumerate(self.spans):
            row = totals[op[0]]
            time_metric, count_metric, extra_metric = SELF_TIME[name]
            row[time_metric] += (end - start) - child_time[index]
            if count_metric:
                row[count_metric] += 1
            if extra_metric and extra is not None:
                row[extra_metric[0]] += extra
            if name.split(".")[1] in WITNESS_CONSTRUCTORS and not (
                parent >= 0 and self.spans[parent][0].split(".")[1] in WITNESS_CONSTRUCTORS
            ):
                row["order.witnesses"] += 1
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}))
                fh.write("\n")
