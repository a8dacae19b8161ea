"""One workload in one process: build the seeded inputs, run passes, check.

Started by run.py with one BLAS thread and ``src`` on PYTHONPATH.  Prints
``ready`` once the inputs exist (run.py times set-up up to that line), then,
unless ``--setup-only``, runs one warm-up pass and timed passes until
``--seconds`` have passed (at least MIN_PASSES), checks the answers of the
last pass against the oracles, and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = {
    "povm-lp": "povm_lp",
    "instrument-witness": "instrument_witness",
    "cli-pipeline": "cli_pipeline",
}
MIN_PASSES = 3


@dataclass
class Op:
    """One operation of a pass.

    call() returns the raw answer; decide(raw) the decision compared with
    expected (a failure when they differ); check(raw) runs the independent
    oracle and returns an error text or None; fingerprint(raw) must be the
    same in every pass.  For an order question, yes_when is the decision
    that means "yes"; other operations leave it None.  inputs are the
    objects a user would hold as documents to ask the same question.
    """

    name: str
    call: Callable[[], object]
    expected: object
    decide: Callable[[object], object] = lambda raw: raw
    check: Callable[[object], object] = lambda raw: None
    fingerprint: Callable[[object], object] = lambda raw: None
    yes_when: object = None
    inputs: tuple = ()


def input_document_bytes(workdir, ops) -> int:
    """Bytes of the documents, written by serialize.save, that hold the
    inputs of a pass's questions: what a user would hand to the CLI."""
    from instrorder import serialize

    workdir.mkdir(parents=True, exist_ok=True)
    total = 0
    seen = set()
    for op in ops:
        for obj in op.inputs:
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            path = workdir / "input.json"
            serialize.save(serialize.document_for(obj), path)
            total += path.stat().st_size
    return total


def run_pass(ops, pass_no, tracer):
    """Run every operation once; returns (wall seconds, [(raw, error, seconds)])."""
    results = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = (pass_no, index)
        t0 = time.perf_counter()
        try:
            raw, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            raw, error = None, exc
        results.append((raw, error, time.perf_counter() - t0))
    return time.perf_counter() - start, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import instrorder

    if Path(instrorder.__file__).resolve().parent != ROOT / "src" / "instrorder":
        print(f"instrorder imported from {instrorder.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    ops = module.build(args.seed, workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    try:
        return _measure(args, module, ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, module, ops, workdir) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    before_pass = getattr(module, "before_pass", lambda workdir: None)
    before_pass(workdir)
    _, warm = run_pass(ops, 0, tracer)
    warm_prints = [_fingerprint(op, r) for op, r in zip(ops, warm)]

    times = [[] for _ in ops]
    walls = []
    elapsed = 0.0
    passes = 0
    while elapsed < args.seconds or passes < MIN_PASSES:
        before_pass(workdir)
        passes += 1
        wall, last = run_pass(ops, passes, tracer)
        walls.append(wall)
        elapsed += wall
        for op_times, (_, _, seconds) in zip(times, last):
            op_times.append(seconds)
        prints = [_fingerprint(op, r) for op, r in zip(ops, last)]
        if prints != warm_prints:
            changed = [op.name for op, a, b in zip(ops, prints, warm_prints) if a != b]
            print(f"answers differ from the warm-up pass: {changed}", file=sys.stderr)
            return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()

    # every pass gave the same decisions (checked above), so judge the last
    decisions = [_decision(op, raw, error) for op, (raw, error, _) in zip(ops, last)]
    ok = [error is None and d == op.expected for op, (_, error, _), d in zip(ops, last, decisions)]
    for op, (_, error, _), d, good in zip(ops, last, decisions, ok):
        if error is not None:
            print(f"{op.name}: {type(error).__name__}: {error}", file=sys.stderr)
        elif not good:
            print(f"{op.name}: answered {d!r}, expected {op.expected!r}", file=sys.stderr)
    attempted = passes * len(ops)
    failed = passes * ok.count(False)
    # An operation's time is its median over the passes, so a burst of
    # machine noise inside one pass moves only the operations it hit.
    medians = [statistics.median(t) for t in times]
    yes_s = no_s = 0.0
    for op, d, good, m in zip(ops, decisions, ok, medians):
        if good and op.yes_when is not None:
            if d == op.yes_when:
                yes_s += m
            else:
                no_s += m

    correct = True
    for op, (raw, error, _) in zip(ops, last):
        if error is not None or _decision(op, raw, error) != op.expected:
            continue
        try:
            problem = op.check(raw)
        except Exception:
            problem = traceback.format_exc()
        if problem:
            correct = False
            print(f"{op.name}: oracle: {problem}", file=sys.stderr)

    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        totals = tracer.per_pass()
        from tracer import UNITS

        metrics = {
            name: {
                "value": statistics.median(totals[p].get(name, 0.0) for p in range(1, passes + 1)),
                "unit": unit,
            }
            for name, unit in UNITS.items()
            if name != "traced.pass_s"
        }
        metrics["traced.pass_s"] = {"value": statistics.median(walls), "unit": "s"}
    else:
        doc_bytes = getattr(module, "document_bytes", input_document_bytes)(workdir, ops)
        metrics = {
            "ops_per_s": {"value": ok.count(True) / sum(medians), "unit": "1/s"},
            "yes_s": {"value": yes_s, "unit": "s"},
            "no_s": {"value": no_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "doc_mb": {"value": doc_bytes / 1e6, "unit": "MB"},
        }
    print(f"{passes} timed passes of {len(ops)} operations", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _decision(op, raw, error):
    return None if error is not None else op.decide(raw)


def _fingerprint(op, result):
    raw, error, _ = result
    if error is not None:
        return ("error", type(error).__name__, str(error))
    return (op.decide(raw), op.fingerprint(raw))


if __name__ == "__main__":
    sys.exit(main())
