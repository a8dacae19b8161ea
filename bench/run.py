"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload povm-lp --seed 1 --seconds 20 --trace 0

Runs the workload in a child process (bench/workload.py) with one BLAS and
OpenMP thread and the checkout's src/ on PYTHONPATH.  With --trace 0 it
also starts SETUP_PROBES set-up-only children, half before the measured
child and half after it, and reports setup_s: the shortest time from
starting a child to its ``ready`` line (interpreter start, imports, input
generation) over those probes and the measured child.  A shared machine
runs in slow spells of seconds to minutes; the probes span the whole run,
so a spell shorter than the run leaves at least one of them untouched,
while a median would follow the share of the run the spell took.
With --trace 1 the child traces layer spans and reports per-layer metrics.
``--workload all`` runs every workload, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("povm-lp", "instrument-witness", "cli-pipeline")
SETUP_PROBES = 10
# time allowed beyond --seconds: set-up probes, the warm-up pass, the pass
# that overruns --seconds, the oracles and the document sizes
MARGIN_S = 140


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(args, deadline):
    """Start workload.py and wait for its ``ready`` line.

    Returns (process, seconds from start to ready)."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"workload did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for the child until the deadline; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload overran its time limit") from None
    return out


def setup_probes(common, count, deadline):
    """Seconds to ``ready`` of count set-up-only children, one after another."""
    ready_times = []
    for _ in range(count):
        proc, ready = start_child(common + ["--setup-only"], deadline)
        ready_times.append(ready)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return ready_times


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + seconds + MARGIN_S
    common = ["--workload", name, "--seed", str(seed)]
    probes = 0 if trace else SETUP_PROBES
    ready_times = setup_probes(common, probes // 2, deadline)
    proc, ready = start_child(common + ["--seconds", str(seconds), "--trace", str(int(trace))],
                              deadline)
    ready_times.append(ready)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"workload exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    ready_times += setup_probes(common, probes - probes // 2, deadline)
    if not trace:
        result["metrics"]["setup_s"] = {"value": min(ready_times), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "instrorder" / "__init__.py").is_file():
        print(f"no instrorder package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
