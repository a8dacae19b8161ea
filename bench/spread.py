"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload povm-lp --seeds 1-10 --seconds 20

Runs bench/run.py once per seed, one run after another, appends every
result to bench/results/<workload>.jsonl, and prints for each metric the
median and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    values = {}
    shares = set()
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.monotonic() - start
        with open(out_dir / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: {result['wall_s']:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed/attempted seen: {sorted(shares)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median {median:.5g}  spread {(q[2] - q[0]) / median:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
