"""Run workloads on two seeds and print the metrics side by side.

    python3 perfbench/seeds.py --seeds 1 1001 [--workloads search,serve]
                               [--seconds 10] [--trace 0]

The second seed is the held-out one: a gain claimed from runs on the
first seed should also show on the second.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

import harness


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [harness.PYTHON, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=harness.ROOT,
    ).stdout
    return harness.last_json_line(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seeds.py", description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True)
    parser.add_argument("--workloads", default=",".join(harness.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    first, second = args.seeds
    for workload in args.workloads.split(","):
        a = run_once(workload, first, args.seconds, args.trace)
        b = run_once(workload, second, args.seconds, args.trace)
        print(f"{workload}: seed {first} vs held-out seed {second} "
              f"(failed {a['failed']}/{a['attempted']} vs {b['failed']}/{b['attempted']})")
        for name, metric in a["metrics"].items():
            va, vb = metric["value"], b["metrics"][name]["value"]
            ratio = f"{vb / va:8.3f}" if va else "       -"
            print(f"  {name:40s} {metric['unit']:>6s} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
