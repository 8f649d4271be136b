"""Accel-NASBench performance benchmark: one command, four workloads.

    python3 perfbench/run.py --workload {build,search,screen,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Search, screen and serve read a
paper-scale columnar store (5200 archs, accuracy + 8 device surrogates)
built from this checkout's source on first use and cached under
``.bench_build/perfbench`` (see ``paperstore.py``).  Each workload then
runs in a fresh worker process; ``setup_s`` is the median of several fresh
set-ups.  A host-speed sampler (``hostspeed.py``) runs beside them, and
CPU-bound times are divided by the host slowness it saw over the same
interval (see ``timing`` in ``spec.json``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (the
wrappers in ``spans.py``).  Earlier lines print a digest of the
workload's outputs, its wall-clock values and the host slowness.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness
import hostspeed

RUN_BUDGET_S = 170.0


class Sampler:
    """The ``hostspeed.py`` process, sampling for the length of a block."""

    def __enter__(self) -> "Sampler":
        self.samples: list[list[float]] = []
        self._proc = subprocess.Popen(
            [harness.PYTHON, str(harness.BENCH_DIR / "hostspeed.py")],
            stdout=subprocess.PIPE, text=True, env=harness.child_env(),
            start_new_session=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self._proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        if self._proc.returncode == 0:
            self.samples = json.loads(out)


def _worker(cmd: str, args, store, timeout: float) -> dict:
    argv = [
        harness.PYTHON, harness.WORKER, cmd, args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--work", str(args.work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawn-ts", repr(time.monotonic()),
    ]
    if store is not None:
        argv += ["--store", str(store)]
    return harness.last_json_line(harness.run_child(argv, timeout))


def end_to_end(setups: list, res: dict, samples: list) -> tuple[dict, dict]:
    """(metrics, the same metrics in wall-clock time).

    Set-ups, and the units of a ``normalised`` workload, are divided by
    the host slowness sampled over their own interval.
    """

    def slowness(start: float, end: float) -> float:
        return hostspeed.slowness_between(samples, start, end)

    units = res["units"]
    factors = [slowness(u[0], u[1]) if res["normalised"] else 1.0 for u in units]

    def values(setup_factors, unit_factors) -> dict:
        latencies = [ms / f for u, f in zip(units, unit_factors) for ms in u[3]]
        seconds = sum((u[1] - u[0]) / f for u, f in zip(units, unit_factors))
        return {
            "setup_s": harness.median(
                [(end - start) / f for (start, end), f in zip(setups, setup_factors)]
            ),
            "throughput_per_s": sum(u[2] for u in units) / seconds,
            "latency_p50_ms": harness.median(latencies),
            "latency_tail_ms": harness.tail_percentile(latencies)[1],
            "peak_rss_mb": res["rss_mb"],
        }

    metrics = values([slowness(*s) for s in setups], factors)
    wall = values([1.0] * len(setups), [1.0] * len(units))
    units_of = {m["name"]: m["unit"] for m in harness.load_benchmark_json()["end_to_end"]}
    return {name: {"value": v, "unit": units_of[name]} for name, v in metrics.items()}, wall


def per_layer(layers: dict) -> dict:
    units = {m["name"]: m["unit"] for m in harness.load_benchmark_json()["per_layer"]}
    return {name: {"value": layers[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper", choices=("paper", "tiny"),
                        help="input scale; 'tiny' exists for the benchmark's own tests")
    parser.add_argument("--work", type=Path, default=harness.WORK,
                        help="directory for the store cache and run files")
    args = parser.parse_args(argv)

    import paperstore

    scale = harness.load_spec()["scales"][args.scale]
    try:
        # Every workload makes sure the store exists, so whichever runs
        # first in a checkout pays the one-off build.
        store = paperstore.ensure_store(args.scale, scale, args.work)
        if args.workload == "build":
            store = None
        with Sampler() as sampler:
            started = time.monotonic()
            setups: list = []
            setup_failed = 0
            if not args.trace and args.workload != "serve":
                probes = scale["build_setup_probes" if args.workload == "build"
                               else "setup_probes"]
                for _ in range(probes):
                    probe = _worker("probe", args, store, RUN_BUDGET_S / 4)
                    setups += probe["setups"]
                    setup_failed += probe["setup_failed"]
            res = _worker("run", args, store, RUN_BUDGET_S - (time.monotonic() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    if not sampler.samples:
        print("run.py: the host-speed sampler recorded nothing", file=sys.stderr)
        return 1

    setups += res["setups"]
    attempted = res["attempted"] + len(setups)
    failed = res["failed"] + setup_failed + res["setup_failed"]
    metrics, wall = end_to_end(setups, res, sampler.samples)
    host = harness.median([s for _, s in sampler.samples])
    print(f"digest {args.workload} seed={args.seed} sha256={res['digest']}")
    named = " ".join(f"{k}={v}" for k, v in sorted({**res["named"], **wall}.items()))
    print(f"{args.workload} seed={args.seed} error_rate={failed / attempted} "
          f"host_slowness={host} wall-clock: {named}")
    if args.trace:
        metrics = per_layer(res["layers"])
    print(harness.result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
