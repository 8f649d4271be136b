"""Worker process: builds the store, probes set-up, or runs one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object as its last stdout line.

    worker.py build-store --out DIR --scale paper
    worker.py probe WORKLOAD --store DIR --seed N --spawn-ts T --scale paper
    worker.py run WORKLOAD --store DIR --seed N --seconds S --trace 0|1
              --spawn-ts T --scale paper --work DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness


def _scale(name: str) -> dict:
    scale = dict(harness.load_spec()["scales"][name])
    scale["name"] = name
    return scale


def _workload(args):
    from workloads import WORKLOAD_CLASSES

    store = Path(args.store) if args.store else None
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOAD_CLASSES[args.workload](
        store, args.seed, _scale(args.scale), work, args.spawn_ts
    )


def cmd_build_store(args) -> dict:
    import paperstore

    return paperstore.build_store(Path(args.out), _scale(args.scale))


def cmd_probe(args) -> dict:
    wl = _workload(args)
    try:
        return {"setups": wl.setup(), "setup_failed": wl.setup_failed}
    finally:
        wl.close()


def cmd_run(args) -> dict:
    import spans

    wl = _workload(args)
    layers = None
    try:
        setups = wl.setup()
        if not args.trace:
            phase = wl.measure(args.seconds, 0)
            phases = [phase]
        else:
            untraced = wl.measure(args.seconds / 2, 0)
            tracer = spans.Tracer()
            if wl.name != "serve":
                spans.install_layer_wrappers(tracer)
                tracer.enabled = True
            wl.before_traced(tracer)
            phase = wl.measure(args.seconds / 2, 1)
            tracer.enabled = False
            recorded, extra = wl.traced_input(tracer, phase)
            tracer.restore()
            extra["trace_overhead_ratio"] = untraced.rate / phase.rate
            spans.write_spans(Path(args.work, f"trace-{wl.name}.json"), recorded, extra)
            layers = spans.layer_metrics(recorded, extra)
            phases = [untraced, phase]
        rss = wl.peak_rss_mb()
        digest = wl.digest(phases[0])
        attempted, failed = wl.check(phases)
        return {
            "setups": setups,
            "setup_failed": wl.setup_failed,
            "units": phase.units,
            "normalised": wl.normalised,
            "rss_mb": rss,
            "attempted": attempted,
            "failed": failed,
            "digest": digest,
            "named": wl.named(phase),
            "layers": layers,
        }
    finally:
        wl.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("build-store")
    p.add_argument("--out", required=True)
    p.add_argument("--scale", default="paper")
    p.set_defaults(fn=cmd_build_store)
    for name, fn in (("probe", cmd_probe), ("run", cmd_run)):
        p = sub.add_parser(name)
        p.add_argument("workload", choices=harness.WORKLOADS)
        p.add_argument("--store", default=None)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--spawn-ts", type=float, required=True)
        p.add_argument("--scale", default="paper")
        p.add_argument("--work", default=str(harness.WORK))
        p.add_argument("--seconds", type=float, default=10.0)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    print(json.dumps(args.fn(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
