"""Command-line interface for Accel-NASBench.

Subcommands::

    python -m repro.cli build --out anb.json --num-archs 800
    python -m repro.cli collect --out-dir datasets --num-archs 800 --resume
    python -m repro.cli query --bench anb.json --arch "e1k3L1se1|..." \
        --device vck190 --metric throughput
    python -m repro.cli search --bench anb.json --device zcu102 \
        --metric latency --target 6.0 --budget 500
    python -m repro.cli proxy-search --t-spec 3.0
    python -m repro.cli experiment table1 --num-archs 1000
    python -m repro.cli devices
    python -m repro.cli pack anb.json anb.store
    python -m repro.cli verify anb.store
    python -m repro.cli lint src/repro --format json
    python -m repro.cli profile --out prof.txt script.py arg1 arg2

``pack`` converts a JSON envelope artifact (benchmark or dataset,
autodetected from its schema) into the sharded columnar store format
(:mod:`repro.core.store`) — memmapped zero-copy on load, lazy per-surrogate
cold start.  ``verify`` fully re-checks any artifact: JSON envelopes get
their payload checksum recomputed; columnar stores get their manifest
envelope validated and every shard re-hashed, exiting non-zero with the
offending path and reason on the first mismatch.

``lint`` runs the AST determinism & correctness linter
(:mod:`repro.devtools.lint`, rules ANB001-ANB007) and exits non-zero on
findings; the same pass gates CI and the tier-1 test suite.

``collect`` and ``build`` are fault-tolerant: completed per-architecture
records are journaled (``--journal-dir``), a killed run is picked up with
``--resume``, transient failures retry (``--retries``), and deterministic
faults can be injected for robustness drills (``--faults "nan:0.05,..."``).

Every subcommand accepts the shared telemetry flags (see
:mod:`repro.obs` and ``docs/observability.md``): ``--log-level`` /
``--log-json`` control structured logging on stderr, ``--trace-out``
records nested spans to a JSONL trace, ``--metrics-out`` exports the
metrics registry as JSONL, and ``--prom-out`` exports the same registry
as Prometheus text exposition (batch runs get the identical format the
serve layer scrapes at ``GET /metrics``).  ``profile`` wraps any python
script in the stdlib sampling profiler and emits collapsed-stack
flamegraph text.  Telemetry is out-of-band: artifacts are byte-identical
with it on or off.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro.obs as obs
from repro.core.benchmark import AccelNASBench
from repro.core.dataset import (
    collect_accuracy_dataset,
    collect_device_dataset,
    dataset_name_for,
    sample_dataset_archs,
)
from repro.core.reliability import (
    FAULT_KINDS,
    SERVE_FAULT_KINDS,
    ArtifactIntegrityError,
    CollectionError,
    FaultPlan,
    InjectedCrash,
    RetryPolicy,
)
from repro.experiments import (
    fig3_proxy_validation,
    fig4_biobjective,
    fig5_trajectories,
    fig6_evaluation,
    proxy_search_run,
    tab1_acc_surrogates,
    tab2_device_surrogates,
)
from repro.experiments.common import ExperimentContext, save_result
from repro.hwsim.registry import DEVICE_METRICS
from repro.optimizers import Reinforce
from repro.searchspace.mnasnet import ArchSpec
from repro.trainsim.schemes import P_STAR

EXPERIMENTS = {
    "proxy-search": (proxy_search_run, False),
    "fig3": (fig3_proxy_validation, False),
    "table1": (tab1_acc_surrogates, True),
    "table2": (tab2_device_surrogates, True),
    "fig4": (fig4_biobjective, True),
    "fig5": (fig5_trajectories, True),
    "fig6": (fig6_evaluation, True),
}


def _fault_plan(flag: str, text: str, seed: int, kinds) -> FaultPlan:
    try:
        return FaultPlan.from_string(text, seed=seed, kinds=kinds)
    except ValueError as exc:
        raise SystemExit(f"{flag}: {exc}") from exc


def _reliability_kwargs(args: argparse.Namespace) -> dict:
    """Translate the shared fault-tolerance flags into collection kwargs."""
    retry_policy = (
        RetryPolicy(max_attempts=args.retries, seed=args.fault_seed)
        if args.retries > 1
        else None
    )
    fault_plan = (
        _fault_plan("--faults", args.faults, args.fault_seed, FAULT_KINDS)
        if args.faults
        else None
    )
    return {
        "retry_policy": retry_policy,
        "fault_plan": fault_plan,
        "resume": args.resume,
        "min_success_fraction": args.min_success_fraction,
        "batch": not args.no_batch,
    }


def _add_reliability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--journal-dir",
        default=None,
        help="directory for per-dataset JSONL write-ahead journals",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay existing journals and compute only missing work",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="attempts per architecture before quarantining (1 = no retry)",
    )
    p.add_argument(
        "--min-success-fraction",
        type=float,
        default=1.0,
        help="fail the run if fewer than this fraction of archs succeed",
    )
    p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help='inject seeded faults, e.g. "nan:0.05,timeout:0.1@2,crash:0.01"',
    )
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--no-batch",
        action="store_true",
        help="disable the vectorised batch kernels (bit-identical, slower)",
    )


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--log-level",
        choices=sorted(obs.LEVELS),
        default="info",
        help="structured-log level on stderr ('off' silences logging)",
    )
    p.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of key=value text",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record nested tracing spans and export them as JSONL",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="export the metrics registry as JSONL on exit",
    )
    p.add_argument(
        "--prom-out",
        default=None,
        metavar="PATH",
        help="export the metrics registry as Prometheus text on exit",
    )


def _configure_obs(args: argparse.Namespace) -> None:
    """Switch telemetry on per the shared CLI flags (before the command)."""
    obs.configure(
        level=args.log_level,
        json=args.log_json,
        trace=args.trace_out is not None,
    )


def _export_obs(args: argparse.Namespace) -> None:
    """Export metrics/trace JSONL per the shared CLI flags (after the command)."""
    if args.metrics_out is not None:
        obs.metrics().export_jsonl(args.metrics_out)
    if args.prom_out is not None:
        from repro.obs.expo import export_prometheus

        export_prometheus(args.prom_out)
    if args.trace_out is not None:
        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.export_jsonl(args.trace_out)


def _cmd_build(args: argparse.Namespace) -> int:
    try:
        bench, reports = AccelNASBench.build(
            P_STAR,
            num_archs=args.num_archs,
            n_jobs=args.n_jobs,
            collect_n_jobs=args.collect_n_jobs,
            journal_dir=args.journal_dir,
            **_reliability_kwargs(args),
        )
    except InjectedCrash as exc:
        print(f"build aborted: {exc}")
        print("completed work is journaled; rerun with --resume to pick up")
        return 1
    except CollectionError as exc:
        print(f"build failed: {exc}")
        return 1
    for report in reports:
        print(f"{report.dataset:20s} {report.row()}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    bench.save(args.out)
    print(f"saved benchmark to {args.out}")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    """Collect raw datasets (no fitting) with journaled resume support."""
    archs = sample_dataset_archs(args.num_archs, seed=args.sample_seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_dir = Path(args.journal_dir) if args.journal_dir else out_dir / "journal"
    kwargs = _reliability_kwargs(args)

    if args.device is not None:
        targets = [(args.device, args.metric)]
    else:
        targets = [None]
        targets.extend(
            (device, metric)
            for device, metrics in DEVICE_METRICS.items()
            for metric in metrics
        )

    summaries = []
    for target in targets:
        name = (
            dataset_name_for(None, "accuracy")
            if target is None
            else dataset_name_for(*target)
        )
        journal = journal_dir / f"{name}.jsonl"
        try:
            if target is None:
                dataset = collect_accuracy_dataset(
                    archs, P_STAR, n_jobs=args.n_jobs, journal=journal, **kwargs
                )
            else:
                dataset = collect_device_dataset(
                    archs,
                    target[0],
                    target[1],
                    n_jobs=args.n_jobs,
                    journal=journal,
                    **kwargs,
                )
        except InjectedCrash as exc:
            print(f"collection aborted: {exc}")
            print(
                f"completed work is journaled in {journal_dir}; "
                "rerun with --resume to pick up"
            )
            return 1
        except CollectionError as exc:
            print(f"collection failed: {exc}")
            return 1
        path = out_dir / f"{name}.json"
        dataset.to_json(path)
        quarantine = dataset.quarantine
        status = f"{len(dataset)} archs"
        if quarantine:
            status += f", {len(quarantine)} quarantined"
        print(f"{name:20s} {status:28s} -> {path}")
        by_error: dict[str, int] = {}
        for record in quarantine:
            by_error[record.error] = by_error.get(record.error, 0) + 1
        summaries.append(
            {
                "dataset": name,
                "archs": len(dataset),
                "quarantined": len(quarantine),
                "failures_by_error": by_error,
                "quarantined_keys": [record.key for record in quarantine],
                "path": str(path),
            }
        )
    # Structured end-of-run summary: quarantined work and per-fault counts
    # are part of the command's output, not just buried in the logs.
    print(json.dumps({"collect_summary": summaries}, sort_keys=True))
    return 0


def _load_bench(path: str) -> AccelNASBench:
    # Eager: a damaged columnar store fails here, with a clean message,
    # instead of at the first query.
    try:
        return AccelNASBench.load(path, lazy=False)
    except ArtifactIntegrityError as exc:
        raise SystemExit(f"cannot load benchmark: {exc}") from exc


def _cmd_query(args: argparse.Namespace) -> int:
    bench = _load_bench(args.bench)
    arch = ArchSpec.from_string(args.arch)
    result = bench.query(arch, device=args.device, metric=args.metric)
    payload = {
        "arch": arch.to_string(),
        "accuracy": result.accuracy,
        "performance": result.performance,
        "device": result.device,
        "metric": result.metric,
    }
    print(json.dumps(payload, indent=2))
    if obs.telemetry_active():
        bench.record_cache_metrics()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    bench = _load_bench(args.bench)
    optimizer = Reinforce(seed=args.seed)
    result = optimizer.run_biobjective(
        accuracy_fn=bench.query_accuracy,
        perf_fn=lambda a: bench.query_performance(a, args.device, args.metric),
        target=args.target,
        budget=args.budget,
        metric=args.metric,
        device=args.device,
    )
    unit = "ms" if args.metric == "latency" else "img/s"
    print(f"pareto front ({len(result.pareto_indices())} points):")
    for arch, acc, perf in result.pareto_points():
        print(f"  acc={acc:.4f} perf={perf:10.1f} {unit}  {arch.to_string()}")
    if obs.telemetry_active():
        bench.record_cache_metrics()
    return 0


def _cmd_proxy_search(args: argparse.Namespace) -> int:
    result = proxy_search_run.run(t_spec=args.t_spec, early_stop_tau=args.tau)
    print(proxy_search_run.report(result))
    return 0


def _run_one_experiment(name: str, ctx: ExperimentContext | None, save: bool) -> None:
    module, needs_ctx = EXPERIMENTS[name]
    result = module.run(ctx=ctx) if needs_ctx else module.run()
    print(module.report(result))
    if save:
        path = save_result(result, name.replace("-", "_"))
        print(f"\nsaved result to {path}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        ctx = ExperimentContext(num_archs=args.num_archs)
        for name in EXPERIMENTS:
            print(f"\n===== {name} =====")
            _run_one_experiment(name, ctx, args.save)
        return 0
    ctx = (
        ExperimentContext(num_archs=args.num_archs)
        if EXPERIMENTS[args.name][1]
        else None
    )
    _run_one_experiment(args.name, ctx, args.save)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    """Convert a JSON envelope artifact into a columnar store directory."""
    from repro.core.benchmark import BENCHMARK_SCHEMA
    from repro.core.dataset import DATASET_SCHEMA, BenchmarkDataset
    from repro.core.store import artifact_schema, verify_store

    try:
        schema = artifact_schema(args.src)
        if schema == BENCHMARK_SCHEMA:
            bench = AccelNASBench.load(args.src, format="json")
            bench.save(args.out, format="columnar")
        elif schema == DATASET_SCHEMA:
            dataset = BenchmarkDataset.from_json(args.src)
            dataset.to_columnar(args.out, shard_rows=args.shard_rows)
        else:
            print(f"cannot pack {args.src}: unsupported schema {schema!r}")
            return 1
        summary = verify_store(args.out)
    except ArtifactIntegrityError as exc:
        print(f"pack failed: {exc}")
        return 1
    print(
        f"packed {summary['kind']} -> {args.out} "
        f"({summary['shards']} shards, {summary['bytes']} payload bytes)"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Fully verify artifacts (JSON envelopes or columnar stores).

    Store verification sweeps every shard and reports *all* corrupt ones
    in one pass — one FAIL line per shard — instead of stopping at the
    first mismatch.
    """
    from repro.core.store import ArtifactVerificationError, verify_artifact

    failed = 0
    for path in args.paths:
        try:
            summary = verify_artifact(path)
        except ArtifactVerificationError as exc:
            for shard_error in exc.errors:
                print(f"FAIL {shard_error}")
            failed += 1
            continue
        except ArtifactIntegrityError as exc:
            print(f"FAIL {exc}")
            failed += 1
            continue
        detail = f"schema={summary['schema']}"
        if "shards" in summary:
            detail += f" shards={summary['shards']} bytes={summary['bytes']}"
        print(f"OK   {path} ({detail})")
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a saved benchmark over HTTP with the full robustness stack.

    SIGINT/SIGTERM trigger a graceful drain: the listener closes, every
    in-flight request finishes against the benchmark it was admitted with,
    and only then does the process exit.
    """
    import asyncio
    import signal

    from repro.serve import BenchServer, ServerConfig
    from repro.serve.lifecycle import BenchmarkHandle

    drills = _fault_plan(
        "--drills", args.drills or "", args.drill_seed, SERVE_FAULT_KINDS
    )
    try:
        handle = BenchmarkHandle.open(args.bench)
    except ArtifactIntegrityError as exc:
        raise SystemExit(f"cannot load benchmark: {exc}") from exc
    config = ServerConfig(
        host=args.host,
        port=args.port,
        default_timeout=args.default_timeout_ms / 1000.0,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
        coalesce=not args.no_coalesce,
        cache_size=args.cache_size,
        failure_threshold=args.failure_threshold,
        drills=drills,
        drill_slow=args.drill_slow,
        trace_ring=args.trace_ring,
        trace_sample=args.trace_sample,
        trace_seed=args.trace_seed,
        slo_availability=args.slo_availability,
        slo_latency_target=args.slo_latency_target,
        slo_latency_ms=args.slo_latency_ms,
    )
    server = BenchServer(handle, config)

    async def _serve() -> None:
        await server.start()
        print(f"serving {args.bench} on http://{config.host}:{server.port}")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_stop)
        await server.run()
        print("drained in-flight requests; server stopped")

    asyncio.run(_serve())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a python script under the sampling profiler.

    The script executes in this process (``runpy``, as ``__main__``) while
    a background thread samples every thread's stack; on exit — normal or
    not — the collapsed-stack tallies are written out, ready for
    ``flamegraph.pl`` or speedscope.
    """
    import runpy

    from repro.obs.prof import SamplingProfiler

    profiler = SamplingProfiler(interval=args.interval)
    saved_argv = sys.argv
    sys.argv = [args.script] + list(args.args)
    profiler.start()
    exit_code = 0
    try:
        runpy.run_path(args.script, run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, int):
            exit_code = exc.code
        elif exc.code is not None:
            print(exc.code, file=sys.stderr)
            exit_code = 1
    finally:
        profiler.stop()
        sys.argv = saved_argv
    text = profiler.collapsed()
    if args.out is not None:
        Path(args.out).write_text(text)
        print(
            f"profiled {args.script}: {profiler.samples} samples, "
            f"{len(text.splitlines())} stacks -> {args.out}"
        )
    else:
        print(text, end="")
    return exit_code


def _cmd_devices(args: argparse.Namespace) -> int:
    for device, metrics in DEVICE_METRICS.items():
        print(f"{device:10s} {', '.join(metrics)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import main as lint_main

    argv = list(args.paths) + ["--format", args.format, "--jobs", str(args.jobs)]
    for rule in args.select:
        argv += ["--select", rule]
    for rule in args.ignore:
        argv += ["--ignore", rule]
    if args.config is not None:
        argv += ["--config", args.config]
    if args.no_cache:
        argv += ["--no-cache"]
    elif args.cache is not None:
        argv += ["--cache", args.cache]
    return lint_main(argv)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analyze import main as analyze_main

    argv = list(args.paths) + ["--format", args.format]
    for rule in args.select:
        argv += ["--select", rule]
    for rule in args.ignore:
        argv += ["--ignore", rule]
    if args.config is not None:
        argv += ["--config", args.config]
    if args.baseline is not None:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv += ["--no-baseline"]
    if args.update_baseline:
        argv += ["--update-baseline"]
    return analyze_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Accel-NASBench reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="collect datasets and fit the benchmark")
    p.add_argument("--out", default="anb.json")
    p.add_argument("--num-archs", type=int, default=800)
    p.add_argument("--n-jobs", type=int, default=1)
    p.add_argument("--collect-n-jobs", type=int, default=1)
    _add_reliability_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser(
        "collect", help="collect raw datasets with journaled resume"
    )
    p.add_argument("--out-dir", default="datasets")
    p.add_argument("--num-archs", type=int, default=800)
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--device", default=None, help="collect one device only")
    p.add_argument("--metric", default="throughput")
    p.add_argument("--n-jobs", type=int, default=1)
    _add_reliability_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_collect)

    p = sub.add_parser("query", help="zero-cost query of a saved benchmark")
    p.add_argument("--bench", required=True)
    p.add_argument("--arch", required=True, help="canonical arch string")
    p.add_argument("--device", default=None)
    p.add_argument("--metric", default="throughput")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("search", help="bi-objective REINFORCE on a benchmark")
    p.add_argument("--bench", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--metric", default="throughput")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("proxy-search", help="run the Eq. 1 proxy grid search")
    p.add_argument("--t-spec", type=float, default=3.0)
    p.add_argument("--tau", type=float, default=0.94)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_proxy_search)

    p = sub.add_parser("experiment", help="run a paper table/figure (or 'all')")
    p.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    p.add_argument("--num-archs", type=int, default=1000)
    p.add_argument("--save", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser(
        "pack",
        help="convert a JSON artifact to the sharded columnar store format",
    )
    p.add_argument("src", help="JSON benchmark or dataset artifact")
    p.add_argument("out", help="output store directory")
    p.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        help="rows per dataset shard (datasets only)",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser(
        "verify",
        help="fully verify artifact integrity (JSON or columnar store)",
    )
    p.add_argument("paths", nargs="+", help="artifact files or store dirs")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "serve",
        help="serve a benchmark over HTTP (coalescing, deadlines, breakers)",
    )
    p.add_argument("--bench", required=True, help="benchmark artifact to load")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 = pick a free port")
    p.add_argument(
        "--default-timeout-ms",
        type=float,
        default=5000.0,
        help="deadline budget for requests that send no timeout_ms",
    )
    p.add_argument(
        "--max-inflight", type=int, default=8, help="concurrent request slots"
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="requests allowed to wait for a slot before 429 shedding",
    )
    p.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        help="Retry-After hint (seconds) on shed responses",
    )
    p.add_argument(
        "--max-batch", type=int, default=16, help="coalescer flush size"
    )
    p.add_argument(
        "--max-delay-ms",
        type=float,
        default=5.0,
        help="longest a query waits for coalescing batch-mates",
    )
    p.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable micro-batch coalescing on /query",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="LRU entries for the /query response cache (0 = disabled)",
    )
    p.add_argument(
        "--failure-threshold",
        type=int,
        default=5,
        help="consecutive failures that trip an endpoint circuit breaker",
    )
    p.add_argument(
        "--drills",
        default=None,
        metavar="SPEC",
        help='seeded fault drills, e.g. "error:1.0@6,slow:0.2"',
    )
    p.add_argument("--drill-seed", type=int, default=0)
    p.add_argument(
        "--drill-slow",
        type=float,
        default=0.05,
        help="stall injected by a firing slow drill (seconds)",
    )
    p.add_argument(
        "--trace-ring",
        type=int,
        default=256,
        help="entries retained for GET /tracez (0 disables tracing)",
    )
    p.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="head-sampling rate for recorded traces, in [0, 1]",
    )
    p.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed for trace/span id generation and sampling",
    )
    p.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        help="availability SLO target (fraction of requests not 5xx)",
    )
    p.add_argument(
        "--slo-latency-target",
        type=float,
        default=0.99,
        help="latency SLO target (fraction answered within the threshold)",
    )
    p.add_argument(
        "--slo-latency-ms",
        type=float,
        default=250.0,
        help="latency SLO threshold in milliseconds",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "profile",
        help="run a python script under the sampling profiler "
        "(collapsed-stack flamegraph text)",
    )
    p.add_argument("script", help="python script to execute and profile")
    p.add_argument(
        "args", nargs=argparse.REMAINDER, help="arguments passed to the script"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.01,
        help="seconds between stack samples",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write collapsed stacks here instead of stdout",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("devices", help="list supported devices and metrics")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_devices)

    p = sub.add_parser(
        "lint", help="run the determinism & correctness linter (ANB rules)"
    )
    p.add_argument("paths", nargs="*", default=["src/repro"])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--select", action="append", default=[], metavar="RULE")
    p.add_argument("--ignore", action="append", default=[], metavar="RULE")
    p.add_argument("--config", default=None, metavar="PYPROJECT")
    p.add_argument("--jobs", type=int, default=1, metavar="N")
    p.add_argument("--cache", default=None, metavar="PATH")
    p.add_argument("--no-cache", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="whole-program static analysis (races, seed flow, telemetry)",
    )
    p.add_argument("paths", nargs="*", default=["src/repro"])
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    p.add_argument("--select", action="append", default=[], metavar="RULE")
    p.add_argument("--ignore", action="append", default=[], metavar="RULE")
    p.add_argument("--config", default=None, metavar="PYPROJECT")
    p.add_argument("--baseline", default=None, metavar="PATH")
    p.add_argument("--no-baseline", action="store_true")
    p.add_argument("--update-baseline", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Telemetry lifecycle: configure from the shared flags, run the command,
    export any requested metrics/trace JSONL (even when the command fails —
    a crashed collect still leaves its trace behind), then reset obs state
    so embedding callers (and the test suite) see import-time defaults.
    """
    args = build_parser().parse_args(argv)
    _configure_obs(args)
    try:
        return args.fn(args)
    finally:
        _export_obs(args)
        obs.reset()


if __name__ == "__main__":
    sys.exit(main())
