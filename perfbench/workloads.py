"""The four workloads.  Each runs inside a fresh worker process.

A workload drives the package only through its public API.  It has three
steps: ``setup`` (spawn to first correct answer), ``measure`` (timed work
for a number of seconds, returning a :class:`Phase`) and ``check``
(output checks, run after timing, that feed ``failed``).
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import select
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
import inputs
import spans
from repro.core.benchmark import AccelNASBench

HOST = "127.0.0.1"


@dataclass
class Phase:
    """What one timed stretch of a workload did.

    Work is added in units (a build, a search cycle, a screening call, the
    serving window), each ``[start, end, ops, latencies_ms]`` on the
    ``time.monotonic`` clock, which every process of the run shares.
    ``run.py`` divides each unit's times by the host slowness sampled over
    ``[start, end]``; the properties here are the raw wall-clock values.
    """

    units: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def add_unit(self, start: float, end: float, ops: int, latencies_ms) -> None:
        self.units.append([start, end, ops, list(latencies_ms)])

    @property
    def ops(self) -> int:
        return sum(u[2] for u in self.units)

    @property
    def latencies_ms(self) -> list[float]:
        return [ms for u in self.units for ms in u[3]]

    @property
    def rate(self) -> float:
        seconds = sum(u[1] - u[0] for u in self.units)
        return self.ops / seconds if seconds > 0 else 0.0


def _same(a, b) -> bool:
    """Bit-for-bit equality of two floats or float arrays (None only to None)."""
    if a is None or b is None:
        return a is b
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    name = ""
    # Whether run.py divides unit times by the host slowness: true for
    # CPU-bound work, false where latency holds wall-clock waits.
    normalised = True

    def __init__(self, store: Path | None, seed: int, scale: dict, work: Path,
                 spawn_ts: float) -> None:
        self.store = store
        self.seed = seed
        self.scale = scale
        self.work = work
        self.spawn_ts = spawn_ts
        self.setup_failed = 0

    def setup(self) -> list[list[float]]:
        """Set-up intervals ``[start, end]``; a failed first answer counts."""
        raise NotImplementedError

    def measure(self, seconds: float, phase: int) -> Phase:
        raise NotImplementedError

    def check(self, phases: list[Phase]) -> tuple[int, int]:
        """(attempted, failed) over every output of ``phases``."""
        raise NotImplementedError

    def digest(self, phase: Phase) -> str:
        raise NotImplementedError

    def named(self, phase: Phase) -> dict:
        """End-to-end values under workload-specific names, for the digest line."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return harness.vm_hwm_mb()

    def before_traced(self, tracer) -> None:
        """Hook run once wrappers are installed, before the traced phase."""

    def traced_input(self, tracer, phase: Phase) -> tuple[list[dict], dict]:
        """(spans, extra counters) of the traced phase."""
        extra = spans.encoder_deltas(tracer)
        for key, value in phase.counters.items():
            extra[f"optimizers.{key}"] = value
        return spans.as_dicts(tracer), extra

    def close(self) -> None:
        """Release what the workload started."""


# ------------------------------------------------------------------- build


class Build(Workload):
    """``AccelNASBench.build`` + columnar pack at paper scale."""

    name = "build"

    def setup(self) -> list[list[float]]:
        from repro.core.dataset import sample_dataset_archs
        from repro.core.surrogate_fit import SurrogateFitter
        from repro.searchspace.features import FeatureEncoder

        self.sample_seed = inputs.build_sample_seed(self.seed)
        self.num_archs = self.scale["build_archs"]
        self.targets = [tuple(t) for t in self.scale["build_targets"]]
        # The build encodes its sample before collecting.  Doing that here,
        # through the encoder the fitter will use, puts exactly the work
        # before collection starts into set-up; the build then finds the
        # rows in the encoder's cache.
        encoder = FeatureEncoder("onehot+global")
        self.fitter = SurrogateFitter(encoder=encoder)
        archs = sample_dataset_archs(self.num_archs, seed=self.sample_seed)
        X = encoder.encode(archs)
        ready = time.monotonic()
        if X.shape != (self.num_archs, encoder.num_features) or not np.isfinite(X).all():
            self.setup_failed += 1
        return [[self.spawn_ts, ready]]

    def measure(self, seconds: float, phase: int) -> Phase:
        from repro.trainsim.schemes import P_STAR

        out = Phase()
        devices: dict[str, tuple[str, ...]] = {}
        for device, metric in self.targets:
            devices.setdefault(device, ())
            devices[device] += (metric,)
        start = time.monotonic()
        for rep in itertools.count():
            path = self.work / f"build-{phase}-{rep}"
            shutil.rmtree(path, ignore_errors=True)
            t0 = time.monotonic()
            bench, reports = AccelNASBench.build(
                P_STAR,
                num_archs=self.num_archs,
                devices=devices,
                sample_seed=self.sample_seed,
                fitter=self.fitter,
                n_jobs=harness.nproc(),
            )
            bench.save(path, format="columnar")
            t1 = time.monotonic()
            ops = self.num_archs * (1 + len(self.targets))
            out.add_unit(t0, t1, ops, [(t1 - t0) * 1e3])
            out.outputs.append((bench, reports, path))
            if t1 - start >= seconds:
                break
        return out

    def check(self, phases):
        from repro.core.reliability import ArtifactIntegrityError
        from repro.core.store import verify_store

        floors = harness.load_spec()["quality_floors"][self.scale["name"]]
        probe = inputs.probe_archs(self.seed, self.scale["build_probe_archs"])
        attempted = failed = 0
        for phase in phases:
            for bench, reports, path in phase.outputs:
                attempted += 1
                try:
                    verify_store(path)
                except ArtifactIntegrityError as exc:
                    print(f"check build: verify {path}: {exc}", flush=True)
                    failed += 1
                reloaded = AccelNASBench.load(path)
                for device, metric in [(None, "throughput")] + self.targets:
                    mine = bench.query_batch(probe, device, metric)
                    theirs = reloaded.query_batch(probe, device, metric)
                    for a, b in zip(mine, theirs):
                        attempted += 1
                        failed += not (_same(a.accuracy, b.accuracy)
                                       and _same(a.performance, b.performance))
                accuracy = reports[0]
                for value, floor in ((accuracy.r2, floors["accuracy_r2"]),
                                     (accuracy.kendall, floors["accuracy_kendall"])):
                    attempted += 1
                    if not value >= floor:
                        print(f"check build: accuracy fit {value} below {floor}", flush=True)
                        failed += 1
                shutil.rmtree(path, ignore_errors=True)
        return attempted, failed

    def digest(self, phase):
        bench, reports, path = phase.outputs[0]
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        shards = manifest["payload"]["shards"]
        text = json.dumps(sorted((k, v["sha256"]) for k, v in shards.items()))
        return hashlib.sha256(text.encode()).hexdigest()

    def named(self, phase):
        return {"build_s": harness.median(phase.latencies_ms) / 1e3}


# ------------------------------------------------------- store-backed base


class StoreWorkload(Workload):
    """Set-up shared by workloads that query the paper-scale store."""

    def _load_and_answer(self):
        """Load the store and answer one query; the answer to check."""
        self.bench = AccelNASBench.load(self.store)
        arch = inputs.probe_archs(self.seed, 1)[0]
        device, metric = inputs.TARGETS[self.seed % len(inputs.TARGETS)]
        return arch, self.bench.query_batch([arch], device, metric)[0]

    def setup(self) -> list[list[float]]:
        arch, first = self._load_and_answer()
        ready = time.monotonic()
        scalar = self.bench.query(arch, first.device, first.metric)
        if not (_same(first.accuracy, scalar.accuracy)
                and _same(first.performance, scalar.performance)):
            self.setup_failed += 1
        return [[self.spawn_ts, ready]]

    def before_traced(self, tracer) -> None:
        # A traced load and first query give store.load_s/first_query_s.
        self._load_and_answer()


# ------------------------------------------------------------------ search


class Search(StoreWorkload):
    """Fixed-budget optimizer runs against the loaded store."""

    name = "search"

    def setup(self) -> list[list[float]]:
        from repro.searchspace.baselines import EFFICIENTNET_B0

        samples = super().setup()
        # Soft performance target of the REINFORCE reward: the
        # EfficientNet-B0 value of each device surrogate.
        self.reference = {
            target: self.bench.query_performance(EFFICIENTNET_B0.arch, *target)
            for target in inputs.TARGETS
        }
        return samples

    def measure(self, seconds, phase):
        from repro.optimizers.evolution import RegularizedEvolution
        from repro.optimizers.nsga2 import Nsga2
        from repro.optimizers.reinforce import Reinforce

        budgets = self.scale["search_budgets"]
        out = Phase(counters={"batch_calls": 0, "scalar_fallbacks": 0, "evals": 0})
        bench = self.bench
        # A fixed number of whole cycles, enough to fill ``seconds`` at the
        # nominal cycle time: cycles differ in cost, so a run that stopped
        # on the clock would average a speed-dependent set of them.  At
        # least ``search_min_cycles``: a cycle's cost varies with its
        # optimizer seed and targets, and more of them average that out.
        cycles = max(self.scale["search_min_cycles"],
                     math.ceil(seconds / self.scale["search_cycle_s"]))
        for cycle in range(phase * 1000, phase * 1000 + cycles):
            plan = inputs.search_plan(self.seed, cycle)
            seed = plan["optimizer_seed"]
            t0 = time.monotonic()
            acc = bench.accuracy_objective()
            res = RegularizedEvolution(seed=seed).run(acc, budgets["evolution"])
            records = [((None, "throughput"), res.archs, res.values, None)]
            objectives = [acc]

            device, metric = plan["nsga2_target"]
            acc, perf = bench.accuracy_objective(), bench.performance_objective(device, metric)
            res = Nsga2(seed=seed).run_biobjective(
                acc, perf, budgets["nsga2"], metric=metric, device=device
            )
            records.append(((device, metric), res.archs, res.accuracies, res.performances))
            objectives += [acc, perf]

            device, metric = plan["reinforce_target"]
            acc, perf = bench.accuracy_objective(), bench.performance_objective(device, metric)
            res = Reinforce(seed=seed).run_biobjective(
                acc, perf, target=self.reference[(device, metric)],
                budget=budgets["reinforce"], metric=metric, device=device,
            )
            records.append(((device, metric), res.archs, res.accuracies, res.performances))
            objectives += [acc, perf]
            t1 = time.monotonic()

            evals = sum(len(archs) for _, archs, _, _ in records)
            out.add_unit(t0, t1, evals, [(t1 - t0) * 1e3])
            out.outputs += records
            for objective in objectives:
                out.counters["batch_calls"] += objective.num_batch_calls
                out.counters["scalar_fallbacks"] += objective.num_scalar_fallbacks
        out.counters["evals"] = out.ops
        return out

    def check(self, phases):
        attempted = failed = 0
        for phase in phases:
            for (device, metric), archs, accs, perfs in phase.outputs:
                fresh = self.bench.query_batch(archs, device, metric)
                attempted += len(archs)
                for i, result in enumerate(fresh):
                    ok = _same(result.accuracy, accs[i])
                    if perfs is not None:
                        ok = ok and _same(result.performance, perfs[i])
                    failed += not ok
        return attempted, failed

    def digest(self, phase):
        h = hashlib.sha256()
        for target, archs, accs, perfs in phase.outputs[:3]:
            h.update(repr(target).encode())
            for i, arch in enumerate(archs):
                h.update(arch.to_string().encode())
                h.update(np.float64(accs[i]).tobytes())
                if perfs is not None:
                    h.update(np.float64(perfs[i]).tobytes())
        return h.hexdigest()

    def named(self, phase):
        return {"search_evals_per_s": phase.rate}


# ------------------------------------------------------------------ screen


class Screen(StoreWorkload):
    """Batch queries of every surrogate over a fresh pool, then Pareto."""

    name = "screen"

    def measure(self, seconds, phase):
        import repro.core.pareto as pareto

        n = self.scale["screen_pool"]
        out = Phase()
        bench = self.bench
        start = time.monotonic()
        for index in itertools.count(phase * 1000):
            pool = inputs.screen_pool(self.seed, index, n)
            t0 = time.monotonic()
            accuracy = bench.query_accuracy_batch(pool)
            t1 = time.monotonic()
            out.add_unit(t0, t1, n, [(t1 - t0) * 1e3])
            perfs, fronts = {}, {}
            for device, metric in inputs.TARGETS:
                t0 = time.monotonic()
                perf = bench.query_performance_batch(pool, device, metric)
                front = pareto.pareto_front_indices(
                    np.column_stack([accuracy, perf]), (True, metric != "latency")
                )
                t1 = time.monotonic()
                out.add_unit(t0, t1, n, [(t1 - t0) * 1e3])
                perfs[(device, metric)], fronts[(device, metric)] = perf, front
            out.outputs.append((index, pool, accuracy, perfs, fronts))
            if time.monotonic() - start >= seconds:
                break
        return out

    def check(self, phases):
        attempted = failed = 0
        for phase in phases:
            for index, pool, accuracy, perfs, fronts in phase.outputs:
                rows = inputs.check_indices(
                    self.seed + index, len(pool), self.scale["screen_check_rows"]
                )
                for (device, metric), perf in perfs.items():
                    for i in rows:
                        scalar = self.bench.query(pool[i], device, metric)
                        attempted += 1
                        failed += not (_same(scalar.accuracy, accuracy[i])
                                       and _same(scalar.performance, perf[i]))
                    sign = 1.0 if metric != "latency" else -1.0
                    points = np.column_stack([accuracy, sign * perf])
                    front = points[fronts[(device, metric)]]
                    attempted += max(1, len(front))
                    if len(front) == 0:
                        failed += 1
                        continue
                    dominated = (points[:, None, :] >= front[None, :, :]).all(-1) & (
                        points[:, None, :] > front[None, :, :]
                    ).any(-1)
                    failed += int(dominated.any(axis=0).sum())
        return attempted, failed

    def digest(self, phase):
        h = hashlib.sha256()
        index, pool, accuracy, perfs, fronts = phase.outputs[0]
        for target in inputs.TARGETS:
            h.update(repr(target).encode())
            for i in fronts[target]:
                h.update(pool[int(i)].to_string().encode())
        return h.hexdigest()

    def named(self, phase):
        return {"screen_rows_per_s": phase.rate}


# ------------------------------------------------------------------- serve


def _body(payload: dict) -> bytes:
    """The server's JSON encoding: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class ServerProcess:
    """A ``repro.cli serve`` subprocess on a free port."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.spawned = time.monotonic()
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=harness.child_env(),
            cwd=harness.ROOT,
        )
        try:
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise TimeoutError("server did not report its port")
            chunk = self.proc.stdout.read1(256)
            if not chunk:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            line += chunk
        # "serving <bench> on http://127.0.0.1:<port>"
        return int(line.decode().strip().rsplit(":", 1)[1])

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError("server never became ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Serve(Workload):
    """Closed-loop ``/query`` traffic over nproc keep-alive connections."""

    name = "serve"
    # Request latency holds wall-clock waits (the coalescer's max_delay)
    # that do not scale with CPU speed.
    normalised = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.server: ServerProcess | None = None
        self.expected: dict[tuple, bytes] = {}
        self.rss_mb = 0.0

    def _argv(self, traced_spans: Path | None) -> list[str]:
        serve = ["serve", "--bench", str(self.store), "--host", HOST, "--port", "0"]
        if traced_spans is None:
            return [harness.PYTHON, "-m", "repro.cli"] + serve
        launcher = str(harness.BENCH_DIR / "serve_launcher.py")
        return [harness.PYTHON, launcher, "--spans", str(traced_spans), "--"] + serve

    def _expect(self, keys) -> None:
        """Fill in the in-process payload bytes for every new key."""
        from repro.searchspace.mnasnet import ArchSpec

        by_target: dict[tuple[str, str], list[str]] = {}
        for key in keys:
            if key not in self.expected:
                by_target.setdefault(key[1:], []).append(key[0])
        for (device, metric), archs in by_target.items():
            specs = [ArchSpec.from_string(a) for a in archs]
            for arch, r in zip(archs, self.bench.query_batch(specs, device, metric)):
                self.expected[(arch, device, metric)] = _body({
                    "arch": r.arch.to_string(),
                    "accuracy": r.accuracy,
                    "performance": r.performance,
                    "device": r.device,
                    "metric": r.metric,
                })

    def _spawn(self, traced_spans: Path | None = None) -> tuple[list[float], bool]:
        """Start a server; ([spawn, first checked answer], ok)."""
        key = self.schedule.hot[0]
        self.server = ServerProcess(
            self._argv(traced_spans), self.work / f"serve-{len(self.setups)}.log"
        )
        self.server.wait_ready()
        status, body = self._post(self.server.port, key)
        interval = [self.server.spawned, time.monotonic()]
        return interval, status == 200 and body == self.expected[key]

    @staticmethod
    def _post(port: int, key, conn=None) -> tuple[int, bytes]:
        own = conn is None
        conn = conn or http.client.HTTPConnection(HOST, port, timeout=30)
        try:
            payload = json.dumps({"arch": key[0], "device": key[1], "metric": key[2]})
            conn.request("POST", "/query", payload, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            if own:
                conn.close()

    def setup(self) -> list[list[float]]:
        # The in-process reference: loaded before any server, never timed.
        self.bench = AccelNASBench.load(self.store)
        self.schedule = inputs.ServeSchedule(self.seed, self.scale["serve_hot_keys"])
        self._expect(self.schedule.hot)
        self.setups: list[list[float]] = []
        for i in range(self.scale["serve_spawns"]):
            if self.server is not None:
                self.server.stop()
            interval, ok = self._spawn()
            self.setups.append(interval)
            self.setup_failed += not ok
        return self.setups

    def measure(self, seconds, phase):
        server = self.server
        conn = http.client.HTTPConnection(HOST, server.port, timeout=30)
        try:
            for key in self.schedule.hot:  # warm the response cache, untimed
                self._post(server.port, key, conn)
        finally:
            conn.close()
        limit = int(seconds * 2000) + 100
        self.schedule.prepare(limit)
        counter = itertools.count()
        conns = [http.client.HTTPConnection(HOST, server.port, timeout=30)
                 for _ in range(harness.nproc())]

        def client(i: int, stop_at: float, done: list) -> None:
            while time.perf_counter() < stop_at:
                k = next(counter)
                if k >= limit:
                    return
                t0 = time.perf_counter()
                try:
                    status, body = self._post(server.port, self.schedule.key(k), conns[i])
                except (OSError, http.client.HTTPException) as exc:
                    status, body = -1, repr(exc).encode()
                    conns[i].close()
                    conns[i] = http.client.HTTPConnection(HOST, server.port, timeout=30)
                done.append((k, status, time.perf_counter() - t0, body))

        out = Phase()
        done: list[tuple] = []
        stop_at = time.perf_counter() + seconds
        threads = [threading.Thread(target=client, args=(i, stop_at, done))
                   for i in range(len(conns))]
        t0 = time.monotonic()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            for conn in conns:
                conn.close()
        out.add_unit(t0, time.monotonic(), len(done), [r[2] * 1e3 for r in done])
        out.outputs = done
        out.outputs.sort()
        status, statz = server.get("/statz")
        out.counters["statz"] = json.loads(statz) if status == 200 else {}
        self.rss_mb = harness.vm_hwm_mb(server.proc.pid)
        return out

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def before_traced(self, tracer) -> None:
        # The server process is the one traced: restart it through the
        # launcher, which installs the same wrappers before serving.
        self.server.stop()
        self.spans_path = self.work / "serve-spans.json"
        self.spans_path.unlink(missing_ok=True)
        _, ok = self._spawn(self.spans_path)
        self.setup_failed += not ok

    def traced_input(self, tracer, phase):
        self.close()  # the launcher writes its spans as the server exits
        recorded, extra = spans.load_spans(self.spans_path)
        statz = phase.counters["statz"]
        admission, coalescer = statz["admission"], statz["coalescer"]
        extra.update({
            "coalescer_items": coalescer["items_total"],
            "coalescer_flushes": coalescer["flush_total"],
            "cache_hits": statz["cache"]["hits"],
            "cache_misses": statz["cache"]["misses"],
            "shed": admission["shed_total"],
            "deadline_expired": admission["expired_total"] + coalescer["expired_total"],
        })
        return recorded, extra

    def check(self, phases):
        attempted = failed = 0
        for phase in phases:
            keys = {self.schedule.key(r[0]) for r in phase.outputs}
            self._expect(keys)
            for k, status, _, body in phase.outputs:
                attempted += 1
                failed += not (status == 200 and body == self.expected[self.schedule.key(k)])
        return attempted, failed

    def digest(self, phase):
        h = hashlib.sha256()
        for k in range(min(500, len(phase.outputs))):
            key = self.schedule.key(k)
            self._expect([key])
            h.update(self.expected[key])
        return h.hexdigest()

    def named(self, phase):
        pct, tail = harness.tail_percentile(phase.latencies_ms)
        return {
            "serve_rps": phase.rate,
            "serve_p50_ms": harness.median(phase.latencies_ms),
            f"serve_p{pct:g}_ms": tail,
            "samples": len(phase.latencies_ms),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOAD_CLASSES = {cls.name: cls for cls in (Build, Search, Screen, Serve)}
