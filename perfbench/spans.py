"""In-memory span recorder and the per-layer metrics derived from it.

The traced run wraps public functions of each layer (see
:func:`install_layer_wrappers`) from the benchmark's own files; nothing in
the package changes.  Each span records its name, start, end, parent span,
request id and a row count.  The current span and request live in context
variables, so parents are exact within a thread and within an asyncio task;
work handed to an executor thread starts a new root.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from pathlib import Path

_current = contextvars.ContextVar("perfbench_span", default=None)
_request = contextvars.ContextVar("perfbench_request", default=None)

# Span fields, in the order they are stored and written out.
FIELDS = ("id", "parent", "name", "start", "end", "request", "rows")


class Tracer:
    """Collects spans while ``enabled``; wrappers are inert otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self.encoders: dict[int, tuple[object, dict]] = {}

    # ----------------------------------------------------------- recording

    def _open(self):
        span_id = next(self._ids)
        return span_id, _current.get(), _current.set(span_id)

    def _close(self, span_id, parent, token, name, start, rows) -> None:
        end = time.perf_counter()
        _current.reset(token)
        self.spans.append((span_id, parent, name, start, end, _request.get(), rows))

    def new_request(self) -> None:
        """Tag later spans of the current task or thread with a new id."""
        _request.set(next(self._requests))

    def wrap(self, fn, name: str, rows=None):
        """Synchronous wrapper; ``rows(args, kwargs, result)`` counts rows."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id, parent, token = self._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(
                    span_id, parent, token, name, start,
                    rows(args, kwargs, result) if rows is not None else 0,
                )

        return traced

    def wrap_async(self, fn, name: str):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            span_id, parent, token = self._open()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, token, name, start, 0)

        return traced

    # ------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name: str, rows=None, kind: str = "function"):
        """Replace ``owner.attr`` with a traced version (undone by restore)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            inner = self.wrap(original.__func__, name, rows)
            replacement = classmethod(inner)
        elif kind == "async":
            replacement = self.wrap_async(original, name)
        else:
            replacement = self.wrap(original, name, rows)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _len_arg(index: int):
    def count(args, kwargs, result):
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 0

    return count


def _predict_rows(args, kwargs, result):
    return int(getattr(args[1], "shape", (0,))[0]) if len(args) > 1 else 0


def install_layer_wrappers(tracer: Tracer, serve: bool = False) -> None:
    """Wrap the public call at every layer boundary the metrics name."""
    import repro.core.benchmark as benchmark
    import repro.core.dataset as dataset
    import repro.core.pareto as pareto
    import repro.core.parallel as parallel
    from repro.core.benchmark import AccelNASBench
    from repro.core.surrogate_fit import SurrogateFitter
    from repro.optimizers.evolution import RegularizedEvolution
    from repro.optimizers.nsga2 import Nsga2
    from repro.optimizers.reinforce import Reinforce
    from repro.searchspace.features import FeatureEncoder
    from repro.searchspace.mnasnet import ArchSpec
    from repro.surrogates.transform import TransformedTargetRegressor

    # Functions bound by name into the module that calls them are patched
    # at both the defining and the calling module.
    for module in (dataset, benchmark):
        tracer.patch(module, "collect_accuracy_dataset", "dataset.collect_accuracy")
        tracer.patch(module, "collect_device_dataset", "dataset.collect_device")
    _patch_deterministic_map(tracer, (parallel, benchmark))
    tracer.patch(pareto, "pareto_front_indices", "pareto.front")

    tracer.patch(SurrogateFitter, "fit", "surrogate_fit.fit", rows=_fit_kind)
    tracer.patch(AccelNASBench, "load", "store.load", kind="classmethod")
    tracer.patch(AccelNASBench, "save", "store.save", rows=_save_kind)
    for attr in ("query", "query_accuracy", "query_performance"):
        tracer.patch(AccelNASBench, attr, "benchmark.query")
    for attr in ("query_batch", "query_accuracy_batch", "query_performance_batch"):
        tracer.patch(AccelNASBench, attr, "benchmark.query_batch", rows=_len_arg(1))
    tracer.patch(ArchSpec, "from_string", "searchspace.decode", kind="classmethod")
    _patch_encode(tracer, FeatureEncoder)
    tracer.patch(
        TransformedTargetRegressor, "predict", "surrogates.predict", rows=_predict_rows
    )
    tracer.patch(RegularizedEvolution, "run", "optimizers.run")
    for cls in (Nsga2, Reinforce):
        tracer.patch(cls, "run_biobjective", "optimizers.run")
    if serve:
        _install_serve_wrappers(tracer)


def _fit_kind(args, kwargs, result):
    """Row slot of a fit span: 1 for the accuracy target, 2 for devices."""
    ds = args[1] if len(args) > 1 else kwargs.get("dataset")
    return 1 if getattr(ds, "metric", "") == "accuracy" else 2


def _save_kind(args, kwargs, result):
    """Row slot of a save span: 1 when it packs a columnar store."""
    fmt = args[2] if len(args) > 2 else kwargs.get("format", "json")
    return 1 if fmt == "columnar" else 0


def _patch_encode(tracer: Tracer, encoder_cls) -> None:
    original = encoder_cls.__dict__["encode"]
    traced = tracer.wrap(original, "searchspace.encode", rows=_len_arg(1))

    @functools.wraps(original)
    def encode(self, archs):
        if tracer.enabled and id(self) not in tracer.encoders:
            # Hit ratio is counted from the first traced call onwards.
            tracer.encoders[id(self)] = (self, self.cache_info())
        return traced(self, archs)

    tracer._patched.append((encoder_cls, "encode", original))
    encoder_cls.encode = encode


def _patch_deterministic_map(tracer: Tracer, modules) -> None:
    """Time each task and the wall of every fan-out (utilisation)."""
    from repro.core.parallel import resolve_n_jobs

    original = modules[0].deterministic_map

    @functools.wraps(original)
    def deterministic_map(fn, items, n_jobs=1):
        if not tracer.enabled:
            return original(fn, items, n_jobs)
        work = list(items)
        workers = min(resolve_n_jobs(n_jobs), max(1, len(work)))
        task = tracer.wrap(fn, "parallel.task")
        span = tracer.wrap(original, "parallel.map", rows=lambda a, k, r: workers)
        return span(task, work, n_jobs)

    for module in modules:
        tracer._patched.append((module, "deterministic_map", module.deterministic_map))
        module.deterministic_map = deterministic_map


def _install_serve_wrappers(tracer: Tracer) -> None:
    import repro.serve.server as server
    from repro.obs.sketch import QuantileSketch
    from repro.obs.slo import SLOTracker
    from repro.obs.window import WindowedQuantiles
    from repro.serve.admission import AdmissionGate
    from repro.serve.coalescer import Coalescer
    from repro.serve.http import Request, Response

    original_read = server.read_request

    @functools.wraps(original_read)
    async def read_request(*args, **kwargs):
        request = await original_read(*args, **kwargs)
        if request is not None and tracer.enabled:
            tracer.new_request()
        return request

    tracer._patched.append((server, "read_request", original_read))
    server.read_request = read_request

    tracer.patch(AdmissionGate, "acquire", "serve.admission.acquire", kind="async")
    tracer.patch(Coalescer, "query", "serve.coalescer.query", kind="async")
    tracer.patch(Request, "json", "serve.http.json")
    tracer.patch(Response, "render", "serve.http.render")
    tracer.patch(WindowedQuantiles, "observe", "obs.observe")
    tracer.patch(QuantileSketch, "observe", "obs.observe")
    tracer.patch(SLOTracker, "record", "obs.observe")


# ------------------------------------------------------------------ analysis


def write_spans(path: Path, recorded: list[dict], extra: dict) -> None:
    """Write spans (as dicts) and extra counters out as one JSON file."""
    rows = [[span[f] for f in FIELDS] for span in recorded]
    payload = {"fields": FIELDS, "spans": rows, "extra": extra}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_spans(path: Path) -> tuple[list[dict], dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    fields = payload["fields"]
    return [dict(zip(fields, row)) for row in payload["spans"]], payload["extra"]


def as_dicts(tracer: Tracer) -> list[dict]:
    return [dict(zip(FIELDS, row)) for row in tracer.spans]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[dict], extra: dict) -> dict[str, float]:
    """Every per-layer metric from one traced run's spans and counters.

    ``extra`` carries what spans cannot: encoder cache deltas
    (``encode_hits``/``encode_misses``), optimizer counters, ``/statz``
    fields and ``trace_overhead_ratio``.
    Layers the workload does not exercise read 0.
    """
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    own = self_times(spans)

    def dur(span):
        return span["end"] - span["start"]

    def mean_dur(name, pick=lambda s: True):
        chosen = [s for s in by_name.get(name, ()) if pick(s)]
        return _mean(sum(dur(s) for s in chosen), len(chosen))

    def mean_self(names):
        chosen = [s for n in names for s in by_name.get(n, ())]
        return _mean(sum(own[s["id"]] for s in chosen), len(chosen))

    m: dict[str, float] = {}
    m["dataset.collect_accuracy_s"] = mean_dur("dataset.collect_accuracy")
    m["dataset.collect_device_s"] = mean_dur("dataset.collect_device")
    m["surrogate_fit.fit_s.accuracy"] = mean_dur("surrogate_fit.fit", lambda s: s["rows"] == 1)
    m["surrogate_fit.fit_s.device"] = mean_dur("surrogate_fit.fit", lambda s: s["rows"] == 2)

    maps = by_name.get("parallel.map", [])
    capacity = sum(dur(s) * s["rows"] for s in maps)
    tasks = sum(dur(s) for s in by_name.get("parallel.task", ()))
    m["parallel.utilisation"] = tasks / capacity if capacity else 0.0

    m["store.pack_s"] = mean_dur("store.save", lambda s: s["rows"] == 1)
    m["store.load_s"] = mean_dur("store.load")
    m["store.first_query_s"] = 0.0
    loads = by_name.get("store.load", [])
    if loads:
        loaded = min(s["end"] for s in loads)
        after = [
            s
            for name in ("benchmark.query", "benchmark.query_batch")
            for s in by_name.get(name, ())
            if s["start"] >= loaded
        ]
        if after:
            m["store.first_query_s"] = dur(min(after, key=lambda s: s["start"]))

    decode = by_name.get("searchspace.decode", [])
    m["searchspace.decode_s"] = mean_dur("searchspace.decode")
    m["searchspace.decode_calls"] = float(len(decode))
    encode = by_name.get("searchspace.encode", [])
    m["searchspace.encode_s"] = mean_dur("searchspace.encode")
    m["searchspace.encode_rows"] = float(sum(s["rows"] for s in encode))
    hits, misses = extra.get("encode_hits", 0), extra.get("encode_misses", 0)
    m["searchspace.encode_hit_ratio"] = _mean(hits, hits + misses)

    predict = by_name.get("surrogates.predict", [])
    m["surrogates.predict_s"] = mean_dur("surrogates.predict")
    m["surrogates.predict_calls"] = float(len(predict))
    m["surrogates.predict_rows"] = float(sum(s["rows"] for s in predict))
    for label, lo, hi in (("le1", 0, 1), ("le64", 2, 64), ("gt1024", 1025, None)):
        bucket = [s for s in predict if s["rows"] >= lo and (hi is None or s["rows"] <= hi)]
        seconds = sum(dur(s) for s in bucket)
        m[f"surrogates.predict_rows_per_s.{label}"] = _mean(
            sum(s["rows"] for s in bucket), seconds
        ) if seconds else 0.0

    m["benchmark.query_self_s"] = mean_self(("benchmark.query", "benchmark.query_batch"))
    m["benchmark.query_calls"] = float(len(by_name.get("benchmark.query", ())))
    m["benchmark.query_batch_calls"] = float(len(by_name.get("benchmark.query_batch", ())))
    m["pareto.front_s"] = mean_dur("pareto.front")
    m["optimizers.self_s"] = mean_self(("optimizers.run",))
    for key in ("optimizers.evals", "optimizers.batch_calls", "optimizers.scalar_fallbacks"):
        m[key] = float(extra.get(key, 0))

    m["serve.admission.wait_s"] = mean_dur("serve.admission.acquire")
    queries = by_name.get("serve.coalescer.query", [])
    if queries:
        batches = by_name.get("benchmark.query_batch", [])
        waited_on = sum(dur(s) * s["rows"] for s in batches)
        m["serve.coalescer.wait_s"] = max(
            0.0, (sum(dur(s) for s in queries) - waited_on) / len(queries)
        )
    else:
        m["serve.coalescer.wait_s"] = 0.0
    m["serve.coalescer.mean_batch"] = _mean(
        extra.get("coalescer_items", 0), extra.get("coalescer_flushes", 0)
    )
    cache_hits, cache_misses = extra.get("cache_hits", 0), extra.get("cache_misses", 0)
    m["serve.cache.hit_ratio"] = _mean(cache_hits, cache_hits + cache_misses)
    m["serve.http.json_s"] = mean_dur("serve.http.json")
    m["serve.http.render_s"] = mean_dur("serve.http.render")
    m["serve.shed"] = float(extra.get("shed", 0))
    m["serve.deadline_expired"] = float(extra.get("deadline_expired", 0))
    # WindowedQuantiles.observe feeds its QuantileSketch: summing self
    # times counts that nested time once.
    observe = sum(own[s["id"]] for s in by_name.get("obs.observe", ()))
    m["obs.observe_s"] = _mean(observe, len(by_name.get("serve.http.json", ())))
    m["trace_overhead_ratio"] = float(extra.get("trace_overhead_ratio", 0.0))
    return m


def encoder_deltas(tracer: Tracer) -> dict:
    """Encoder cache hits/misses since each encoder's first traced call."""
    hits = misses = 0
    for encoder, before in tracer.encoders.values():
        after = encoder.cache_info()
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
    return {"encode_hits": hits, "encode_misses": misses}
