"""Sharded zero-copy columnar artifact store (memmap-able benchmarks).

The JSON envelope (:func:`~repro.core.reliability.write_artifact`) is great
for integrity but poor for serving: loading a benchmark parses every tree
array out of text, allocates private copies per process, and pays the full
cost up front even if only one surrogate is ever queried.  This module is
the storage layer behind ``AccelNASBench.save(format="columnar")``:

* **Columnar shards** — every model array (the flat
  ``feature/threshold/left/right/value`` node arrays in
  :class:`~repro.surrogates.tree.TreeEnsemblePredictor` layout, SVR/GP dual
  coefficients, plus dataset value/arch-key columns sharded by row range)
  is one contiguous little-endian binary file under ``shards/``, written
  atomically (:func:`~repro.core.reliability.atomic_write_bytes`).
* **JSON manifest** — ``manifest.json`` carries the schema name + version,
  per-model specs, and per-shard dtype/shape/sha256/nbytes, wrapped in the
  standard checksummed artifact envelope, so the PR-3 integrity guarantees
  carry over unchanged: every failure mode surfaces as an
  :class:`~repro.core.reliability.ArtifactIntegrityError` naming the path
  and the exact reason.
* **Zero-copy loading** — shards are memmapped read-only, so N serving
  processes share one page cache; tree ensembles reconstruct their
  predictor directly from the stored flat arrays (no per-tree ``from_dict``
  loop), and each device surrogate loads lazily on its first query.
* **Telemetry** — ``store.model_hits`` / ``store.model_misses`` /
  ``store.mapped_bytes`` gauges via :mod:`repro.obs` (out of band, gated).

Cheap structural checks (existence, declared dtype, byte size) run at map
time, and tree node arrays are structure-checked when their model first
loads (:meth:`~repro.surrogates.tree.TreeEnsemblePredictor.from_arrays`);
full sha256 verification of every shard is explicit — ``verify()`` /
``python -m repro.cli verify`` — because hashing would fault in every page
and defeat the lazy cold start.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections.abc import Mapping
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.benchmark import AccelNASBench
from repro.core.dataset import BenchmarkDataset
from repro.core.reliability import (
    ArtifactIntegrityError,
    ARTIFACT_ENVELOPE_KEYS,
    atomic_write_bytes,
    payload_checksum,
    read_artifact,
    write_artifact,
)
from repro.searchspace.features import FeatureEncoder
from repro.searchspace.mnasnet import ArchSpec
from repro.surrogates.serialize import (
    ARRAY_DTYPES,
    regressor_from_arrays,
    regressor_to_arrays,
)

BENCHMARK_STORE_SCHEMA = "anb-columnar-benchmark"
DATASET_STORE_SCHEMA = "anb-columnar-dataset"
STORE_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_SHARD_ROWS = 2048

_ALLOWED_DTYPES = ("float64", "int64", "int32", "int16", "uint8")


def is_columnar_store(path: str | Path) -> bool:
    """Whether ``path`` is a columnar store directory (has a manifest)."""
    return (Path(path) / MANIFEST_NAME).is_file()


class ArtifactVerificationError(ArtifactIntegrityError):
    """A full verification pass found one or more corrupt shards.

    Unlike the fail-fast load-path checks, verification sweeps *every*
    shard and reports the complete damage in one pass — the hot-reload
    validation path needs the full picture, and an operator repairing a
    store should not have to re-run ``verify`` once per corrupt shard.

    Attributes:
        errors: One :class:`ArtifactIntegrityError` per failed shard, in
            sorted shard order.
    """

    def __init__(
        self, path: str | Path, errors: list[ArtifactIntegrityError]
    ) -> None:
        reason = f"{len(errors)} shard(s) failed verification: " + "; ".join(
            f"{err.path}: {err.reason}" for err in errors
        )
        super().__init__(path, reason)
        self.errors = list(errors)


# ---------------------------------------------------------------------------
# Shard I/O
# ---------------------------------------------------------------------------


def write_shard(root: Path, rel: str, array: np.ndarray) -> dict:
    """Write one contiguous array shard; return its manifest entry.

    The entry records dtype, shape, byte count and sha256 of the raw
    little-endian bytes — everything :func:`map_shard` needs for cheap
    structural validation and :func:`verify_store` for full checking.
    """
    arr = np.ascontiguousarray(array)
    dtype = str(arr.dtype)
    if dtype not in _ALLOWED_DTYPES:
        raise TypeError(f"shard {rel}: dtype {dtype} not storable")
    data = arr.tobytes()
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, data)
    return {
        "dtype": dtype,
        "shape": list(arr.shape),
        "nbytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def map_shard(
    root: Path, rel: str, entry: dict, expect_dtype: str | None = None
) -> np.ndarray:
    """Memmap one shard read-only after cheap structural validation.

    Checks existence, the declared dtype (against the allow-list and the
    caller's expected role dtype) and the on-disk byte size against the
    manifest — catching truncated or swapped shards without touching their
    contents.  Content corruption is caught by :func:`verify_store` (the
    stored sha256), which is deliberately not paid on the load path.

    Raises:
        ArtifactIntegrityError: Naming the shard path and the exact reason.
    """
    path = root / rel
    dtype = entry.get("dtype")
    shape = tuple(entry.get("shape", ()))
    nbytes = entry.get("nbytes")
    if dtype not in _ALLOWED_DTYPES:
        raise ArtifactIntegrityError(
            path, f"manifest declares unsupported dtype {dtype!r}"
        )
    if expect_dtype is not None and dtype != expect_dtype:
        raise ArtifactIntegrityError(
            path,
            f"dtype mismatch: manifest declares {dtype!r}, "
            f"expected {expect_dtype!r} for this array role",
        )
    expected_bytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    if nbytes != expected_bytes:
        raise ArtifactIntegrityError(
            path,
            f"manifest shape/dtype imply {expected_bytes} bytes "
            f"but declare nbytes={nbytes}",
        )
    try:
        actual = os.path.getsize(path)
    except OSError as exc:
        raise ArtifactIntegrityError(path, f"missing shard: {exc}") from exc
    if actual != nbytes:
        raise ArtifactIntegrityError(
            path,
            f"truncated or corrupt shard: {actual} bytes on disk, "
            f"manifest declares {nbytes}",
        )
    if nbytes == 0:
        return np.zeros(shape, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", shape=shape)


def _verify_shard(root: Path, rel: str, entry: dict) -> None:
    """Full content check of one shard (structural checks + sha256)."""
    mapped = map_shard(root, rel, entry)
    digest = hashlib.sha256(mapped.tobytes()).hexdigest()
    if digest != entry.get("sha256"):
        raise ArtifactIntegrityError(
            root / rel,
            f"sha256 mismatch: stored {entry.get('sha256')}, recomputed "
            f"{digest} — the shard was modified or corrupted",
        )


def _verify_all_shards(root: Path, shards: dict) -> None:
    """Verify every shard, collecting all failures into one error."""
    errors: list[ArtifactIntegrityError] = []
    for rel in sorted(shards):
        try:
            _verify_shard(root, rel, shards[rel])
        except ArtifactIntegrityError as exc:
            errors.append(exc)
    if errors:
        raise ArtifactVerificationError(root, errors)


def _read_manifest(path: str | Path, schema: str) -> dict:
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactIntegrityError(
            manifest_path, "missing manifest (not a columnar store?)"
        )
    return read_artifact(manifest_path, schema, STORE_SCHEMA_VERSION)


def _shard_entry(manifest: dict, rel: str, root: Path) -> dict:
    entry = manifest.get("shards", {}).get(rel)
    if entry is None:
        raise ArtifactIntegrityError(
            root / rel, "shard not listed in the manifest"
        )
    return entry


# ---------------------------------------------------------------------------
# Benchmark store
# ---------------------------------------------------------------------------


def _model_dir(name: str) -> str:
    """Filesystem-safe shard directory for a manifest model name."""
    return name.replace("/", "-").replace("|", "-")


class BenchmarkStore:
    """Open handle over a columnar benchmark directory.

    Thread-safe: lazy model loads are serialised by a lock, so concurrent
    first queries from serving workers map each shard exactly once.
    """

    def __init__(self, root: Path, manifest: dict) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self._lock = threading.Lock()
        self._models: dict[str, object] = {}
        self._mapped_bytes = 0
        self._hits = 0
        self._misses = 0

    @classmethod
    def open(cls, path: str | Path) -> "BenchmarkStore":
        """Open a store directory, validating the manifest envelope.

        Raises:
            ArtifactIntegrityError: Missing/truncated/corrupt manifest, a
                schema name or version mismatch, or a malformed payload.
        """
        root = Path(path)
        manifest = _read_manifest(root, BENCHMARK_STORE_SCHEMA)
        if not isinstance(manifest.get("models"), dict) or not isinstance(
            manifest.get("shards"), dict
        ):
            raise ArtifactIntegrityError(
                root / MANIFEST_NAME,
                "malformed manifest: missing 'models'/'shards' tables",
            )
        if "accuracy" not in manifest["models"]:
            raise ArtifactIntegrityError(
                root / MANIFEST_NAME,
                "malformed manifest: no 'accuracy' model",
            )
        return cls(root, manifest)

    # ------------------------------------------------------------- loading

    def model_names(self) -> list[str]:
        """Manifest model names (``accuracy`` plus ``perf/<device>|<metric>``)."""
        return sorted(self.manifest["models"])

    @property
    def mapped_bytes(self) -> int:
        """Total bytes of shards mapped so far (lazy loads only map on use)."""
        return self._mapped_bytes

    def load_model(self, name: str):
        """Load one surrogate, memoised; memmaps its shards on first use."""
        with self._lock:
            cached = self._models.get(name)
            if cached is not None:
                self._hits += 1
                self._record_metrics()
                return cached
            self._misses += 1
            model = self._load_model_uncached(name)
            self._models[name] = model
            self._record_metrics()
            return model

    def _load_model_uncached(self, name: str):
        entry = self.manifest["models"].get(name)
        if entry is None:
            raise ArtifactIntegrityError(
                self.root / MANIFEST_NAME,
                f"model {name!r} not in manifest; "
                f"available: {self.model_names()}",
            )
        try:
            arrays = {}
            for role, rel in entry["arrays"].items():
                shard = _shard_entry(self.manifest, rel, self.root)
                arrays[role] = map_shard(
                    self.root, rel, shard, expect_dtype=ARRAY_DTYPES.get(role)
                )
                self._mapped_bytes += shard["nbytes"]
            return regressor_from_arrays(entry["spec"], arrays)
        except ArtifactIntegrityError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactIntegrityError(
                self.root / MANIFEST_NAME,
                f"malformed model entry {name!r}: {exc!r}",
            ) from exc

    def _record_metrics(self) -> None:
        if obs.telemetry_active():
            registry = obs.metrics()
            registry.set_gauge("store.model_hits", self._hits)
            registry.set_gauge("store.model_misses", self._misses)
            registry.set_gauge("store.mapped_bytes", self._mapped_bytes)

    # ------------------------------------------------------------ verifying

    def verify(self) -> int:
        """Fully re-hash every shard against the manifest; return the count.

        The sweep never stops at the first bad shard: every failure is
        collected and raised together, so one pass reports the full damage.

        Raises:
            ArtifactVerificationError: Naming every shard whose size or
                sha256 does not match its manifest entry.
        """
        shards = self.manifest["shards"]
        _verify_all_shards(self.root, shards)
        return len(shards)


class _LazyModels(Mapping):
    """Read-only ``(device, metric) -> Regressor`` map, loading on demand."""

    def __init__(self, store: BenchmarkStore, names: dict[tuple[str, str], str]):
        self._store = store
        self._names = names  # (device, metric) -> manifest model name

    def __getitem__(self, key):
        if key not in self._names:
            raise KeyError(key)
        return self._store.load_model(self._names[key])

    def __contains__(self, key) -> bool:  # don't force a load on lookup
        return key in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class _ColumnarBenchmark(AccelNASBench):
    """A benchmark whose surrogates live in a :class:`BenchmarkStore`.

    Construction touches only the manifest: the accuracy surrogate and each
    device surrogate are loaded (and their shards mapped) on first query.
    """

    def __init__(self, store: BenchmarkStore) -> None:
        manifest = store.manifest
        self._store = store
        self._perf_models = _LazyModels(
            store,
            {
                tuple(entry["target"]): name
                for name, entry in manifest["models"].items()
                if name != "accuracy"
            },
        )
        self._encoder = FeatureEncoder(manifest["encoding"])
        self.meta = manifest.get("meta", {})

    @property
    def _accuracy_model(self):
        return self._store.load_model("accuracy")

    @property
    def store(self) -> BenchmarkStore:
        """The underlying store handle (cache stats, ``verify()``)."""
        return self._store


def pack_benchmark(bench: AccelNASBench, path: str | Path) -> Path:
    """Write ``bench`` as a columnar store directory; return its path.

    Every surrogate's arrays become shards under ``shards/<model>/``; the
    manifest records specs, per-shard integrity entries, the encoder and
    the benchmark meta.  Repacking an identically-built benchmark produces
    byte-identical shards and manifest.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    models: dict[str, dict] = {}
    shards: dict[str, dict] = {}

    def add_model(name: str, model) -> None:
        spec, arrays = regressor_to_arrays(model)
        rels = {}
        for role in sorted(arrays):
            rel = f"shards/{_model_dir(name)}/{role}.bin"
            shards[rel] = write_shard(root, rel, arrays[role])
            rels[role] = rel
        entry = {"spec": spec, "arrays": rels}
        if name != "accuracy":
            device, metric = name.split("/", 1)[1].split("|", 1)
            entry["target"] = [device, metric]
        models[name] = entry

    add_model("accuracy", bench._accuracy_model)
    for (device, metric), model in sorted(bench._perf_models.items()):
        add_model(f"perf/{device}|{metric}", model)

    manifest = {
        "kind": "benchmark",
        "meta": bench.meta,
        "encoding": bench.encoder.encoding,
        "models": models,
        "shards": shards,
    }
    write_artifact(
        root / MANIFEST_NAME,
        manifest,
        BENCHMARK_STORE_SCHEMA,
        STORE_SCHEMA_VERSION,
    )
    return root


def load_benchmark(path: str | Path, lazy: bool = True) -> AccelNASBench:
    """Load a benchmark from a columnar store directory.

    With ``lazy=True`` (the default) this only reads the manifest; each
    surrogate is constructed from its memmapped shards on first query.
    ``lazy=False`` force-loads every model up front (still zero-copy).
    """
    store = BenchmarkStore.open(path)
    bench = _ColumnarBenchmark(store)
    if not lazy:
        store.load_model("accuracy")
        for key in bench._perf_models:
            bench._perf_models[key]
    return bench


# ---------------------------------------------------------------------------
# Dataset store
# ---------------------------------------------------------------------------


def pack_dataset(
    dataset: BenchmarkDataset,
    path: str | Path,
    shard_rows: int = DEFAULT_SHARD_ROWS,
) -> Path:
    """Write a dataset as a columnar store sharded by arch-key range.

    Rows keep their collection order; every ``shard_rows`` consecutive rows
    become one shard pair — a float64 ``values`` column and a uint8
    ``archs`` column (newline-joined canonical arch keys) — and the
    manifest records each shard's row span and first/last arch key, so
    range lookups can map only the shards they need.
    """
    if shard_rows < 1:
        raise ValueError("shard_rows must be >= 1")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    keys = [arch.to_string() for arch in dataset.archs]
    values = np.ascontiguousarray(dataset.values, dtype=np.float64)
    shards: dict[str, dict] = {}
    row_shards: list[dict] = []
    for start in range(0, len(keys), shard_rows):
        stop = min(start + shard_rows, len(keys))
        tag = f"rows-{len(row_shards):05d}"
        values_rel = f"shards/{tag}.values.bin"
        archs_rel = f"shards/{tag}.archs.bin"
        shards[values_rel] = write_shard(root, values_rel, values[start:stop])
        arch_bytes = np.frombuffer(
            "\n".join(keys[start:stop]).encode("utf-8"), dtype=np.uint8
        )
        shards[archs_rel] = write_shard(root, archs_rel, arch_bytes)
        row_shards.append(
            {
                "start": start,
                "stop": stop,
                "values": values_rel,
                "archs": archs_rel,
                "key_range": [keys[start], keys[stop - 1]],
            }
        )
    manifest = {
        "kind": "dataset",
        "name": dataset.name,
        "metric": dataset.metric,
        "meta": dataset.meta,
        "num_rows": len(keys),
        "row_shards": row_shards,
        "shards": shards,
    }
    write_artifact(
        root / MANIFEST_NAME, manifest, DATASET_STORE_SCHEMA, STORE_SCHEMA_VERSION
    )
    return root


def load_dataset(path: str | Path) -> BenchmarkDataset:
    """Load a dataset written by :func:`pack_dataset`.

    A single-shard store hands the read-only values memmap straight to the
    dataset (zero-copy); multi-shard stores concatenate their columns.

    Raises:
        ArtifactIntegrityError: Manifest or shard validation failure,
            naming the path and the exact reason.
    """
    root = Path(path)
    manifest = _read_manifest(root, DATASET_STORE_SCHEMA)
    try:
        row_shards = manifest["row_shards"]
        value_parts = []
        keys: list[str] = []
        for row_shard in row_shards:
            values_rel = row_shard["values"]
            archs_rel = row_shard["archs"]
            value_parts.append(
                map_shard(
                    root,
                    values_rel,
                    _shard_entry(manifest, values_rel, root),
                    expect_dtype="float64",
                )
            )
            arch_bytes = map_shard(
                root,
                archs_rel,
                _shard_entry(manifest, archs_rel, root),
                expect_dtype="uint8",
            )
            text = bytes(arch_bytes).decode("utf-8")
            shard_keys = text.split("\n") if text else []
            if len(shard_keys) != row_shard["stop"] - row_shard["start"]:
                raise ArtifactIntegrityError(
                    root / archs_rel,
                    f"{len(shard_keys)} arch keys but rows "
                    f"[{row_shard['start']}, {row_shard['stop']})",
                )
            keys.extend(shard_keys)
        if len(value_parts) == 1:
            values = value_parts[0]
        elif value_parts:
            values = np.concatenate(value_parts)
        else:
            values = np.empty(0, dtype=np.float64)
        return BenchmarkDataset(
            name=manifest["name"],
            metric=manifest["metric"],
            archs=[ArchSpec.from_string(key) for key in keys],
            values=values,
            meta=manifest.get("meta", {}),
        )
    except ArtifactIntegrityError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactIntegrityError(
            root / MANIFEST_NAME, f"malformed dataset manifest: {exc!r}"
        ) from exc


# ---------------------------------------------------------------------------
# Verification (stores and JSON envelopes)
# ---------------------------------------------------------------------------


def verify_store(path: str | Path) -> dict:
    """Fully verify a columnar store (benchmark or dataset) at ``path``.

    Revalidates the manifest envelope, then re-hashes every shard against
    its manifest entry — sweeping all shards and reporting every failure
    in one pass.  Returns a summary dict with the store kind, schema,
    shard count and total payload bytes.

    Raises:
        ArtifactVerificationError: Naming every corrupt shard (path and
            reason each) after the full sweep.
        ArtifactIntegrityError: The manifest itself is missing or corrupt.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    schema = artifact_schema(manifest_path)
    if schema not in (BENCHMARK_STORE_SCHEMA, DATASET_STORE_SCHEMA):
        raise ArtifactIntegrityError(
            manifest_path, f"unknown store schema {schema!r}"
        )
    manifest = _read_manifest(root, schema)
    shards = manifest.get("shards")
    if not isinstance(shards, dict):
        raise ArtifactIntegrityError(
            manifest_path, "malformed manifest: missing 'shards' table"
        )
    _verify_all_shards(root, shards)
    return {
        "kind": manifest.get("kind", "unknown"),
        "schema": schema,
        "shards": len(shards),
        "bytes": sum(entry["nbytes"] for entry in shards.values()),
    }


def artifact_schema(path: str | Path) -> str:
    """The ``schema`` field of a JSON artifact envelope, envelope-checked.

    Used by the CLI ``pack`` command to autodetect whether a JSON file is
    a benchmark or a dataset before converting it.

    Raises:
        ArtifactIntegrityError: Unreadable/invalid JSON or missing envelope.
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ArtifactIntegrityError(path, f"unreadable: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(
            path, f"not valid JSON (truncated or corrupt): {exc}"
        ) from exc
    if not isinstance(envelope, dict) or not all(
        key in envelope for key in ARTIFACT_ENVELOPE_KEYS
    ):
        raise ArtifactIntegrityError(
            path,
            "missing integrity envelope (legacy or foreign artifact); "
            f"expected keys {list(ARTIFACT_ENVELOPE_KEYS)}",
        )
    return envelope["schema"]


def verify_artifact(path: str | Path) -> dict:
    """Verify any Accel-NASBench artifact: columnar store or JSON envelope.

    Columnar store directories get a full manifest + shard verification;
    JSON envelope files get their stored sha256 recomputed against the
    payload.  Returns a summary dict (``kind``, ``schema``, plus ``shards``
    and ``bytes`` for stores).

    Raises:
        ArtifactIntegrityError: Naming the path and the exact reason.
    """
    target = Path(path)
    if target.is_dir():
        return verify_store(target)
    schema = artifact_schema(target)
    envelope = json.loads(target.read_text(encoding="utf-8"))
    actual = payload_checksum(envelope["payload"])
    if actual != envelope["sha256"]:
        raise ArtifactIntegrityError(
            target,
            f"sha256 mismatch: stored {envelope['sha256']}, recomputed "
            f"{actual} — the payload was modified or corrupted",
        )
    return {"kind": "json", "schema": schema}


__all__ = [
    "ArtifactVerificationError",
    "BENCHMARK_STORE_SCHEMA",
    "BenchmarkStore",
    "DATASET_STORE_SCHEMA",
    "DEFAULT_SHARD_ROWS",
    "MANIFEST_NAME",
    "STORE_SCHEMA_VERSION",
    "artifact_schema",
    "is_columnar_store",
    "load_benchmark",
    "load_dataset",
    "map_shard",
    "pack_benchmark",
    "pack_dataset",
    "verify_artifact",
    "verify_store",
    "write_shard",
]
