"""The sharded columnar artifact store: round trips, laziness, integrity.

The acceptance bar for the storage refactor: columnar-loaded benchmarks
must answer ``query``/``query_batch`` byte-identically to JSON-loaded ones,
every surrogate family must survive the columnar codec through real disk
shards, and every corruption mode must surface as an
:class:`ArtifactIntegrityError` naming the path and the reason.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.benchmark import (
    BENCHMARK_SCHEMA,
    BENCHMARK_SCHEMA_VERSION,
    AccelNASBench,
)
from repro.core.dataset import BenchmarkDataset, sample_dataset_archs
from repro.core.reliability import (
    ArtifactIntegrityError,
    read_artifact,
    write_artifact,
)
from repro.core import store
from repro.surrogates import make_surrogate
from repro.surrogates.serialize import (
    ARRAY_DTYPES,
    regressor_from_arrays,
    regressor_to_arrays,
)
from repro.surrogates.tree import DecisionTreeRegressor
from repro.trainsim.schemes import P_STAR

FAMILY_PARAMS = {
    "xgb": dict(n_estimators=20, max_depth=3),
    "lgb": dict(n_estimators=20, num_leaves=8),
    "rf": dict(n_estimators=10, max_depth=6),
    "esvr": dict(C=5.0, epsilon=0.05),
    "nusvr": dict(C=5.0, nu=0.5),
    "gp": dict(noise=1e-3),
}


@pytest.fixture(scope="module")
def bench():
    bench, _ = AccelNASBench.build(
        P_STAR,
        num_archs=80,
        devices={"a100": ("throughput",), "zcu102": ("throughput", "latency")},
        sample_seed=3,
    )
    return bench


@pytest.fixture(scope="module")
def saved(bench, tmp_path_factory):
    """The same benchmark saved both ways."""
    root = tmp_path_factory.mktemp("stores")
    json_path = root / "bench.json"
    store_path = root / "bench.store"
    bench.save(json_path)
    bench.save(store_path, format="columnar")
    return json_path, store_path


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(150, 6))
    y = X @ rng.normal(size=6) + rng.normal(scale=0.1, size=150)
    return X, y


def _roundtrip_via_disk(model, tmp_path):
    """The columnar codec through real shards: write, remap, reconstruct."""
    spec, arrays = regressor_to_arrays(model)
    entries = {
        role: store.write_shard(tmp_path, f"shards/{role}.bin", array)
        for role, array in arrays.items()
    }
    mapped = {
        role: store.map_shard(
            tmp_path, f"shards/{role}.bin", entry, expect_dtype=ARRAY_DTYPES[role]
        )
        for role, entry in entries.items()
    }
    # specs must survive a real JSON encode/decode, like the manifest does
    return regressor_from_arrays(json.loads(json.dumps(spec)), mapped)


class TestColumnarCodecAllFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_disk_roundtrip_byte_identical(self, family, data, tmp_path):
        X, y = data
        model = make_surrogate(family, **FAMILY_PARAMS[family]).fit(X, y)
        clone = _roundtrip_via_disk(model, tmp_path)
        assert np.array_equal(clone.predict(X), model.predict(X))

    def test_decision_tree_roundtrip(self, data, tmp_path):
        X, y = data
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        clone = _roundtrip_via_disk(model, tmp_path)
        assert np.array_equal(clone.predict(X), model.predict(X))

    def test_transform_wrapper_roundtrip(self, data, tmp_path):
        from repro.surrogates.transform import TransformedTargetRegressor

        X, y = data
        y_pos = np.exp(y / 10)
        t, mu, sigma = TransformedTargetRegressor.transform_target(y_pos, log=True)
        inner = make_surrogate("xgb", **FAMILY_PARAMS["xgb"]).fit(X, t)
        model = TransformedTargetRegressor(inner, mu=mu, sigma=sigma, log=True)
        clone = _roundtrip_via_disk(model, tmp_path)
        assert isinstance(clone, TransformedTargetRegressor)
        assert np.array_equal(clone.predict(X), model.predict(X))


class TestBenchmarkEquivalence:
    def test_query_byte_identical(self, saved, some_archs):
        json_bench = AccelNASBench.load(saved[0])
        col_bench = AccelNASBench.load(saved[1])
        for arch in some_archs[:8]:
            a = json_bench.query(arch, device="a100")
            b = col_bench.query(arch, device="a100")
            assert a.accuracy == b.accuracy
            assert a.performance == b.performance

    def test_query_batch_byte_identical(self, saved, some_archs):
        json_bench = AccelNASBench.load(saved[0])
        col_bench = AccelNASBench.load(saved[1])
        for device, metric in [
            (None, "throughput"),
            ("a100", "throughput"),
            ("zcu102", "latency"),
        ]:
            a = json_bench.query_batch(some_archs, device=device, metric=metric)
            b = col_bench.query_batch(some_archs, device=device, metric=metric)
            for ra, rb in zip(a, b):
                assert ra.accuracy == rb.accuracy
                assert ra.performance == rb.performance

    def test_autodetect_and_explicit_format_agree(self, saved, some_archs):
        auto = AccelNASBench.load(saved[1])
        explicit = AccelNASBench.load(saved[1], format="columnar")
        assert auto.query_accuracy(some_archs[0]) == explicit.query_accuracy(
            some_archs[0]
        )

    def test_targets_and_meta_preserved(self, bench, saved):
        col_bench = AccelNASBench.load(saved[1])
        assert col_bench.targets == bench.targets
        assert col_bench.meta == bench.meta

    def test_unknown_format_rejected(self, bench, saved, tmp_path):
        with pytest.raises(ValueError, match="format"):
            bench.save(tmp_path / "x", format="parquet")
        with pytest.raises(ValueError, match="format"):
            AccelNASBench.load(saved[0], format="parquet")


class TestLazyLoading:
    def test_nothing_mapped_until_first_query(self, saved, some_archs):
        col_bench = AccelNASBench.load(saved[1])
        assert col_bench.store.mapped_bytes == 0
        col_bench.query_accuracy(some_archs[0])
        after_acc = col_bench.store.mapped_bytes
        assert after_acc > 0
        col_bench.query_performance(some_archs[0], "a100", "throughput")
        assert col_bench.store.mapped_bytes > after_acc

    def test_membership_checks_do_not_load(self, saved):
        col_bench = AccelNASBench.load(saved[1])
        assert ("a100", "throughput") in col_bench._perf_models
        assert ("nope", "throughput") not in col_bench._perf_models
        assert len(col_bench._perf_models) == 3
        assert col_bench.store.mapped_bytes == 0

    def test_repeat_queries_hit_the_model_cache(self, saved, some_archs):
        col_bench = AccelNASBench.load(saved[1])
        col_bench.query_accuracy(some_archs[0])
        mapped = col_bench.store.mapped_bytes
        col_bench.query_accuracy(some_archs[1])
        assert col_bench.store.mapped_bytes == mapped

    def test_eager_load_maps_everything(self, saved):
        eager = AccelNASBench.load(saved[1], lazy=False)
        lazy = AccelNASBench.load(saved[1])
        assert eager.store.mapped_bytes > 0
        assert lazy.store.mapped_bytes == 0

    def test_unknown_target_still_rejected(self, saved, some_archs):
        col_bench = AccelNASBench.load(saved[1])
        with pytest.raises(KeyError):
            col_bench.query_performance(some_archs[0], "tpuv3", "throughput")

    def test_concurrent_first_queries_construct_each_model_once(
        self, saved, some_archs
    ):
        """Serving workers racing to the same cold surrogate must end up
        sharing one construction — no duplicate memmaps, identical answers."""
        import threading

        col_bench = AccelNASBench.load(saved[1])
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads
        errors: list = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = col_bench.query_performance(
                    some_archs[0], "a100", "throughput"
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(set(results)) == 1  # every thread saw the same model
        inner = col_bench.store
        # One miss (the single construction); everyone else hit the cache.
        assert inner._misses == 1
        assert inner._hits == n_threads - 1
        # No duplicate memmaps: the mapped footprint equals one load, and a
        # repeat query does not grow it.
        mapped = inner.mapped_bytes
        col_bench.query_performance(some_archs[1], "a100", "throughput")
        assert inner.mapped_bytes == mapped


class TestIntegrity:
    @pytest.fixture
    def broken_store(self, bench, tmp_path):
        path = tmp_path / "bench.store"
        bench.save(path, format="columnar")
        return path

    def _some_shard(self, path):
        manifest = store.BenchmarkStore.open(path).manifest
        rel = sorted(manifest["shards"])[0]
        return rel, path / rel

    def test_verify_clean_store(self, saved):
        summary = store.verify_store(saved[1])
        assert summary["kind"] == "benchmark"
        assert summary["shards"] > 0

    def test_corrupted_shard_fails_verify(self, broken_store):
        rel, shard = self._some_shard(broken_store)
        raw = bytearray(shard.read_bytes())
        raw[7] ^= 0xFF  # same size, different content
        shard.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError) as err:
            store.verify_store(broken_store)
        assert rel in str(err.value)
        assert "sha256 mismatch" in err.value.reason

    def test_two_corrupt_shards_both_reported_in_one_pass(self, broken_store):
        """The verify sweep collects every bad shard instead of stopping at
        the first — one pass reports the full damage."""
        manifest = store.BenchmarkStore.open(broken_store).manifest
        rels = sorted(manifest["shards"])[:2]
        for rel in rels:
            shard = broken_store / rel
            raw = bytearray(shard.read_bytes())
            raw[3] ^= 0xFF
            shard.write_bytes(bytes(raw))
        with pytest.raises(store.ArtifactVerificationError) as err:
            store.verify_store(broken_store)
        assert len(err.value.errors) == 2
        assert "2 shard(s) failed verification" in err.value.reason
        for rel, sub in zip(rels, err.value.errors):
            assert rel in str(sub.path)
            assert "sha256 mismatch" in sub.reason
            assert rel in str(err.value)  # aggregate names every shard
        # Same collect-all behaviour through the other verify entry points.
        with pytest.raises(store.ArtifactVerificationError) as err:
            store.BenchmarkStore.open(broken_store).verify()
        assert len(err.value.errors) == 2
        with pytest.raises(store.ArtifactVerificationError) as err:
            store.verify_artifact(broken_store)
        assert len(err.value.errors) == 2

    def test_aggregate_error_is_an_integrity_error(self, broken_store):
        """Callers catching ArtifactIntegrityError keep working unchanged."""
        rel, shard = self._some_shard(broken_store)
        raw = bytearray(shard.read_bytes())
        raw[1] ^= 0xFF
        shard.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError):
            store.verify_store(broken_store)

    def test_truncated_shard_fails_load(self, broken_store):
        rel, shard = self._some_shard(broken_store)
        shard.write_bytes(shard.read_bytes()[:-4])
        with pytest.raises(ArtifactIntegrityError) as err:
            AccelNASBench.load(broken_store, lazy=False)
        assert rel in str(err.value)
        assert "truncated" in err.value.reason

    def test_missing_shard_fails_load(self, broken_store):
        rel, shard = self._some_shard(broken_store)
        shard.unlink()
        with pytest.raises(ArtifactIntegrityError) as err:
            AccelNASBench.load(broken_store, lazy=False)
        assert "missing shard" in err.value.reason

    def test_truncated_manifest_fails_open(self, broken_store):
        manifest = broken_store / store.MANIFEST_NAME
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactIntegrityError) as err:
            AccelNASBench.load(broken_store)
        assert "not valid JSON" in err.value.reason

    def test_missing_manifest_fails_open(self, broken_store):
        (broken_store / store.MANIFEST_NAME).unlink()
        with pytest.raises(ArtifactIntegrityError) as err:
            store.BenchmarkStore.open(broken_store)
        assert "missing manifest" in err.value.reason

    def test_dtype_mismatch_fails_load(self, broken_store):
        # Re-sign the manifest with a lying dtype: the envelope checksum is
        # valid, so only the role-dtype check can catch the swap.
        manifest = store.BenchmarkStore.open(broken_store).manifest
        entry = manifest["models"]["accuracy"]
        rel = entry["arrays"]["threshold"]
        manifest["shards"][rel]["dtype"] = "int64"
        write_artifact(
            broken_store / store.MANIFEST_NAME,
            manifest,
            store.BENCHMARK_STORE_SCHEMA,
            store.STORE_SCHEMA_VERSION,
        )
        with pytest.raises(ArtifactIntegrityError) as err:
            AccelNASBench.load(broken_store, lazy=False)
        assert "dtype mismatch" in err.value.reason

    def test_tampered_manifest_payload_fails_checksum(self, broken_store):
        manifest_path = broken_store / store.MANIFEST_NAME
        envelope = json.loads(manifest_path.read_text())
        envelope["payload"]["meta"] = {"forged": True}
        manifest_path.write_text(json.dumps(envelope, sort_keys=True))
        with pytest.raises(ArtifactIntegrityError) as err:
            store.BenchmarkStore.open(broken_store)
        assert "sha256 mismatch" in err.value.reason

    def test_verify_artifact_on_json_envelope(self, saved):
        summary = store.verify_artifact(saved[0])
        assert summary == {"kind": "json", "schema": "accel-nasbench"}

    def test_verify_artifact_on_tampered_json(self, saved, tmp_path):
        bad = tmp_path / "bad.json"
        envelope = json.loads(saved[0].read_text())
        envelope["payload"]["meta"] = {"forged": True}
        bad.write_text(json.dumps(envelope, sort_keys=True))
        with pytest.raises(ArtifactIntegrityError) as err:
            store.verify_artifact(bad)
        assert "sha256 mismatch" in err.value.reason


def _tree_shards(path, model="accuracy"):
    """The model's node arrays as writable memmaps of their shard files."""
    manifest = store.BenchmarkStore.open(path).manifest
    rels = manifest["models"][model]["arrays"]
    return {
        role: np.memmap(path / rels[role], dtype=ARRAY_DTYPES[role], mode="r+")
        for role in ("roots", "feature", "left", "right")
    }


def _internal_root(a):
    """(tree, root node) of the first tree whose root is a split."""
    for t, root in enumerate(a["roots"][:-1]):
        if a["feature"][root] != -1:
            return t, int(root)
    raise AssertionError("no tree with an internal root")


def _root_left_is_root(a):
    _, root = _internal_root(a)
    a["left"][root] = root


def _child_past_tree_end(a):
    t, root = _internal_root(a)
    a["left"][root] = a["roots"][t + 1]


def _feature_minus_two(a):
    _, root = _internal_root(a)
    a["feature"][root] = -2


def _roots_not_increasing(a):
    a["roots"][1], a["roots"][2] = a["roots"][2], a["roots"][1]


def _siblings_swapped(a):
    _, root = _internal_root(a)
    a["left"][root], a["right"][root] = a["right"][root], a["left"][root]


TREE_FAULTS = {
    "root_left_is_root": _root_left_is_root,
    "child_past_tree_end": _child_past_tree_end,
    "feature_minus_two": _feature_minus_two,
    "roots_not_increasing": _roots_not_increasing,
    "siblings_swapped": _siblings_swapped,
}


class TestMalformedTrees:
    """Damaged node arrays in an unverified store raise a named error when
    the model first loads — never a hang, never a silent wrong answer.
    The lazy query runs in a daemon thread, so a walk that cycles fails
    the test instead of stalling the suite."""

    @pytest.fixture(params=sorted(TREE_FAULTS))
    def damaged(self, request, bench, tmp_path):
        path = tmp_path / "bench.store"
        bench.save(path, format="columnar")
        arrays = _tree_shards(path)
        TREE_FAULTS[request.param](arrays)
        for array in arrays.values():
            array.flush()
        del arrays
        return path

    @staticmethod
    def _assert_names_accuracy(exc):
        assert isinstance(exc, ArtifactIntegrityError), repr(exc)
        assert "'accuracy'" in exc.reason
        assert "malformed tree node" in exc.reason or "tree roots" in exc.reason

    def test_eager_load_raises(self, damaged):
        with pytest.raises(ArtifactIntegrityError) as err:
            AccelNASBench.load(damaged, lazy=False)
        self._assert_names_accuracy(err.value)

    def test_first_lazy_query_raises(self, damaged, some_archs):
        bench = AccelNASBench.load(damaged)
        outcome = {}

        def query():
            try:
                outcome["value"] = bench.query_accuracy(some_archs[0])
            except Exception as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=query, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "first query did not finish in 30 s"
        self._assert_names_accuracy(outcome.get("error"))


def _json_cyclic_root(tree):
    tree["left"][0] = tree["right"][0] = 0


def _json_feature_minus_two(tree):
    tree["feature"][0] = -2


def _json_siblings_swapped(tree):
    tree["left"][0], tree["right"][0] = tree["right"][0], tree["left"][0]


JSON_TREE_FAULTS = {
    "cyclic_root": _json_cyclic_root,
    "feature_minus_two": _json_feature_minus_two,
    "siblings_swapped": _json_siblings_swapped,
}


class TestMalformedJsonTrees:
    """The JSON twin of :class:`TestMalformedTrees`: a re-enveloped JSON
    benchmark (valid sha256) whose accuracy model has a damaged internal
    root fails at load with a named error.  Load and query run in a daemon
    thread, so a walk that cycles fails the test instead of stalling the
    suite."""

    @pytest.fixture(params=sorted(JSON_TREE_FAULTS))
    def damaged(self, request, saved, tmp_path):
        payload = read_artifact(
            saved[0], BENCHMARK_SCHEMA, BENCHMARK_SCHEMA_VERSION
        )
        model = payload["accuracy_model"]
        model = model.get("base", model)
        tree = next(t for t in model["trees"] if t["feature"][0] != -1)
        JSON_TREE_FAULTS[request.param](tree)
        path = tmp_path / "bench.json"
        write_artifact(path, payload, BENCHMARK_SCHEMA, BENCHMARK_SCHEMA_VERSION)
        return path

    def test_load_raises(self, damaged, some_archs):
        outcome = {}

        def load_and_query():
            try:
                bench = AccelNASBench.load(damaged)
                outcome["value"] = bench.query_accuracy(some_archs[0])
            except Exception as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=load_and_query, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "load and query did not finish in 30 s"
        exc = outcome.get("error")
        assert isinstance(exc, ArtifactIntegrityError), repr(outcome)
        assert "malformed benchmark payload" in exc.reason
        assert "malformed tree node" in exc.reason


class TestDatasetStore:
    @pytest.fixture(scope="class")
    def dataset(self):
        archs = sample_dataset_archs(25, seed=9)
        values = np.linspace(0.6, 0.8, 25)
        return BenchmarkDataset(
            name="ANB-Acc", metric="accuracy", archs=archs, values=values,
            meta={"seed": 9},
        )

    def test_multi_shard_roundtrip_byte_identical(self, dataset, tmp_path):
        path = dataset.to_columnar(tmp_path / "ds", shard_rows=7)
        loaded = BenchmarkDataset.from_columnar(path)
        assert loaded.name == dataset.name
        assert loaded.metric == dataset.metric
        assert loaded.meta == dataset.meta
        assert [a.to_string() for a in loaded.archs] == [
            a.to_string() for a in dataset.archs
        ]
        assert np.array_equal(loaded.values, dataset.values)

    def test_single_shard_values_stay_memmapped(self, dataset, tmp_path):
        path = dataset.to_columnar(tmp_path / "ds", shard_rows=100)
        loaded = BenchmarkDataset.from_columnar(path)
        # __post_init__'s asarray drops the memmap subclass but must keep
        # the mapped buffer: no copy, read-only, based on the memmap.
        assert not loaded.values.flags.owndata
        assert isinstance(loaded.values.base, np.memmap)
        assert np.array_equal(loaded.values, dataset.values)

    def test_manifest_records_key_ranges(self, dataset, tmp_path):
        path = dataset.to_columnar(tmp_path / "ds", shard_rows=10)
        summary = store.verify_store(path)
        assert summary["kind"] == "dataset"
        manifest = store._read_manifest(path, store.DATASET_STORE_SCHEMA)
        spans = manifest["row_shards"]
        assert [s["start"] for s in spans] == [0, 10, 20]
        keys = [a.to_string() for a in dataset.archs]
        assert spans[0]["key_range"] == [keys[0], keys[9]]
        assert spans[-1]["key_range"] == [keys[20], keys[24]]

    def test_corrupt_values_shard_detected(self, dataset, tmp_path):
        path = dataset.to_columnar(tmp_path / "ds", shard_rows=10)
        shard = next(path.glob("shards/*.values.bin"))
        raw = bytearray(shard.read_bytes())
        raw[0] ^= 0x01
        shard.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError) as err:
            store.verify_store(path)
        assert "sha256 mismatch" in err.value.reason

    def test_bad_shard_rows_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="shard_rows"):
            dataset.to_columnar(tmp_path / "ds", shard_rows=0)


class TestCli:
    def test_pack_and_verify_roundtrip(self, saved, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "packed.store"
        assert main(["pack", str(saved[0]), str(out), "--log-level", "off"]) == 0
        assert main(["verify", str(saved[0]), str(out), "--log-level", "off"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("packed benchmark") for line in lines)
        assert sum(line.startswith("OK") for line in lines) == 2

    def test_verify_exits_nonzero_on_corruption(self, bench, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bench.store"
        bench.save(path, format="columnar")
        shard = sorted(path.glob("shards/**/*.bin"))[0]
        raw = bytearray(shard.read_bytes())
        raw[1] ^= 0xFF
        shard.write_bytes(bytes(raw))
        assert main(["verify", str(path), "--log-level", "off"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_pack_dataset_artifact(self, tmp_path, capsys):
        from repro.cli import main

        archs = sample_dataset_archs(12, seed=4)
        dataset = BenchmarkDataset(
            name="ANB-Acc",
            metric="accuracy",
            archs=archs,
            values=np.linspace(0.6, 0.8, 12),
        )
        src = tmp_path / "ds.json"
        dataset.to_json(src)
        out = tmp_path / "ds.store"
        args = ["pack", str(src), str(out), "--shard-rows", "5", "--log-level", "off"]
        assert main(args) == 0
        assert "packed dataset" in capsys.readouterr().out
        loaded = BenchmarkDataset.from_columnar(out)
        assert np.array_equal(loaded.values, dataset.values)

    def test_pack_rejects_foreign_schema(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "foreign.json"
        write_artifact(src, {"x": 1}, "something-else", 1)
        assert main(["pack", str(src), str(tmp_path / "out"), "--log-level", "off"]) == 1
        assert "unsupported schema" in capsys.readouterr().out

    def test_query_through_columnar_store(self, saved, some_archs, capsys):
        from repro.cli import main

        args = [
            "query",
            "--bench",
            str(saved[1]),
            "--arch",
            some_archs[0].to_string(),
            "--device",
            "a100",
            "--log-level",
            "off",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        json_bench = AccelNASBench.load(saved[0])
        assert payload["accuracy"] == json_bench.query(
            some_archs[0], device="a100"
        ).accuracy


class TestTelemetryGauges:
    def test_gauges_recorded_when_active(self, saved, some_archs):
        import repro.obs as obs

        obs.configure(level="warning")
        try:
            col_bench = AccelNASBench.load(saved[1])
            col_bench.query_accuracy(some_archs[0])
            col_bench.query_accuracy(some_archs[1])
            snapshot = obs.metrics().snapshot()
            gauges = snapshot["gauges"]
            assert gauges["store.model_misses"] == 1
            assert gauges["store.model_hits"] == 1
            assert gauges["store.mapped_bytes"] > 0
        finally:
            obs.reset()

    def test_no_gauges_when_inactive(self, saved, some_archs):
        import repro.obs as obs

        col_bench = AccelNASBench.load(saved[1])
        col_bench.query_accuracy(some_archs[0])
        assert "store.model_hits" not in obs.metrics().snapshot().get("gauges", {})
