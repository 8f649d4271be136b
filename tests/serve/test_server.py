"""End-to-end server drills: correctness, shedding, deadlines, breakers,
hot reload, graceful drain, and telemetry byte-equivalence."""

import asyncio
import copy
import io
import shutil

import pytest

import repro.obs as obs
from repro.core.benchmark import AccelNASBench
from repro.core.reliability import RetryPolicy
from repro.searchspace import ArchSpec
from repro.serve import (
    BenchServer,
    ClientConnection,
    DrillPlan,
    ServerConfig,
    truncate_shard,
)
from repro.serve.http import _read_response, _render_request
from repro.serve.lifecycle import BenchmarkHandle, ReloadError


async def start_server(bench, **overrides) -> tuple[BenchServer, asyncio.Task]:
    config = ServerConfig(port=0, **overrides)
    server = BenchServer(bench, config)
    await server.start()
    task = asyncio.create_task(server.run())
    return server, task


async def stop_server(server: BenchServer, task: asyncio.Task) -> None:
    server.request_stop()
    await asyncio.wait_for(task, timeout=10.0)


def run(coro):
    return asyncio.run(coro)


class TestQueryEndpoints:
    def test_query_matches_direct_bench_call(self, serve_bench, arch_strings):
        arch = arch_strings[0]

        async def main():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    status, _, body = await conn.request(
                        "POST",
                        "/query",
                        {"arch": arch, "device": "a100", "metric": "throughput"},
                    )
            finally:
                await stop_server(server, task)
            return status, body

        status, body = run(main())
        assert status == 200
        direct = serve_bench.query(
            ArchSpec.from_string(arch), "a100", "throughput"
        )
        assert body["accuracy"] == direct.accuracy
        assert body["performance"] == direct.performance
        assert body["arch"] == arch

    def test_accuracy_only_query(self, serve_bench, arch_strings):
        async def main():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    return await conn.request(
                        "POST", "/query", {"arch": arch_strings[1]}
                    )
            finally:
                await stop_server(server, task)

        status, _, body = run(main())
        assert status == 200
        assert body["performance"] is None
        assert body["device"] is None

    def test_batch_query_matches_query_batch(self, serve_bench, arch_strings):
        async def main():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    return await conn.request(
                        "POST",
                        "/batch-query",
                        {"archs": arch_strings, "device": "a100"},
                    )
            finally:
                await stop_server(server, task)

        status, _, body = run(main())
        assert status == 200
        assert body["count"] == len(arch_strings)
        direct = serve_bench.query_batch(
            [ArchSpec.from_string(a) for a in arch_strings], "a100", "throughput"
        )
        for item, expected in zip(body["results"], direct):
            assert item["accuracy"] == expected.accuracy
            assert item["performance"] == expected.performance

    def test_pareto_front(self, serve_bench, arch_strings):
        async def main():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    return await conn.request(
                        "POST",
                        "/pareto",
                        {"archs": arch_strings, "device": "a100"},
                    )
            finally:
                await stop_server(server, task)

        status, _, body = run(main())
        assert status == 200
        assert 1 <= body["count"] <= len(arch_strings)
        # Front members must not dominate each other (both objectives max:
        # accuracy and throughput).
        front = body["front"]
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    a["accuracy"] >= b["accuracy"]
                    and a["performance"] >= b["performance"]
                    and (
                        a["accuracy"] > b["accuracy"]
                        or a["performance"] > b["performance"]
                    )
                )

    def test_concurrent_queries_coalesce(self, serve_bench, arch_strings):
        async def main():
            server, task = await start_server(
                serve_bench, max_batch=16, max_delay=0.05
            )
            try:
                conns = [
                    ClientConnection("127.0.0.1", server.port) for _ in range(8)
                ]
                results = await asyncio.gather(
                    *(
                        conn.request(
                            "POST",
                            "/query",
                            {"arch": arch, "device": "a100"},
                        )
                        for conn, arch in zip(conns, arch_strings)
                    )
                )
                stats = server.coalescer.stats()
                for conn in conns:
                    await conn.close()
            finally:
                await stop_server(server, task)
            return results, stats

        results, stats = run(main())
        assert all(status == 200 for status, _, _ in results)
        assert stats["items_total"] == 8
        # Coalescing happened: fewer surrogate calls than requests.
        assert stats["flush_total"] < 8


class TestInputValidation:
    def test_bad_inputs_are_400(self, serve_bench, arch_strings):
        cases = [
            ("/query", {}),
            ("/query", {"arch": "not|an|arch"}),
            # Decisions past int64, and compute counts past int64.
            ("/query", {"arch": "|".join(["e1k3L1" + "0" * 30 + "se0"] * 7)}),
            ("/query", {"arch": "|".join(["e1k3L1" + "0" * 15 + "se0"] * 7)}),
            ("/query", {"arch": arch_strings[0], "device": "nope"}),
            ("/query", {"arch": arch_strings[0], "timeout_ms": 0}),
            ("/query", {"arch": arch_strings[0], "timeout_ms": "fast"}),
            ("/batch-query", {"archs": []}),
            ("/batch-query", {"archs": "oops"}),
            ("/pareto", {"archs": arch_strings}),  # device required
        ]

        async def main():
            server, task = await start_server(serve_bench)
            statuses = []
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    for path, payload in cases:
                        status, _, _ = await conn.request("POST", path, payload)
                        statuses.append(status)
            finally:
                await stop_server(server, task)
            return statuses

        assert run(main()) == [400] * len(cases)

    def test_hostile_query_does_not_fail_coalesced_valid_one(
        self, serve_bench, arch_strings
    ):
        """An arch whose compute counts exceed int64 is rejected inside the
        coalesced batch; the valid query batched with it still gets 200
        and exactly the bytes it gets when queried alone."""
        valid = {"arch": arch_strings[0], "device": "a100"}
        hostile = {
            "arch": "|".join(["e1k3L1" + "0" * 15 + "se0"] * 7),
            "device": "a100",
        }

        async def exchange(port, payload):
            import json

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = json.dumps(payload, sort_keys=True).encode()
            writer.write(_render_request("POST", "/query", body, False))
            await writer.drain()
            status, _, data = await _read_response(reader)
            writer.close()
            return status, data

        async def main():
            server, task = await start_server(
                serve_bench, max_batch=2, max_delay=5.0
            )
            try:
                together = await asyncio.gather(
                    exchange(server.port, hostile),
                    exchange(server.port, valid),
                )
                stats = server.coalescer.stats()
            finally:
                await stop_server(server, task)
            server, task = await start_server(serve_bench)
            try:
                alone = await exchange(server.port, valid)
            finally:
                await stop_server(server, task)
            return together, stats, alone

        (bad, good), stats, alone = run(main())
        assert stats["flush_total"] == 1 and stats["items_total"] == 2
        assert bad[0] == 400
        assert good[0] == 200
        assert good[1] == alone[1]

    def test_unknown_endpoint_and_method(self, serve_bench):
        async def main():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    missing, _, _ = await conn.request("GET", "/nope")
                    wrong, _, _ = await conn.request("GET", "/query")
            finally:
                await stop_server(server, task)
            return missing, wrong

        missing, wrong = run(main())
        assert missing == 404
        assert wrong == 405

    def test_bad_input_does_not_trip_breaker(self, serve_bench):
        async def main():
            server, task = await start_server(serve_bench, failure_threshold=2)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    for _ in range(6):
                        status, _, _ = await conn.request(
                            "POST", "/query", {"arch": "garbage"}
                        )
                        assert status == 400
                return server.breakers["query"].state
            finally:
                await stop_server(server, task)

        assert run(main()) == "closed"


class TestRobustness:
    def test_deadline_expiry_is_504(self, serve_bench, arch_strings):
        drills = DrillPlan.from_string("slow:1.0@1", slow_seconds=0.2)

        async def main():
            server, task = await start_server(serve_bench, drills=drills)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    slow, _, body = await conn.request(
                        "POST",
                        "/query",
                        {"arch": arch_strings[0], "timeout_ms": 50},
                    )
                    after, _, _ = await conn.request(
                        "POST",
                        "/query",
                        {"arch": arch_strings[0], "timeout_ms": 5000},
                    )
            finally:
                await stop_server(server, task)
            return slow, body, after

        slow, body, after = run(main())
        assert slow == 504
        assert body == {"error": "deadline exceeded"}
        assert after == 200  # drill healed, service recovered

    def test_overload_sheds_429_with_retry_after(self, serve_bench, arch_strings):
        drills = DrillPlan.from_string("slow:1.0@2", slow_seconds=0.4)

        async def main():
            server, task = await start_server(
                serve_bench,
                max_inflight=1,
                max_queue=0,
                retry_after=2.0,
                drills=drills,
            )
            try:
                first = ClientConnection("127.0.0.1", server.port)
                second = ClientConnection("127.0.0.1", server.port)
                blocked = asyncio.create_task(
                    first.request(
                        "POST", "/query", {"arch": arch_strings[0], "device": "a100"}
                    )
                )
                await asyncio.sleep(0.1)  # let it occupy the only slot
                shed_status, shed_headers, shed_body = await second.request(
                    "POST", "/query", {"arch": arch_strings[1], "device": "a100"}
                )
                ok_status, _, _ = await blocked
                await first.close()
                await second.close()
            finally:
                await stop_server(server, task)
            return shed_status, shed_headers, shed_body, ok_status

        shed_status, shed_headers, shed_body, ok_status = run(main())
        assert shed_status == 429
        assert shed_headers["retry-after"] == "2"
        assert shed_body == {"error": "overloaded"}
        assert ok_status == 200  # the admitted request still completed

    def test_breaker_trips_then_recovers(self, serve_bench, arch_strings):
        drills = DrillPlan.from_string("error:1.0@2")
        recovery = RetryPolicy(base_delay=0.05, backoff=2.0, jitter=0.0)

        async def main():
            server, task = await start_server(
                serve_bench,
                failure_threshold=2,
                breaker_recovery=recovery,
                drills=drills,
            )
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    payload = {"arch": arch_strings[0], "device": "a100"}
                    failures = [
                        (await conn.request("POST", "/query", payload))[0]
                        for _ in range(2)
                    ]
                    assert server.breakers["query"].state == "open"
                    open_status, open_headers, open_body = await conn.request(
                        "POST", "/query", payload
                    )
                    await asyncio.sleep(0.06)  # cooldown = 0.05 exactly
                    probe_status, _, _ = await conn.request(
                        "POST", "/query", payload
                    )
                    closed = server.breakers["query"].state
            finally:
                await stop_server(server, task)
            return failures, open_status, open_headers, open_body, probe_status, closed

        failures, open_status, open_headers, open_body, probe, closed = run(main())
        assert failures == [500, 500]
        assert open_status == 503
        assert open_body == {"error": "circuit open"}
        assert open_headers["retry-after"] == "1"
        assert probe == 200  # half-open probe succeeded (drill healed at @2)
        assert closed == "closed"

    def test_graceful_drain_finishes_inflight(self, serve_bench, arch_strings):
        drills = DrillPlan.from_string("slow:1.0@1", slow_seconds=0.3)

        async def main():
            server, task = await start_server(serve_bench, drills=drills)
            conn = ClientConnection("127.0.0.1", server.port)
            inflight = asyncio.create_task(
                conn.request(
                    "POST", "/query", {"arch": arch_strings[0], "device": "a100"}
                )
            )
            await asyncio.sleep(0.1)  # request is mid-handler
            server.request_stop()
            status, _, body = await inflight
            await conn.close()
            await asyncio.wait_for(task, timeout=10.0)
            return status, body

        status, body = run(main())
        assert status == 200
        assert body["performance"] is not None


class TestLifecycleEndpoints:
    def test_healthz_readyz_statz(self, serve_bench):
        async def main():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    health = await conn.request("GET", "/healthz")
                    ready = await conn.request("GET", "/readyz")
                    stats = await conn.request("GET", "/statz")
            finally:
                await stop_server(server, task)
            return health, ready, stats

        health, ready, stats = run(main())
        assert health[0] == 200 and health[2]["status"] == "ok"
        assert ready[0] == 200 and ready[2]["ready"] is True
        assert stats[0] == 200
        assert stats[2]["breakers"]["query"]["state"] == "closed"
        assert stats[2]["admission"]["shed_total"] == 0

    def test_hot_reload_with_inflight_traffic(
        self, serve_store, arch_strings, tmp_path
    ):
        """Reload under concurrent load: zero dropped requests, identical
        results before and after, generation bump."""
        handle = BenchmarkHandle.open(serve_store)

        async def main():
            server, task = await start_server(handle)
            try:
                conns = [
                    ClientConnection("127.0.0.1", server.port) for _ in range(4)
                ]
                payloads = [
                    {"arch": arch, "device": "a100"} for arch in arch_strings[:4]
                ]
                before = await asyncio.gather(
                    *(
                        conn.request("POST", "/query", p)
                        for conn, p in zip(conns, payloads)
                    )
                )
                admin = ClientConnection("127.0.0.1", server.port)
                mixed = await asyncio.gather(
                    admin.request("POST", "/reload"),
                    *(
                        conn.request("POST", "/query", p)
                        for conn, p in zip(conns, payloads)
                    ),
                )
                reload_result, during = mixed[0], mixed[1:]
                after = await asyncio.gather(
                    *(
                        conn.request("POST", "/query", p)
                        for conn, p in zip(conns, payloads)
                    )
                )
                health = await admin.request("GET", "/healthz")
                for conn in conns + [admin]:
                    await conn.close()
            finally:
                await stop_server(server, task)
            return before, during, after, reload_result, health

        before, during, after, reload_result, health = run(main())
        assert reload_result[0] == 200
        assert reload_result[2]["generation"] == 1
        assert health[2]["generation"] == 1
        # Zero dropped in-flight requests, and byte-identical results
        # across the swap (same artifact ⇒ same surrogates).
        for got in (during, after):
            for (s1, _, b1), (s2, _, b2) in zip(before, got):
                assert s1 == s2 == 200
                assert b1 == b2

    def test_reload_failure_rolls_back(
        self, serve_store, arch_strings, tmp_path
    ):
        damaged = tmp_path / "damaged.store"
        shutil.copytree(serve_store, damaged)
        truncate_shard(damaged)
        handle = BenchmarkHandle.open(serve_store)

        async def main():
            server, task = await start_server(handle)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    failed = await conn.request(
                        "POST", "/reload", {"path": str(damaged)}
                    )
                    ready = await conn.request("GET", "/readyz")
                    query = await conn.request(
                        "POST",
                        "/query",
                        {"arch": arch_strings[0], "device": "a100"},
                    )
            finally:
                await stop_server(server, task)
            return failed, ready, query

        failed, ready, query = run(main())
        assert failed[0] == 500
        assert "failed" in failed[2]["error"]
        # Rollback: still ready, still generation 0, still serving.
        assert ready[0] == 200 and ready[2]["generation"] == 0
        assert query[0] == 200

    def test_concurrent_reload_conflicts(self, serve_store):
        handle = BenchmarkHandle.open(serve_store)

        async def main():
            async with handle._reload_lock:
                with pytest.raises(ReloadError) as err:
                    await handle.reload()
            return err.value.conflict

        assert run(main()) is True

    def test_reload_without_path_is_an_error(self, serve_bench):
        handle = BenchmarkHandle(serve_bench)  # no backing path

        async def main():
            with pytest.raises(ReloadError, match="no artifact path"):
                await handle.reload()

        run(main())


class TestTelemetryEquivalence:
    def test_responses_byte_identical_with_obs_on_and_off(
        self, serve_bench, arch_strings
    ):
        """The whole point of out-of-band telemetry: enabling it must not
        change a single response byte."""

        async def exchange(port, payloads):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            raw = []
            for path, payload in payloads:
                import json

                body = json.dumps(payload, sort_keys=True).encode()
                writer.write(_render_request("POST", path, body, True))
                await writer.drain()
                status, headers, data = await _read_response(reader)
                raw.append((status, tuple(sorted(headers.items())), data))
            writer.close()
            return raw

        payloads = [
            ("/query", {"arch": arch_strings[0], "device": "a100"}),
            ("/batch-query", {"archs": arch_strings[:3], "device": "a100"}),
            ("/pareto", {"archs": arch_strings[:6], "device": "a100"}),
            ("/query", {"arch": "bad"}),
        ]

        async def run_once():
            server, task = await start_server(serve_bench)
            try:
                return await exchange(server.port, payloads)
            finally:
                await stop_server(server, task)

        obs.reset()
        baseline = run(run_once())
        obs.configure(level="debug", json=True, stream=io.StringIO())
        assert obs.telemetry_active()
        try:
            with_obs = run(run_once())
            counted = obs.metrics().counter("serve.requests.query")
        finally:
            obs.reset()
        assert with_obs == baseline
        assert counted > 0  # telemetry actually recorded out of band

    def test_statz_identical_under_telemetry(self, serve_bench, arch_strings):
        async def run_once():
            server, task = await start_server(serve_bench)
            try:
                async with ClientConnection("127.0.0.1", server.port) as conn:
                    await conn.request(
                        "POST", "/query", {"arch": arch_strings[0]}
                    )
                    _, _, stats = await conn.request("GET", "/statz")
            finally:
                await stop_server(server, task)
            return stats

        def normalized(stats):
            # Wall-clock-derived fields vary run to run by construction;
            # everything else must be identical under telemetry.
            stats = copy.deepcopy(stats)
            stats["info"]["uptime_s"] = 0.0
            for objective in stats["slo"].values():
                objective["windows"] = {}
            # The latency SLI counts requests under the threshold, which
            # depends on wall-clock latency, not on telemetry state.
            for key in ("good", "ratio", "burn_rate"):
                stats["slo"]["latency"][key] = None
            return stats

        obs.reset()
        baseline = run(run_once())
        obs.configure(level="info", json=True, stream=io.StringIO())
        try:
            with_obs = run(run_once())
        finally:
            obs.reset()
        assert normalized(with_obs) == normalized(baseline)
