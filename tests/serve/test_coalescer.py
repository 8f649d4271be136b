"""Micro-batch coalescing: grouping, flush policy, deadlines, fan-out."""

import asyncio

import pytest

from repro.core.reliability import Deadline, DeadlineExceeded
from repro.serve import Coalescer


class Runner:
    """Records every batched call; answers with len(arch) per item."""

    def __init__(self, fail_with: Exception | None = None):
        self.calls = []
        self.fail_with = fail_with

    async def __call__(self, device, metric, archs):
        self.calls.append((device, metric, list(archs)))
        if self.fail_with is not None:
            raise self.fail_with
        return [float(len(a)) for a in archs]


def run(coro):
    return asyncio.run(coro)


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            Coalescer(Runner(), max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            Coalescer(Runner(), max_delay=-1.0)


class TestCoalescing:
    def test_concurrent_queries_become_one_batch(self):
        runner = Runner()

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=0.02)
            results = await asyncio.gather(
                *(coal.query(a, "a100", "throughput") for a in ("x", "yy", "zzz"))
            )
            return results

        results = run(main())
        assert results == [1.0, 2.0, 3.0]
        assert len(runner.calls) == 1
        assert runner.calls[0] == ("a100", "throughput", ["x", "yy", "zzz"])

    def test_groups_split_by_device_and_metric(self):
        runner = Runner()

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=0.02)
            await asyncio.gather(
                coal.query("x", "a100", "throughput"),
                coal.query("y", "zcu102", "throughput"),
                coal.query("z", "a100", "latency"),
            )

        run(main())
        assert len(runner.calls) == 3
        keys = {(device, metric) for device, metric, _ in runner.calls}
        assert keys == {
            ("a100", "throughput"),
            ("zcu102", "throughput"),
            ("a100", "latency"),
        }

    def test_max_batch_flushes_without_waiting(self):
        runner = Runner()

        async def main():
            # max_delay is far longer than the test: only the size trigger
            # can flush, so results arriving proves it fired.
            coal = Coalescer(runner, max_batch=2, max_delay=60.0)
            return await asyncio.gather(
                coal.query("x", "a100", "throughput"),
                coal.query("yy", "a100", "throughput"),
            )

        assert run(main()) == [1.0, 2.0]
        assert len(runner.calls) == 1

    def test_stats_track_flushes_and_items(self):
        runner = Runner()

        async def main():
            coal = Coalescer(runner, max_batch=2, max_delay=60.0)
            await asyncio.gather(
                coal.query("x", "a100", "throughput"),
                coal.query("yy", "a100", "throughput"),
            )
            return coal.stats()

        stats = run(main())
        assert stats["flush_total"] == 1
        assert stats["items_total"] == 2
        assert stats["last_batch_size"] == 2

    def test_on_flush_observer_sees_batch_size(self):
        sizes = []
        runner = Runner()

        async def main():
            coal = Coalescer(
                runner, max_batch=3, max_delay=60.0, on_flush=sizes.append
            )
            await asyncio.gather(
                *(coal.query(a, "a100", "throughput") for a in "abc")
            )

        run(main())
        assert sizes == [3]


class TestTimer:
    def test_timer_runs_from_first_item_under_staggered_arrivals(self):
        """A steady trickle of batch-mates must not keep pushing the flush
        back: every item waits at most ``max_delay`` (plus slack)."""
        runner = Runner()
        max_delay = 0.1
        waits = []

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=max_delay)
            loop = asyncio.get_running_loop()

            async def timed(arch):
                start = loop.time()
                await coal.query(arch, "a100", "throughput")
                waits.append(loop.time() - start)

            tasks = []
            for i in range(8):
                tasks.append(asyncio.create_task(timed("x" * (i + 1))))
                await asyncio.sleep(0.6 * max_delay)
            await asyncio.gather(*tasks)

        run(main())
        assert len(waits) == 8
        assert max(waits) < 2 * max_delay
        assert len(runner.calls) >= 3

    def test_later_deadline_pulls_the_timer_in(self):
        runner = Runner()

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=60.0)
            first = asyncio.create_task(coal.query("x", "a100", "throughput"))
            await asyncio.sleep(0)
            urgent = asyncio.create_task(
                coal.query("yy", "a100", "throughput", Deadline.after(0.05))
            )
            assert await asyncio.wait_for(first, timeout=5.0) == 1.0
            await asyncio.gather(urgent, return_exceptions=True)

        run(main())
        assert len(runner.calls) == 1


class TestDeadlines:
    def test_already_expired_deadline_rejected_at_submit(self):
        runner = Runner()

        async def main():
            coal = Coalescer(runner, max_delay=0.01)
            clock = lambda: 100.0  # noqa: E731
            dead = Deadline(expires_at=99.0, clock=clock)
            with pytest.raises(DeadlineExceeded):
                await coal.query("x", "a100", "throughput", dead)

        run(main())
        assert runner.calls == []

    def test_item_expiring_before_flush_gets_504_not_executed(self):
        runner = Runner()
        now = [0.0]

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=0.01)
            deadline = Deadline(expires_at=0.5, clock=lambda: now[0])
            task = asyncio.create_task(
                coal.query("x", "a100", "throughput", deadline)
            )
            await asyncio.sleep(0)  # enqueue before the clock jumps
            now[0] = 1.0  # budget gone while waiting for batch-mates
            with pytest.raises(DeadlineExceeded):
                await task
            return coal.stats()

        stats = run(main())
        assert runner.calls == []  # never executed as a zombie
        assert stats["expired_total"] == 1

    def test_live_items_survive_an_expired_batchmate(self):
        runner = Runner()
        now = [0.0]

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=0.01)
            doomed = Deadline(expires_at=0.5, clock=lambda: now[0])
            t1 = asyncio.create_task(
                coal.query("x", "a100", "throughput", doomed)
            )
            t2 = asyncio.create_task(coal.query("yy", "a100", "throughput"))
            await asyncio.sleep(0)
            now[0] = 1.0
            with pytest.raises(DeadlineExceeded):
                await t1
            assert await t2 == 2.0

        run(main())
        assert len(runner.calls) == 1
        assert runner.calls[0][2] == ["yy"]


class TestFailures:
    def test_runner_exception_fans_out_to_all_waiters(self):
        runner = Runner(fail_with=RuntimeError("surrogate down"))

        async def main():
            coal = Coalescer(runner, max_batch=2, max_delay=60.0)
            results = await asyncio.gather(
                coal.query("x", "a100", "throughput"),
                coal.query("y", "a100", "throughput"),
                return_exceptions=True,
            )
            return results

        results = run(main())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_rejected_item_does_not_fail_its_batch_mates(self):
        """A runner that rejects one arch fails only that arch's waiter;
        the valid item coalesced with it still gets its own value."""
        calls = []
        batches = []

        async def runner(device, metric, archs):
            calls.append(list(archs))
            if "bad" in archs:
                raise ValueError("compute counts exceed int64")
            return [float(len(a)) for a in archs]

        async def main():
            coal = Coalescer(
                runner,
                max_batch=2,
                max_delay=60.0,
                on_batch=lambda ctxs, start, dur, status: batches.append(
                    (ctxs, status)
                ),
            )
            return await asyncio.gather(
                coal.query("good", "a100", "throughput", ctx="g"),
                coal.query("bad", "a100", "throughput", ctx="b"),
                return_exceptions=True,
            )

        good, bad = run(main())
        assert good == 4.0
        assert isinstance(bad, ValueError)
        assert calls == [["good", "bad"], ["good"], ["bad"]]
        assert batches == [(["g", "b"], "error"), (["g"], "ok"), (["b"], "error")]

    def test_close_flushes_pending_groups(self):
        runner = Runner()

        async def main():
            coal = Coalescer(runner, max_batch=16, max_delay=60.0)
            task = asyncio.create_task(coal.query("x", "a100", "throughput"))
            await asyncio.sleep(0)
            await coal.close()
            return await asyncio.wait_for(task, timeout=1.0)

        assert run(main()) == 1.0
        assert len(runner.calls) == 1
