"""Micro-batch coalescing of concurrent single-architecture queries.

The surrogate stack is vectorised: answering 16 architectures in one
``query_batch`` call costs barely more than answering one.  The
:class:`Coalescer` exploits that by holding each incoming single query for
at most ``max_delay`` seconds while more arrive for the same
``(device, metric)`` group, then issuing a single batched call and fanning
the results back out to the per-request futures.

Flush policy — whichever comes first:

- the group reaches ``max_batch`` items (flush immediately), or
- ``max_delay`` elapses since the group's first item, or
- the *earliest deadline* among queued items would otherwise expire while
  the group waits (the coalescer never blocks an item past its budget).

At flush time, items whose deadline already expired are answered with
:class:`~repro.core.reliability.DeadlineExceeded` (HTTP 504) instead of
being executed as zombies; items whose client disconnected (cancelled
futures) are silently skipped.  When a batch of several items raises, each
live item is re-run alone and gets its own result or exception, so one
rejected arch never fails the valid queries coalesced with it; a
single-item batch's exception goes straight to its waiter.

Single-threaded by design (asyncio); no locks needed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Sequence

from repro.core.reliability import Deadline, DeadlineExceeded

# async (device, metric, archs) -> per-arch results, in order
BatchRunner = Callable[[str, str, Sequence[str]], Awaitable[Sequence[float]]]

# (trace contexts of merged items, batch start, duration, "ok"|"error")
BatchObserver = Callable[[list, float, float, str], None]


class _Pending:
    __slots__ = ("arch", "future", "deadline", "ctx")

    def __init__(
        self,
        arch: str,
        future: asyncio.Future,
        deadline: Deadline | None,
        ctx=None,
    ) -> None:
        self.arch = arch
        self.future = future
        self.deadline = deadline
        self.ctx = ctx


class _Group:
    __slots__ = ("key", "items", "timer", "fire_at")

    def __init__(self, key: tuple[str, str]) -> None:
        self.key = key
        self.items: list[_Pending] = []
        self.timer: asyncio.Task | None = None
        self.fire_at = 0.0  # loop time the timer fires at


class Coalescer:
    """Batches concurrent single queries into vectorised runner calls.

    Args:
        runner: ``async (device, metric, archs) -> results`` executing one
            batched benchmark call; results must align with ``archs``.
        max_batch: Flush as soon as a group holds this many items.
        max_delay: Longest any item waits for batch-mates, in seconds.
        on_flush: Optional observer called with each flushed batch size —
            the server wires this to telemetry, gated out of band.
        on_batch: Optional observer called after each batched runner call
            with ``(contexts, start, duration, status)`` — the trace
            contexts the merged items carried (in batch order, ``None``
            for untraced items), the batch's start time on ``clock``, its
            duration, and ``"ok"``/``"error"``.  The server uses this to
            record one ``query_batch`` span linked to every merged
            request span.
        clock: Monotonic clock used solely to time batches for
            ``on_batch`` (injectable so trace timings are deterministic).
    """

    def __init__(
        self,
        runner: BatchRunner,
        max_batch: int = 16,
        max_delay: float = 0.005,
        on_flush: Callable[[int], None] | None = None,
        on_batch: BatchObserver | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.runner = runner
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.on_flush = on_flush
        self.on_batch = on_batch
        self.clock = clock
        self._groups: dict[tuple[str, str], _Group] = {}
        self.flush_total = 0
        self.items_total = 0
        self.expired_total = 0
        self.last_batch_size = 0

    # ------------------------------------------------------------ inspection

    def stats(self) -> dict:
        """Deterministic snapshot for ``/statz``."""
        return {
            "pending_groups": len(self._groups),
            "flush_total": self.flush_total,
            "items_total": self.items_total,
            "expired_total": self.expired_total,
            "last_batch_size": self.last_batch_size,
            "max_batch": self.max_batch,
            "max_delay": self.max_delay,
        }

    # -------------------------------------------------------------- protocol

    async def query(
        self,
        arch: str,
        device: str,
        metric: str,
        deadline: Deadline | None = None,
        ctx=None,
    ) -> float:
        """Queue one query and await its (possibly batched) result.

        ``ctx`` is an opaque trace context carried through to the
        ``on_batch`` observer when this item's batch flushes; it never
        influences batching or results.
        """
        if deadline is not None:
            deadline.check("coalescer")
        key = (device, metric)
        group = self._groups.get(key)
        if group is None:
            group = _Group(key)
            self._groups[key] = group
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        group.items.append(_Pending(arch, future, deadline, ctx))
        if len(group.items) >= self.max_batch:
            self._start_flush(group)
        else:
            self._arm_timer(group, deadline)
        return await future

    async def close(self) -> None:
        """Flush every pending group immediately (shutdown path)."""
        for group in list(self._groups.values()):
            self._start_flush(group)
        # Flush tasks were scheduled on the running loop; yield once so
        # they start before the caller proceeds with teardown.
        await asyncio.sleep(0)

    # ------------------------------------------------------------- internals

    def _arm_timer(self, group: _Group, deadline: Deadline | None) -> None:
        """Start the timer at the group's first item; pull it in only when
        a later item's deadline falls before it."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        fire_at = group.fire_at if group.timer is not None else now + self.max_delay
        if deadline is not None:
            fire_at = min(fire_at, now + max(deadline.remaining(), 0.0))
        if group.timer is not None:
            if fire_at >= group.fire_at:
                return
            group.timer.cancel()
        group.fire_at = fire_at
        group.timer = loop.create_task(self._fire_after(group, fire_at - now))

    async def _fire_after(self, group: _Group, delay: float) -> None:
        await asyncio.sleep(delay)
        self._start_flush(group)

    def _start_flush(self, group: _Group) -> None:
        if self._groups.get(group.key) is group:
            del self._groups[group.key]
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        if group.items:
            asyncio.get_running_loop().create_task(self._run_batch(group))

    async def _run_batch(self, group: _Group) -> None:
        live: list[_Pending] = []
        for item in group.items:
            if item.future.cancelled():
                continue
            if item.deadline is not None and item.deadline.expired():
                self.expired_total += 1
                item.future.set_exception(
                    DeadlineExceeded("coalescer", -item.deadline.remaining())
                )
                continue
            live.append(item)
        if not live:
            return
        device, metric = group.key
        self.flush_total += 1
        self.items_total += len(live)
        self.last_batch_size = len(live)
        if self.on_flush is not None:
            self.on_flush(len(live))
        started = self.clock() if self.on_batch is not None else 0.0
        try:
            results = await self.runner(
                device, metric, [item.arch for item in live]
            )
        except Exception as exc:
            if self.on_batch is not None:
                self.on_batch(
                    [item.ctx for item in live],
                    started,
                    self.clock() - started,
                    "error",
                )
            if len(live) == 1:
                if not live[0].future.cancelled():
                    live[0].future.set_exception(exc)
            else:
                await self._run_alone(device, metric, live)
            return
        if self.on_batch is not None:
            self.on_batch(
                [item.ctx for item in live],
                started,
                self.clock() - started,
                "ok",
            )
        for item, value in zip(live, results):
            if not item.future.cancelled():
                item.future.set_result(value)

    async def _run_alone(
        self, device: str, metric: str, items: list[_Pending]
    ) -> None:
        """Answer each item of a failed batch from its own runner call, so
        one rejected arch cannot fail the valid items batched with it."""
        for item in items:
            if item.future.cancelled():
                continue
            started = self.clock() if self.on_batch is not None else 0.0
            try:
                (value,) = await self.runner(device, metric, [item.arch])
            except Exception as exc:
                status = "error"
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            else:
                status = "ok"
                if not item.future.cancelled():
                    item.future.set_result(value)
            if self.on_batch is not None:
                self.on_batch(
                    [item.ctx], started, self.clock() - started, status
                )
