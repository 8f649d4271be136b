"""Host-speed sampler: a process that times a fixed loop while a run works.

The CPU speed of a shared host drifts: the same search cycle can take
half as long again a minute later.  ``run.py`` starts this sampler in a
process of its own beside the worker.  Every ``PERIOD_S`` it times a fixed
pure-Python loop by the CPU time of its own thread, so time it spends
waiting for a core does not count; only how fast the core runs does.
Stopped with SIGTERM, it prints its samples as one JSON list of
``[monotonic midpoint, slowness]`` pairs, slowness being the loop's CPU
time over ``REFERENCE_LOOP_S``.

``slowness_between`` then gives the host slowness over any interval of the
run, and the worker's unit times are divided by it.

    python3 perfbench/hostspeed.py     # samples until SIGTERM
"""

from __future__ import annotations

import json
import signal
import sys
import time

LOOP_ITERATIONS = 30_000
REFERENCE_LOOP_S = 0.002
PERIOD_S = 0.04
MIN_SAMPLES = 3


def _loop() -> float:
    start = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.thread_time() - start


def sample_until_terminated() -> list[list[float]]:
    samples: list[list[float]] = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    while not stop:
        t0 = time.monotonic()
        cpu = _loop()
        samples.append([(t0 + time.monotonic()) / 2, cpu / REFERENCE_LOOP_S])
        time.sleep(max(0.0, PERIOD_S - (time.monotonic() - t0)))
    return samples


def slowness_between(samples, start: float, end: float) -> float:
    """Median slowness of the samples taken in ``[start, end]``.

    A short interval is widened to its ``MIN_SAMPLES`` nearest samples.
    """
    inside = [s for t, s in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        nearest = sorted(samples, key=lambda ts: abs(ts[0] - mid))[:MIN_SAMPLES]
        inside = [s for _, s in nearest]
    inside.sort()
    n = len(inside)
    return inside[n // 2] if n % 2 else (inside[n // 2 - 1] + inside[n // 2]) / 2


if __name__ == "__main__":
    print(json.dumps(sample_until_terminated()), flush=True)
    sys.exit(0)
