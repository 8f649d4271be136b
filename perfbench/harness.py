"""Shared plumbing for the benchmark: paths, statistics, RSS, result lines.

Nothing here imports ``repro``: ``run.py`` uses these helpers in the
parent process, which never loads the package under test.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SPEC_PATH = BENCH_DIR / "spec.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

PYTHON = sys.executable
WORKER = str(BENCH_DIR / "worker.py")

WORKLOADS = ("build", "search", "screen", "serve")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Percentiles tried for the tail metric, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def load_benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


# --------------------------------------------------------------- statistics


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 samples beyond.

    A percentile ``p`` has ``n * (1 - p/100)`` samples beyond it.  When no
    listed percentile has ten, the maximum (p100) is reported.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p, percentile(values, p)
    return 100.0, max(values)


# ---------------------------------------------------------------- processes


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def run_child(args: list[str], timeout: float) -> str:
    """Run a child in its own process group; return its stdout.

    On timeout or any error the whole group is killed and reaped, so no
    grandchild (such as a server the child started) outlives the run.

    Raises:
        subprocess.CalledProcessError: The child exited non-zero.
        subprocess.TimeoutExpired: The child ran past ``timeout``.
    """
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, args, out)
    return out


def last_json_line(text: str) -> dict:
    """The JSON object on the last non-empty line of a child's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's final stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
