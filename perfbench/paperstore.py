"""The shared paper-scale columnar store read by search, screen and serve.

It is built from the source under test: the cache key hashes every file
of ``src/repro`` plus the store's scale, so a checkout of another commit
never reuses it.  The first invocation in a checkout builds it (about
150 s at paper scale on 2 cores) under a file lock, into a temporary
directory that is renamed into place only once verified.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
from pathlib import Path

import harness

BUILD_TIMEOUT_S = 850.0
READY = "READY"


def source_key(scale: dict) -> str:
    digest = hashlib.sha256()
    params = {k: scale[k] for k in ("store_archs", "store_sample_seed")}
    digest.update(json.dumps(params, sort_keys=True).encode())
    root = harness.SRC / "repro"
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def ensure_store(scale_name: str, scale: dict, work: Path) -> Path:
    """Path of a verified store for this source tree, building it if needed."""
    key = source_key(scale)[:16]
    work.mkdir(parents=True, exist_ok=True)
    final = work / f"store-{scale_name}-{key}"
    if (final / READY).is_file():
        return final
    with open(work / "store.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (final / READY).is_file():
            return final
        tmp = work / f"tmp-store-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            harness.run_child(
                [harness.PYTHON, harness.WORKER, "build-store",
                 "--out", str(tmp), "--scale", scale_name],
                timeout=BUILD_TIMEOUT_S,
            )
            (tmp / READY).write_text(key, encoding="ascii")
            os.rename(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for stale in work.glob(f"store-{scale_name}-*"):
            if stale != final:
                shutil.rmtree(stale, ignore_errors=True)
    return final


def build_store(out: Path, scale: dict) -> dict:
    """Collect, fit and pack the 9-surrogate store (runs in a worker)."""
    from repro.core.benchmark import AccelNASBench
    from repro.core.store import verify_store
    from repro.trainsim.schemes import P_STAR

    bench, reports = AccelNASBench.build(
        P_STAR,
        num_archs=scale["store_archs"],
        sample_seed=scale["store_sample_seed"],
        n_jobs=harness.nproc(),
    )
    bench.save(out, format="columnar")
    summary = verify_store(out)
    summary["fits"] = {r.dataset: [r.r2, r.kendall] for r in reports}
    return summary
