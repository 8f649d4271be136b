"""Seeded fault drills for the serving layer.

The collection pipeline proves its robustness with
:class:`~repro.core.reliability.FaultPlan`; the serving layer uses the same
plan over :data:`~repro.core.reliability.SERVE_FAULT_KINDS`, consulted
once per kind at ``(endpoint, request-index)`` via
:meth:`~repro.core.reliability.FaultPlan.fires`:

- ``slow`` — the handler sleeps ``ServerConfig.drill_slow`` seconds before
  touching the benchmark, driving deadline (504) and queue-pressure (429)
  behaviour.
- ``error`` — the request raises :class:`InjectedServeFault`, driving 500
  responses and circuit-breaker trips.

Decisions are hash-seeded from ``(seed, kind, endpoint, index)``, so
identical plans produce identical drills on any machine or interleaving.
The ``@N`` window bounds a drill to the first N requests of an endpoint,
which is how the CI smoke drill scripts "trip the breaker, then recover":
``error:1.0@6`` fails requests 0–5 and heals from request 6 on.

:func:`truncate_shard` supports the reload-failure drill: it corrupts one
shard of a *copy* of a columnar store so ``/reload`` must detect the damage
(via the full verification sweep) and roll back.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.store import MANIFEST_NAME


class InjectedServeFault(RuntimeError):
    """A drill-injected surrogate failure (kind 'error')."""

    def __init__(self, endpoint: str, index: int) -> None:
        super().__init__(
            f"injected serve fault on {endpoint!r} (request {index})"
        )
        self.endpoint = endpoint
        self.index = index


def truncate_shard(store_path: str | Path, drop_bytes: int = 16) -> str:
    """Corrupt one shard of a columnar store (reload-failure drills).

    Truncates the lexicographically first shard by ``drop_bytes`` bytes and
    returns its store-relative path.  Run this against a *copy* of the
    store: the point is to hand ``/reload`` a damaged artifact and watch it
    verify, refuse and roll back.
    """
    root = Path(store_path)
    shards = sorted(
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and p.name != MANIFEST_NAME
    )
    if not shards:
        raise FileNotFoundError(f"no shards under {root}")
    rel = shards[0]
    target = root / rel
    size = target.stat().st_size
    with open(target, "r+b") as handle:
        handle.truncate(max(size - drop_bytes, 0))
    return rel
