"""Feature encodings that map architectures to surrogate-model inputs.

The paper's surrogates consume "architecture specifications, such as operation
types, filter sizes, layer specifications" — i.e. a tabular encoding of the
per-stage decisions.  Three encodings are provided:

``onehot``
    One-hot per (stage, decision) pair: 7 stages x (3+2+3+2) = 70 columns.
    The default, and what tree ensembles handle best on categorical spaces.
``integer``
    Raw decision values: 7 stages x 4 = 28 columns.
``onehot+global``
    One-hot plus global summary statistics (log-FLOPs, log-params, depth,
    SE count); the :class:`~repro.core.surrogate_fit.SurrogateFitter`
    default, so every fitted surrogate queries through it.

Encoding is the per-query hot path of a built benchmark, so
:meth:`FeatureEncoder.encode` is vectorised over the batch.  The global
columns never build a model graph: exact integer FLOP and parameter totals
are gathered from the shared :class:`~repro.searchspace.stage_table.StageTable`
over the ``(n, 4, 7)`` decision tensor, and their logs are taken with
``math.log10`` per total (``np.log10`` differs from it by an ulp on ~1% of
rows).  Layer depth enters the counts by arithmetic, so encoding cost does
not grow with it.

An arch-keyed LRU cache sits in front: only rows for architectures never
seen before are computed, and repeat queries (optimizer populations,
repeated single-arch queries) are served straight from the cache.  Cached
rows are immutable (``writeable=False``) and bit-identical to what
:meth:`encode_one`, the scalar reference implementation, produces.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.searchspace.mnasnet import (
    ArchSpec,
    EXPANSION_CHOICES,
    KERNEL_CHOICES,
    LAYER_CHOICES,
    NUM_STAGES,
    SE_CHOICES,
)
from repro.searchspace.stage_table import decision_tensor, get_stage_table

ENCODINGS = ("onehot", "integer", "onehot+global")

DEFAULT_CACHE_SIZE = 16384

_DECISION_CHOICES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("expansion", EXPANSION_CHOICES),
    ("kernel", KERNEL_CHOICES),
    ("layers", LAYER_CHOICES),
    ("se", SE_CHOICES),
)


def _global_columns(dec: np.ndarray) -> np.ndarray:
    """``(n, 4)`` log-FLOPs, log-params, depth and SE count of ``dec``."""
    flops, params = get_stage_table().totals(dec)
    out = np.empty((len(dec), 4), dtype=np.float64)
    out[:, 0] = [math.log10(f) for f in flops.tolist()]
    out[:, 1] = [math.log10(p) for p in params.tolist()]
    out[:, 2] = dec[:, 2, :].sum(axis=1)
    out[:, 3] = dec[:, 3, :].sum(axis=1)
    return out


class FeatureEncoder:
    """Encode :class:`ArchSpec` instances as fixed-width float matrices.

    Args:
        encoding: One of :data:`ENCODINGS`.
        cache_size: Capacity of the arch-keyed LRU row cache; ``0`` disables
            caching (every call re-encodes).  The cache is thread-safe so one
            encoder can be shared by a parallel benchmark build.
    """

    def __init__(
        self, encoding: str = "onehot", cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}; choose from {ENCODINGS}")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.encoding = encoding
        self.cache_size = int(cache_size)
        self._cache: OrderedDict[ArchSpec, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @property
    def num_features(self) -> int:
        """Width of the encoded feature vector."""
        onehot = NUM_STAGES * sum(len(c) for _, c in _DECISION_CHOICES)
        if self.encoding == "onehot":
            return onehot
        if self.encoding == "integer":
            return NUM_STAGES * len(_DECISION_CHOICES)
        return onehot + 4

    def feature_names(self) -> list[str]:
        """Human-readable column names aligned with :meth:`encode` output."""
        names: list[str] = []
        if self.encoding == "integer":
            for stage in range(NUM_STAGES):
                for field_name, _ in _DECISION_CHOICES:
                    names.append(f"s{stage}.{field_name}")
            return names
        for stage in range(NUM_STAGES):
            for field_name, choices in _DECISION_CHOICES:
                for choice in choices:
                    names.append(f"s{stage}.{field_name}={choice}")
        if self.encoding == "onehot+global":
            names.extend(["log_flops", "log_params", "total_layers", "num_se"])
        return names

    # ------------------------------------------------------------------ cache

    def cache_info(self) -> dict:
        """Cache statistics: hits, misses, current size and capacity."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "capacity": self.cache_size,
            }

    def cache_clear(self) -> None:
        """Drop all cached rows and reset the hit/miss counters."""
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    # ----------------------------------------------------------------- encode

    def encode_one(self, arch: ArchSpec) -> np.ndarray:
        """Encode a single architecture to a 1-D float64 vector.

        This is the scalar reference implementation; :meth:`encode` is the
        vectorised, cached batch path and is asserted bit-identical to it.
        """
        if self.encoding == "integer":
            row = []
            for stage in range(NUM_STAGES):
                for field_name, _ in _DECISION_CHOICES:
                    row.append(float(getattr(arch, field_name)[stage]))
            return np.asarray(row, dtype=np.float64)

        row = []
        for stage in range(NUM_STAGES):
            for field_name, choices in _DECISION_CHOICES:
                value = getattr(arch, field_name)[stage]
                row.extend(1.0 if value == choice else 0.0 for choice in choices)
        if self.encoding == "onehot+global":
            row.extend(_global_columns(decision_tensor([arch]))[0])
        return np.asarray(row, dtype=np.float64)

    def _encode_rows(self, archs: Sequence[ArchSpec]) -> np.ndarray:
        """Vectorised batch encode (no cache); returns an (n, d) matrix."""
        n = len(archs)
        dec = decision_tensor(archs)
        if self.encoding == "integer":
            # Column order is stage-major: (s0.e, s0.k, s0.L, s0.se, s1.e, ...).
            return np.ascontiguousarray(
                dec.transpose(0, 2, 1).reshape(n, -1).astype(np.float64)
            )
        blocks = []
        for f, (_, choices) in enumerate(_DECISION_CHOICES):
            c = np.asarray(choices, dtype=np.int64)
            blocks.append(dec[:, f, :, None] == c[None, None, :])
        onehot = np.concatenate(blocks, axis=2).astype(np.float64).reshape(n, -1)
        if self.encoding != "onehot+global":
            return np.ascontiguousarray(onehot)
        return np.ascontiguousarray(
            np.concatenate([onehot, _global_columns(dec)], axis=1)
        )

    def encode(self, archs: Sequence[ArchSpec]) -> np.ndarray:
        """Encode a batch of architectures to an ``(n, num_features)`` matrix.

        Rows for architectures already in the LRU cache are reused; only
        missing rows are computed (in one vectorised pass).
        """
        archs = list(archs)
        if not archs:
            return np.empty((0, self.num_features), dtype=np.float64)
        if self.cache_size == 0:
            return self._encode_rows(archs)

        rows: dict[ArchSpec, np.ndarray] = {}
        missing: list[ArchSpec] = []
        with self._lock:
            for arch in archs:
                if arch in rows:
                    continue
                cached = self._cache.get(arch)
                if cached is not None:
                    self._cache.move_to_end(arch)
                    self._hits += 1
                    rows[arch] = cached
                else:
                    self._misses += 1
                    missing.append(arch)
                    rows[arch] = np.empty(0)  # placeholder, filled below

        if missing:
            fresh = self._encode_rows(missing)
            fresh.flags.writeable = False
            with self._lock:
                for arch, row in zip(missing, fresh):
                    rows[arch] = row
                    self._cache[arch] = row
                    self._cache.move_to_end(arch)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)

        out = np.empty((len(archs), self.num_features), dtype=np.float64)
        for i, arch in enumerate(archs):
            out[i] = rows[arch]
        return out
