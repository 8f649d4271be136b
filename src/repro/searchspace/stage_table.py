"""Per-stage tables: layer sequences and exact compute counts without a build.

The skeleton of the MnasNet space fixes every stage's input channels and
input resolution regardless of the decisions taken in *other* stages (stage
widths and strides are not searchable).  Consequently the IR layers of stage
``i`` depend only on ``(i, expansion, kernel, layers, se, resolution)``, and a
whole model's layer sequence is exactly

    stem layers + stage_0 layers + ... + stage_6 layers + head layers

in :func:`~repro.searchspace.model_builder.build_model` insertion order.
Within a stage only the first block differs (it carries the stride and the
channel change); every later block is an identical copy.  So a stage's FLOP
and parameter counts follow from two blocks by arithmetic:

    count(stage, e, k, L, se) = first(stage, e, k, se) + (L - 1) * repeat(stage, e, k, se)

:class:`StageTable` materialises both views lazily from *probe* builds (real
``build_model`` calls whose per-stage slices are reusable in any arch):

* layer sequences keyed by ``(stage, e, k, L, se)``, for the device timing
  kernels of :mod:`repro.hwsim.batch` (one uniform probe per configuration);
* exact integer first/repeat FLOP and parameter counts keyed by
  ``(stage, e, k, se)`` — a dense ``int64`` array for the in-grid choices, a
  dictionary for off-grid ``e``/``k`` values — from ``L = 2`` probes that
  carry a different missing configuration in each of the seven stages.

:meth:`StageTable.totals` turns an ``(n, 4, 7)`` decision tensor into
per-arch FLOP and parameter totals with gathers and integer sums; it is the
only source of per-arch compute counts for :mod:`repro.trainsim.batch`
(:meth:`StageTable.flops_for`), the ``onehot+global`` surrogate features and
the FLOPs-stratified proxy-search grid.  Layer depth enters by arithmetic,
so an arch with a million layers per stage costs the same as one with one.

Exactness: FLOP/MAC/parameter counts are integers, so table sums equal
``count_graph(build_model(arch))`` exactly in any order.  Per-layer float
quantities (e.g. device timings) are kept as per-layer sequences so callers
can reduce them in the same left-to-right order as a real graph walk.
"""

from __future__ import annotations

import threading
from itertools import chain, product
from typing import Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.searchspace.mnasnet import (
    ArchSpec,
    DEFAULT_RESOLUTION,
    EXPANSION_CHOICES,
    KERNEL_CHOICES,
    NUM_STAGES,
    SE_CHOICES,
)

# Largest total the int64 kernels accept: half the int64 range leaves room
# for the float64 rounding of the overflow pre-check.
_MAX_COUNT = 2**62

# Dense-table column of each in-grid (e, k, se); the vectorised code in
# StageTable.totals computes the same index from sorted choice positions.
_GRID_CODES = {
    config: code
    for code, config in enumerate(product(EXPANSION_CHOICES, KERNEL_CHOICES, SE_CHOICES))
}
# The smallest config: fills probe stages that have nothing missing.
_FILLER = (EXPANSION_CHOICES[0], KERNEL_CHOICES[0], SE_CHOICES[0])

_E_GRID = np.asarray(EXPANSION_CHOICES, dtype=np.int64)
_K_GRID = np.asarray(KERNEL_CHOICES, dtype=np.int64)
_SE_GRID = np.asarray(SE_CHOICES, dtype=np.int64)


def decision_tensor(archs: Sequence[ArchSpec]) -> np.ndarray:
    """Decisions as an ``(n, 4, NUM_STAGES)`` int64 tensor.

    Field order along axis 1 is ``(expansion, kernel, layers, se)``.  Raises
    :class:`ValueError` if a decision does not fit in int64.
    """
    try:
        flat = np.fromiter(
            chain.from_iterable(a.expansion + a.kernel + a.layers + a.se for a in archs),
            dtype=np.int64,
            count=4 * NUM_STAGES * len(archs),
        )
    except OverflowError as exc:
        raise ValueError(f"architecture decision out of range: {exc}") from exc
    return flat.reshape(len(archs), 4, NUM_STAGES)


def _grid_index(values: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position of each value in the sorted ``grid``, in-grid mask)."""
    pos = np.minimum(np.searchsorted(grid, values), len(grid) - 1)
    return pos, grid[pos] == values


def _sums(layers: Sequence[Layer]) -> list[int]:
    """``[flops, params]`` of a layer sequence."""
    return [sum(x.flops for x in layers), sum(x.params for x in layers)]


def _int64_counts(counts: list[int]) -> np.ndarray:
    """Exact integer counts as an int64 array, range-checked."""
    if max(counts) >= _MAX_COUNT:
        raise ValueError("architecture compute counts exceed the int64 range")
    return np.asarray(counts, dtype=np.int64)


def _uniform(e: int, k: int, layers: int, se: int) -> ArchSpec:
    """The arch with one decision tuple in every stage."""
    return ArchSpec(
        expansion=(e,) * NUM_STAGES,
        kernel=(k,) * NUM_STAGES,
        layers=(layers,) * NUM_STAGES,
        se=(se,) * NUM_STAGES,
    )


class StageTable:
    """Lazily-built per-stage layer and count lookup for the MnasNet skeleton.

    Thread-safe: probe builds and table reads happen under one lock.

    Args:
        resolution: Input resolution the table is built for (one table per
            resolution; 224 covers every in-repo consumer).
    """

    def __init__(self, resolution: int = DEFAULT_RESOLUTION) -> None:
        self.resolution = resolution
        self._lock = threading.Lock()
        # (stage, e, k, L, se) -> tuple[Layer, ...]
        self._stages: dict[tuple[int, int, int, int, int], tuple[Layer, ...]] = {}
        # Per-stage count rows: first flops, first params, repeat flops,
        # repeat params.  In-grid (e, k, se) live in a dense int64
        # (4, NUM_STAGES, |E|*|K|*|SE|) array with a probed mask; off-grid
        # ones in a dict keyed by (stage, e, k, se).
        self._grid = np.zeros((4, NUM_STAGES, len(_GRID_CODES)), dtype=np.int64)
        self._known = np.zeros((NUM_STAGES, len(_GRID_CODES)), dtype=bool)
        self._off_grid: dict[tuple[int, int, int, int], np.ndarray] = {}
        self._stem: tuple[Layer, ...] | None = None
        self._head: tuple[Layer, ...] | None = None
        # Stem + head (flops, params): int64 (2,).
        self._fixed = np.zeros(2, dtype=np.int64)

    # ----------------------------------------------------------------- probes

    def _probe(self, arch: ArchSpec) -> None:
        """Build ``arch`` once and slice it into per-stage table rows.

        A single probe populates one layer row per stage (their fixed input
        channels/resolutions make the slices reusable verbatim in any arch)
        plus the config-independent stem and head rows.  Stages with at
        least two layers also yield their first/repeat counts.
        """
        from repro.searchspace.model_builder import build_model

        graph = build_model(arch, resolution=self.resolution)
        groups: dict[str, list[Layer]] = {}
        for layer in graph:
            prefix = layer.name.split(".", 1)[0]
            groups.setdefault(prefix, []).append(layer)
        if self._stem is None:
            self._stem = tuple(groups["stem"])
            self._head = tuple(groups["head"])
            self._fixed = _int64_counts(_sums(self._stem + self._head))
        for stage in range(NUM_STAGES):
            e, k, layers, se = (
                arch.expansion[stage], arch.kernel[stage], arch.layers[stage], arch.se[stage]
            )
            row = tuple(groups[f"s{stage}"])
            self._stages[(stage, e, k, layers, se)] = row
            if layers < 2:
                continue
            first = [x for x in row if x.name.startswith(f"s{stage}.l0.")]
            repeat = [x for x in row if x.name.startswith(f"s{stage}.l1.")]
            counts = _int64_counts(_sums(first) + _sums(repeat))
            code = _GRID_CODES.get((e, k, se))
            if code is None:
                self._off_grid[(stage, e, k, se)] = counts
            else:
                self._grid[:, stage, code] = counts
                self._known[stage, code] = True

    def _probe_counts(self, missing: set[tuple[int, int, int, int]]) -> None:
        """Probe the ``(stage, e, k, se)`` count rows in ``missing``.

        Each probe arch carries a different missing config in every stage,
        so one build serves up to seven of them: a single new arch costs
        one build, a fresh in-grid table at most ``|E|*|K|*|SE|``.
        """
        by_stage = [
            sorted(c[1:] for c in missing if c[0] == stage) or [_FILLER]
            for stage in range(NUM_STAGES)
        ]
        for r in range(max(map(len, by_stage))):
            picks = [configs[min(r, len(configs) - 1)] for configs in by_stage]
            self._probe(
                ArchSpec(
                    expansion=tuple(p[0] for p in picks),
                    kernel=tuple(p[1] for p in picks),
                    layers=(2,) * NUM_STAGES,
                    se=tuple(p[2] for p in picks),
                )
            )

    def _stage_layers_locked(
        self, stage: int, e: int, k: int, layers: int, se: int
    ) -> tuple[Layer, ...]:
        key = (stage, e, k, layers, se)
        row = self._stages.get(key)
        if row is None:
            self._probe(_uniform(e, k, layers, se))
            row = self._stages[key]
        return row

    # ---------------------------------------------------------------- lookups

    def stem_layers(self) -> tuple[Layer, ...]:
        """The config-independent stem layer sequence."""
        with self._lock:
            if self._stem is None:
                self._probe(_uniform(1, 3, 1, 0))
            return self._stem  # type: ignore[return-value]

    def head_layers(self) -> tuple[Layer, ...]:
        """The config-independent head layer sequence."""
        with self._lock:
            if self._stem is None:
                self._probe(_uniform(1, 3, 1, 0))
            return self._head  # type: ignore[return-value]

    def stage_layers(
        self, stage: int, e: int, k: int, layers: int, se: int
    ) -> tuple[Layer, ...]:
        """The layer sequence of one stage under one decision tuple."""
        with self._lock:
            return self._stage_layers_locked(stage, e, k, layers, se)

    def totals(self, dec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-arch ``(flops, params)`` int64 totals.

        Args:
            dec: ``(n, 4, NUM_STAGES)`` int64 decisions, as built by
                :func:`decision_tensor`.

        Each total equals ``count_graph(build_model(arch))`` for the
        corresponding arch.  Raises :class:`ValueError` if one does not fit
        in int64.
        """
        e, k, layers, se = dec.transpose(1, 0, 2)
        ei, e_ok = _grid_index(e, _E_GRID)
        ki, k_ok = _grid_index(k, _K_GRID)
        si, se_ok = _grid_index(se, _SE_GRID)
        code = (ei * len(_K_GRID) + ki) * len(_SE_GRID) + si
        in_grid = e_ok & k_ok & se_ok
        stages = np.arange(NUM_STAGES)

        def key(i: int, s: int) -> tuple[int, int, int, int]:
            return (s, int(e[i, s]), int(k[i, s]), int(se[i, s]))

        off_grid = [(i, s, key(i, s)) for i, s in np.argwhere(~in_grid).tolist()]
        with self._lock:
            unknown = np.argwhere(in_grid & ~self._known[stages, code]).tolist()
            missing = {key(i, s) for i, s in unknown}
            missing.update(c for _, _, c in off_grid if c not in self._off_grid)
            if missing:
                self._probe_counts(missing)
            # (4, n, NUM_STAGES): first flops, first params, repeat flops,
            # repeat params of every arch's stages.
            rows = self._grid[:, stages, code]
            for i, s, c in off_grid:
                rows[:, i, s] = self._off_grid[c]
            fixed = self._fixed
        extra = layers - 1
        bound = fixed + (rows[:2] + extra * rows[2:].astype(np.float64)).sum(axis=2).T
        if len(dec) and bound.max() >= _MAX_COUNT:
            raise ValueError("architecture compute counts exceed the int64 range")
        flops = fixed[0] + (rows[0] + extra * rows[2]).sum(axis=1)
        params = fixed[1] + (rows[1] + extra * rows[3]).sum(axis=1)
        return flops, params

    def flops_for(self, archs: Sequence[ArchSpec]) -> np.ndarray:
        """Exact per-arch FLOP counts as a float64 array.

        A view of :meth:`totals`: the int64 totals equal
        ``count_graph(build_model(a)).flops`` exactly.
        """
        return self.totals(decision_tensor(archs))[0].astype(np.float64)


_TABLES: dict[int, StageTable] = {}
_TABLES_LOCK = threading.Lock()


def get_stage_table(resolution: int = DEFAULT_RESOLUTION) -> StageTable:
    """Shared per-resolution :class:`StageTable` instance."""
    with _TABLES_LOCK:
        table = _TABLES.get(resolution)
        if table is None:
            table = StageTable(resolution)
            _TABLES[resolution] = table
        return table
