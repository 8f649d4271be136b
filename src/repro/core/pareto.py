"""Pareto-dominance utilities for bi-objective search results.

Conventions: objectives are passed as an ``(n, m)`` matrix with a parallel
``maximize`` boolean per column (e.g. accuracy is maximised, latency
minimised).  Internally everything is flipped to maximisation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np


def _as_max(points: np.ndarray, maximize: Sequence[bool]) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if points.shape[1] != len(maximize):
        raise ValueError(
            f"{points.shape[1]} objectives but {len(maximize)} maximize flags"
        )
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"row {row} has a non-finite objective: {points[row].tolist()}"
        )
    signs = np.where(np.asarray(maximize, dtype=bool), 1.0, -1.0)
    return points * signs


def dominates(a, b, maximize: Sequence[bool]) -> bool:
    """True if point ``a`` Pareto-dominates point ``b``."""
    pair = _as_max(np.stack([np.asarray(a, float), np.asarray(b, float)]), maximize)
    av, bv = pair[0], pair[1]
    return bool(np.all(av >= bv) and np.any(av > bv))


def front_ranks(points, maximize: Sequence[bool]) -> np.ndarray:
    """Pareto front of every point: 0 is the non-dominated set, and a point
    of rank ``r + 1`` is dominated by some point of rank ``r``.

    Duplicated points share a front (they do not dominate each other).
    """
    pts = _as_max(points, maximize)
    n, m = pts.shape
    ranks = np.empty(n, dtype=np.int64)
    if m == 2:
        # Visited by first objective, then second, descending, every point
        # comes after its dominators, and an earlier point dominates it iff
        # it is larger in (second, first) order.  Each front's last point is
        # its largest in that order, and those keys fall from front to
        # front, so a point joins the first front whose last key is not
        # above its own.  Dense per-objective ranks make both keys integers.
        xr = np.unique(pts[:, 0], return_inverse=True)[1]
        yr = np.unique(pts[:, 1], return_inverse=True)[1]
        order = np.argsort(-(xr * n + yr), kind="stable")
        tails: list[int] = []  # negated key of each front's last point
        visited = []
        for k in (-(yr * n + xr))[order].tolist():
            r = bisect_left(tails, k)
            if r == len(tails):
                tails.append(k)
            else:
                tails[r] = k
            visited.append(r)
        ranks[order] = visited
        return ranks
    ge = np.ones((n, n), dtype=bool)
    gt = np.zeros((n, n), dtype=bool)
    for col in pts.T:
        ge &= col[:, None] >= col[None, :]
        gt |= col[:, None] > col[None, :]
    dom = ge & gt  # dom[i, j]: i dominates j
    count = dom.sum(axis=0)
    front, r = np.flatnonzero(count == 0), 0
    while front.size:
        ranks[front] = r
        count -= dom[front].sum(axis=0)
        count[front] = -1
        front, r = np.flatnonzero(count == 0), r + 1
    return ranks


def non_dominated_sort(points, maximize: Sequence[bool]) -> list[np.ndarray]:
    """Partition points into Pareto fronts (front 0 = non-dominated), each
    as ascending indices."""
    ranks = front_ranks(points, maximize)
    return [np.flatnonzero(ranks == r) for r in range(ranks.max(initial=-1) + 1)]


def pareto_front_indices(points, maximize: Sequence[bool]) -> np.ndarray:
    """Ascending indices of the non-dominated points.

    Duplicated points are all kept (they dominate nobody and are dominated by
    nobody among themselves).
    """
    return np.flatnonzero(front_ranks(points, maximize) == 0)


def pareto_front(points, maximize: Sequence[bool]) -> np.ndarray:
    """Non-dominated points themselves (rows of ``points``)."""
    points = np.asarray(points, dtype=np.float64)
    return points[pareto_front_indices(points, maximize)]


def crowding_distance(points, maximize: Sequence[bool]) -> np.ndarray:
    """NSGA-II crowding distance of each point within its own set.

    Boundary points of each objective get infinite distance.
    """
    pts = _as_max(points, maximize)
    n, m = pts.shape
    if n == 0:
        return np.empty(0)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(pts[:, j])
        lo, hi = pts[order[0], j], pts[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = hi - lo
        if span == 0:
            continue
        dist[order[1:-1]] += (pts[order[2:], j] - pts[order[:-2], j]) / span
    return dist


def hypervolume_2d(points, reference, maximize: Sequence[bool]) -> float:
    """Dominated hypervolume of a 2-D point set w.r.t. ``reference``.

    The reference point must be dominated by every point that should
    contribute; points not dominating the reference contribute nothing.
    """
    pts = _as_max(points, maximize)
    ref = _as_max(np.asarray(reference, float)[None, :], maximize)[0]
    if pts.shape[1] != 2:
        raise ValueError("hypervolume_2d requires exactly two objectives")
    front = pts[pareto_front_indices(pts, [True, True])]
    front = front[np.all(front > ref, axis=1)]
    if len(front) == 0:
        return 0.0
    front = front[np.argsort(-front[:, 0])]
    volume = 0.0
    prev_y = ref[1]
    for x, y in front:
        if y > prev_y:
            volume += (x - ref[0]) * (y - prev_y)
            prev_y = y
    return float(volume)
