"""Unit and property tests for Pareto utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pareto import (
    crowding_distance,
    dominates,
    front_ranks,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front,
    pareto_front_indices,
)

point_sets = arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.just(2)),
    elements=st.floats(-100, 100, allow_nan=False),
)


@st.composite
def grid_problems(draw):
    """Small integer grids, so ties and duplicates are common."""
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 25))
    grid = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    pts = draw(arrays(np.float64, (n, m), elements=grid))
    maximize = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return pts, maximize


def peel_ranks(pts, maximize):
    """Brute-force fronts: repeatedly strip the points nothing left dominates."""
    ranks = np.full(len(pts), -1, dtype=np.int64)
    remaining, r = set(range(len(pts))), 0
    while remaining:
        front = {
            k
            for k in remaining
            if not any(dominates(pts[i], pts[k], maximize) for i in remaining)
        }
        ranks[sorted(front)] = r
        remaining -= front
        r += 1
    return ranks


def crowding_loop(pts, maximize):
    """Per-element reference for the vectorised crowding distance."""
    pts = np.asarray(pts, float) * np.where(maximize, 1.0, -1.0)
    n, m = pts.shape
    dist = np.zeros(n)
    for j in range(m if n else 0):
        order = np.argsort(pts[:, j])
        dist[order[0]] = dist[order[-1]] = np.inf
        span = pts[order[-1], j] - pts[order[0], j]
        if span == 0:
            continue
        for k in range(1, n - 1):
            dist[order[k]] += (pts[order[k + 1], j] - pts[order[k - 1], j]) / span
    return dist


class TestDominates:
    def test_strict_domination(self):
        assert dominates([2, 2], [1, 1], [True, True])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 1], [1, 1], [True, True])

    def test_tradeoff_no_domination(self):
        assert not dominates([2, 1], [1, 2], [True, True])
        assert not dominates([1, 2], [2, 1], [True, True])

    def test_minimised_objective_direction(self):
        # Second objective minimised (e.g. latency): lower wins.
        assert dominates([2, 1], [2, 3], [True, False])


class TestFront:
    def test_known_front(self):
        pts = np.array([[1, 5], [2, 4], [3, 3], [2, 2], [0, 6]])
        idx = pareto_front_indices(pts, [True, True])
        assert set(idx) == {0, 1, 2, 4}

    def test_duplicates_all_kept(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        idx = pareto_front_indices(pts, [True, True])
        assert set(idx) == {0, 1}

    def test_single_point(self):
        assert list(pareto_front_indices([[3.0, 4.0]], [True, True])) == [0]

    def test_empty(self):
        assert len(pareto_front_indices(np.empty((0, 2)), [True, True])) == 0

    def test_latency_direction(self):
        # (acc up, latency down): [0.7, 10] vs [0.6, 5] are both optimal.
        pts = np.array([[0.7, 10.0], [0.6, 5.0], [0.6, 12.0]])
        idx = pareto_front_indices(pts, [True, False])
        assert set(idx) == {0, 1}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pareto_front_indices(np.ones(3), [True])
        with pytest.raises(ValueError):
            pareto_front_indices(np.ones((3, 2)), [True])

    @given(point_sets)
    @settings(max_examples=60, deadline=None)
    def test_front_invariants(self, pts):
        """No front point dominates another; every non-front point is dominated."""
        maximize = [True, True]
        idx = set(int(i) for i in pareto_front_indices(pts, maximize))
        for i in idx:
            for j in idx:
                assert not dominates(pts[i], pts[j], maximize)
        for k in range(len(pts)):
            if k not in idx:
                assert any(dominates(pts[i], pts[k], maximize) for i in idx)

    @given(point_sets)
    @settings(max_examples=30, deadline=None)
    def test_front_matches_bruteforce(self, pts):
        maximize = [True, True]
        brute = {
            k
            for k in range(len(pts))
            if not any(
                dominates(pts[i], pts[k], maximize)
                for i in range(len(pts))
                if i != k
            )
        }
        fast = set(int(i) for i in pareto_front_indices(pts, maximize))
        assert fast == brute


class TestFrontRanks:
    @given(grid_problems())
    @settings(max_examples=150, deadline=None)
    def test_ranks_match_bruteforce_peel(self, problem):
        pts, maximize = problem
        ranks = front_ranks(pts, maximize)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, peel_ranks(pts, maximize))

    @given(grid_problems())
    @settings(max_examples=80, deadline=None)
    def test_each_rank_dominated_by_previous(self, problem):
        pts, maximize = problem
        ranks = front_ranks(pts, maximize)
        for k in np.flatnonzero(ranks > 0):
            assert any(
                dominates(pts[i], pts[k], maximize)
                for i in np.flatnonzero(ranks == ranks[k] - 1)
            )

    @given(grid_problems())
    @settings(max_examples=80, deadline=None)
    def test_views_agree_with_ranks(self, problem):
        pts, maximize = problem
        ranks = front_ranks(pts, maximize)
        idx = pareto_front_indices(pts, maximize)
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(idx, np.flatnonzero(ranks == 0))
        fronts = non_dominated_sort(pts, maximize)
        assert len(fronts) == (ranks.max() + 1 if len(ranks) else 0)
        for r, front in enumerate(fronts):
            np.testing.assert_array_equal(front, np.flatnonzero(ranks == r))

    def test_known_fronts(self):
        pts = np.array([[1, 5], [2, 4], [3, 3], [2, 2], [0, 6], [1, 1]])
        assert front_ranks(pts, [True, True]).tolist() == [0, 0, 0, 1, 0, 2]

    def test_empty(self):
        assert front_ranks(np.empty((0, 2)), [True, True]).shape == (0,)
        assert non_dominated_sort(np.empty((0, 3)), [True] * 3) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "fn", [front_ranks, pareto_front_indices, non_dominated_sort, crowding_distance]
    )
    def test_non_finite_rejected_with_row(self, fn, bad):
        pts = np.array([[1.0, 2.0], [3.0, bad], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            fn(pts, [True, False])


class TestCrowding:
    @given(grid_problems())
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_loop_reference(self, problem):
        pts, maximize = problem
        fast = crowding_distance(pts, maximize)
        assert fast.tobytes() == crowding_loop(pts, maximize).tobytes()

    @given(point_sets)
    @settings(max_examples=40, deadline=None)
    def test_bit_equal_on_continuous_points(self, pts):
        fast = crowding_distance(pts, [True, False])
        assert fast.tobytes() == crowding_loop(pts, [True, False]).tobytes()

    def test_extremes_infinite(self):
        pts = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(pts, [True, True])
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_empty(self):
        assert crowding_distance(np.empty((0, 2)), [True, True]).shape == (0,)

    def test_identical_points_zero_span(self):
        pts = np.ones((4, 2))
        d = crowding_distance(pts, [True, True])
        assert np.isinf(d).sum() >= 2


class TestHypervolume:
    def test_single_point(self):
        hv = hypervolume_2d([[2.0, 3.0]], [0.0, 0.0], [True, True])
        assert hv == pytest.approx(6.0)

    def test_two_point_staircase(self):
        hv = hypervolume_2d([[1.0, 1.0], [2.0, 0.5]], [0.0, 0.0], [True, True])
        assert hv == pytest.approx(1.5)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume_2d([[2.0, 2.0]], [0.0, 0.0], [True, True])
        more = hypervolume_2d([[2.0, 2.0], [1.0, 1.0]], [0.0, 0.0], [True, True])
        assert base == pytest.approx(more)

    def test_points_below_reference_excluded(self):
        hv = hypervolume_2d([[-1.0, -1.0]], [0.0, 0.0], [True, True])
        assert hv == 0.0

    def test_monotone_in_points(self):
        ref = [0.0, 0.0]
        small = hypervolume_2d([[1.0, 1.0]], ref, [True, True])
        bigger = hypervolume_2d([[1.0, 1.0], [0.5, 2.0]], ref, [True, True])
        assert bigger >= small

    def test_requires_two_objectives(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.ones((2, 3)), [0, 0, 0], [True, True, True])

    def test_minimised_objective(self):
        # Latency minimised: point (acc=2, lat=1) vs reference (0, 3).
        hv = hypervolume_2d([[2.0, 1.0]], [0.0, 3.0], [True, False])
        assert hv == pytest.approx(4.0)


class TestParetoFrontValues:
    def test_returns_rows(self):
        pts = np.array([[1.0, 5.0], [2.0, 4.0], [0.5, 0.5]])
        front = pareto_front(pts, [True, True])
        assert front.shape == (2, 2)
