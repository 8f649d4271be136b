"""Unit tests for the extension optimizers (NSGA-II, BO-NAS)."""

import hashlib

import numpy as np
import pytest

from repro.core.pareto import dominates, non_dominated_sort
from repro.optimizers import BoNas, Nsga2, RandomSearch
from repro.trainsim.schemes import P_STAR


@pytest.fixture(scope="module")
def acc_fn(trainer):
    return lambda a: trainer.expected_top1(a, P_STAR)


@pytest.fixture(scope="module")
def thr_fn():
    from repro.hwsim.measure import MeasurementHarness
    from repro.hwsim.registry import get_device

    harness = MeasurementHarness(get_device("zcu102"))
    return lambda a: harness.measure_throughput(a)


class TestNonDominatedSort:
    def test_fronts_partition_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(30, 2))
        fronts = non_dominated_sort(pts, [True, True])
        combined = np.concatenate(fronts)
        assert sorted(combined.tolist()) == list(range(30))

    def test_first_front_is_pareto(self):
        pts = np.array([[1, 5], [2, 4], [3, 3], [2, 2], [0, 6]], dtype=float)
        fronts = non_dominated_sort(pts, [True, True])
        assert set(fronts[0].tolist()) == {0, 1, 2, 4}

    def test_later_fronts_dominated_by_earlier(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(25, 2))
        fronts = non_dominated_sort(pts, [True, True])
        for k in range(1, len(fronts)):
            for j in fronts[k]:
                assert any(
                    dominates(pts[i], pts[j], [True, True]) for i in fronts[k - 1]
                )


class TestNsga2:
    def test_budget_respected(self, acc_fn, thr_fn):
        result = Nsga2(seed=0, population_size=16).run_biobjective(
            acc_fn, thr_fn, budget=80, device="zcu102"
        )
        assert len(result.archs) == 80

    def test_front_spans_tradeoff(self, acc_fn, thr_fn):
        result = Nsga2(seed=0, population_size=20).run_biobjective(
            acc_fn, thr_fn, budget=160
        )
        front = result.pareto_points()
        assert len(front) >= 3
        accs = [p[1] for p in front]
        assert max(accs) - min(accs) > 0.01

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "90a73c9c5332a7eb0bd82a6ba0bac650cb6f85c8941c8e6a75fa4f706f735e71"),
            (1, "ea6f86f23351d65517f86bcb1cbffa9720b917bb71b83fd485bc41ded476d6ae"),
            (2, "f503d361270a5fd853045433fc858ffd7a96a0a26714a6089f6cb77309420ee1"),
        ],
    )
    def test_history_pinned(self, acc_fn, thr_fn, seed, digest):
        """Fixed-seed histories are byte-stable across changes to the
        non-dominated sort and crowding distance."""
        result = Nsga2(seed=seed, population_size=20).run_biobjective(
            acc_fn, thr_fn, budget=200, device="zcu102"
        )
        text = "\n".join(
            f"{arch.to_string()} {acc!r} {perf!r}"
            for arch, acc, perf in zip(
                result.archs, result.accuracies, result.performances
            )
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            Nsga2(population_size=2)
        with pytest.raises(ValueError):
            Nsga2(mutation_rate=1.5)

    def test_budget_must_cover_population(self, acc_fn, thr_fn):
        with pytest.raises(ValueError):
            Nsga2(population_size=40).run_biobjective(acc_fn, thr_fn, budget=10)

    def test_metric_validated(self, acc_fn, thr_fn):
        with pytest.raises(ValueError):
            Nsga2().run_biobjective(acc_fn, thr_fn, budget=50, metric="power")

    def test_uniobjective_fallback(self, acc_fn):
        result = Nsga2(seed=0, population_size=16).run(acc_fn, 48)
        assert result.num_evaluations == 48
        assert result.best_value > 0.7

    def test_crossover_mixes_parents(self):
        from repro.searchspace.mnasnet import MnasNetSearchSpace

        space = MnasNetSearchSpace(seed=0)
        opt = Nsga2(space=space, seed=0)
        rng = np.random.default_rng(3)
        a, b = space.sample(rng), space.sample(rng)
        child = opt._crossover(a, b, rng)
        da, db = space.arch_to_decisions(a), space.arch_to_decisions(b)
        dc = space.arch_to_decisions(child)
        assert all(dc[k] in (da[k], db[k]) for k in dc)


class TestBoNas:
    def test_budget_and_uniqueness(self, acc_fn):
        result = BoNas(seed=0, n_init=8).run(acc_fn, 40)
        assert result.num_evaluations == 40
        assert len(set(result.archs)) == 40

    def test_beats_or_matches_random_search(self, acc_fn):
        budget = 100
        seeds = (0, 2, 3)
        bo = np.mean(
            [BoNas(seed=s, n_init=16).run(acc_fn, budget).best_value for s in seeds]
        )
        rs = np.mean(
            [RandomSearch(seed=s).run(acc_fn, budget).best_value for s in seeds]
        )
        assert bo >= rs - 0.002

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            BoNas(n_init=1)
        with pytest.raises(ValueError):
            BoNas(refit_every=0)

    def test_budget_validated(self, acc_fn):
        with pytest.raises(ValueError):
            BoNas().run(acc_fn, 0)

    def test_budget_smaller_than_init(self, acc_fn):
        result = BoNas(seed=0, n_init=16).run(acc_fn, 5)
        assert result.num_evaluations == 5
