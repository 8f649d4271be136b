"""NSGA-II: evolutionary bi-objective search (extension optimizer).

A standard multi-objective baseline to compare against the paper's
scalarised REINFORCE (Fig. 4): non-dominated sorting with crowding-distance
selection, binary tournaments, uniform decision-level crossover (via the
generic decision-site interface) and single-edit mutation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.pareto import crowding_distance, front_ranks, non_dominated_sort
from repro.optimizers.base import Optimizer, prefetch
from repro.optimizers.reinforce import BiObjectiveResult
from repro.searchspace.mnasnet import ArchSpec


class Nsga2(Optimizer):
    """NSGA-II over a search space with the generic decision-site interface.

    Args:
        space: Search space.
        seed: Randomness seed.
        population_size: Parents kept each generation.
        mutation_rate: Per-offspring probability of an extra mutation after
            crossover (one crossover child always receives at least one).
    """

    def __init__(
        self,
        space=None,
        seed: int = 0,
        population_size: int = 40,
        mutation_rate: float = 0.5,
    ) -> None:
        super().__init__(space, seed)
        if population_size < 4:
            raise ValueError("population_size must be >= 4")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        self.population_size = population_size
        self.mutation_rate = mutation_rate

    def _crossover(self, a, b, rng: np.random.Generator):
        """Uniform decision-level crossover; retries around constraints."""
        da = self.space.arch_to_decisions(a)
        db = self.space.arch_to_decisions(b)
        for _ in range(16):
            child = {
                key: (da[key] if rng.random() < 0.5 else db[key]) for key in da
            }
            try:
                return self.space.arch_from_decisions(child)
            except ValueError:
                continue
        return a  # constraint-dense corner: fall back to a parent

    def run_biobjective(
        self,
        accuracy_fn: Callable[[ArchSpec], float],
        perf_fn: Callable[[ArchSpec], float],
        budget: int,
        metric: str = "throughput",
        device: str = "",
    ) -> BiObjectiveResult:
        """Evolve toward the accuracy-performance front within ``budget``."""
        if metric not in ("throughput", "latency"):
            raise ValueError(f"unknown metric {metric!r}")
        if budget < self.population_size:
            raise ValueError("budget must cover at least one population")
        rng = self._rng()
        maximize = [True, metric != "latency"]
        result = BiObjectiveResult(device=device, metric=metric)
        evaluated: dict = {}

        def evaluate(arch) -> tuple[float, float]:
            if arch not in evaluated:
                acc, perf = accuracy_fn(arch), perf_fn(arch)
                evaluated[arch] = (acc, perf)
                result.record(arch, acc, perf, reward=0.0)
            return evaluated[arch]

        population = self.space.sample_batch(self.population_size, rng=rng, unique=True)
        prefetch(accuracy_fn, population)
        prefetch(perf_fn, population)
        for arch in population:
            evaluate(arch)

        while len(result.archs) < budget:
            points = np.asarray([evaluated[a] for a in population])
            rank = front_ranks(points, maximize)
            crowd = crowding_distance(points, maximize)

            def tournament() -> int:
                i, j = rng.integers(0, len(population), size=2)
                if rank[i] != rank[j]:
                    return int(i if rank[i] < rank[j] else j)
                return int(i if crowd[i] >= crowd[j] else j)

            offspring = []
            while (
                len(offspring) < self.population_size
                and len(result.archs) + len(offspring) < budget
            ):
                pa = population[tournament()]
                pb = population[tournament()]
                child = self._crossover(pa, pb, rng)
                if child == pa or rng.random() < self.mutation_rate:
                    child = self.space.mutate(child, rng)
                offspring.append(child)
            prefetch(accuracy_fn, offspring)
            prefetch(perf_fn, offspring)
            for arch in offspring:
                evaluate(arch)

            merged = population + offspring
            merged_points = np.asarray([evaluated[a] for a in merged])
            survivors: list = []
            for front in non_dominated_sort(merged_points, maximize):
                if len(survivors) + len(front) <= self.population_size:
                    survivors.extend(int(i) for i in front)
                else:
                    slots = self.population_size - len(survivors)
                    crowd = crowding_distance(merged_points[front], maximize)
                    order = np.argsort(-crowd)[:slots]
                    survivors.extend(int(front[int(k)]) for k in order)
                    break
            population = [merged[i] for i in survivors]
        return result

    def run(self, objective, budget: int):
        """Uni-objective fallback: treats the objective as both dimensions."""
        result = self.run_biobjective(
            accuracy_fn=objective, perf_fn=lambda a: 1.0, budget=budget
        )
        from repro.optimizers.base import SearchResult

        out = SearchResult()
        for arch, acc in zip(result.archs, result.accuracies):
            out.record(arch, acc)
        return out
