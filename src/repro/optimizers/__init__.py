"""Discrete NAS optimizers used to evaluate Accel-NASBench.

Implements the three optimizers of the paper's Fig. 5 — Random Search
(Li & Talwalkar), Regularized Evolution (Real et al.) and REINFORCE
(Zoph & Le) — plus the bi-objective REINFORCE with the MnasNet
accuracy-performance reward used in Fig. 4, and two extensions (greedy local
search and successive halving) for ablations.
"""

from repro.optimizers.base import BatchedObjective, Optimizer, SearchResult, prefetch
from repro.optimizers.random_search import RandomSearch
from repro.optimizers.evolution import RegularizedEvolution
from repro.optimizers.reinforce import (
    BiObjectiveResult,
    CategoricalPolicy,
    Reinforce,
    mnas_reward,
)
from repro.optimizers.local_search import LocalSearch
from repro.optimizers.nsga2 import Nsga2
from repro.optimizers.bo_nas import BoNas
from repro.optimizers.hyperband import Hyperband
from repro.optimizers.successive_halving import SuccessiveHalving

__all__ = [
    "BatchedObjective",
    "BiObjectiveResult",
    "BoNas",
    "Nsga2",
    "CategoricalPolicy",
    "Hyperband",
    "LocalSearch",
    "Optimizer",
    "RandomSearch",
    "RegularizedEvolution",
    "Reinforce",
    "SearchResult",
    "SuccessiveHalving",
    "mnas_reward",
    "prefetch",
]
