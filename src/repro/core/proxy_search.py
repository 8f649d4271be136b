"""Training-proxy search (paper Eq. 1 and section 3.2).

Maximise the Kendall tau rank correlation between architecture accuracies
under a candidate proxified scheme ``p`` and under the reference scheme ``r``,
subject to the mean per-model training time of ``p`` staying below ``t_spec``:

    max_p  tau(A_p, A_r)    s.t.  t_p <= t_spec

The search is a grid search over the categorical scheme hyperparameters (the
paper's choice, for its parallelism), evaluated on a small grid of ``n = 20``
architectures stratified by FLOPs so the grid spans the search space's
complexity range.  Early stopping triggers once a scheme reaches the target
tau within the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import kendall_tau
from repro.searchspace.mnasnet import ArchSpec, MnasNetSearchSpace
from repro.searchspace.stage_table import decision_tensor, get_stage_table
from repro.trainsim.schemes import (
    REFERENCE_SCHEME,
    TrainingScheme,
    proxy_scheme_candidates,
)
from repro.trainsim.trainer import SimulatedTrainer


def flops_stratified_grid(
    n: int = 20,
    seed: int = 0,
    pool_size: int = 2000,
    space: MnasNetSearchSpace | None = None,
) -> list[ArchSpec]:
    """Sample ``n`` architectures spread evenly over the FLOPs range.

    Draws a large random pool, sorts by FLOPs, and picks one architecture per
    FLOPs quantile bin — the paper's "uniform grid ... selected based on FLOPs
    and # parameters" representation of the search space.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 architectures")
    space = space if space is not None else MnasNetSearchSpace()
    rng = np.random.default_rng(seed)
    pool = space.sample_batch(pool_size, rng=rng, unique=True)
    flops, _ = get_stage_table().totals(decision_tensor(pool))
    order = np.argsort(flops)
    bin_edges = np.linspace(0, len(pool), n + 1).astype(int)
    grid = []
    for lo, hi in zip(bin_edges[:-1], bin_edges[1:]):
        pick = order[int(rng.integers(lo, max(hi, lo + 1)))]
        grid.append(pool[pick])
    return grid


@dataclass
class SchemeEvaluation:
    """Evaluation of one candidate scheme on the architecture grid.

    ``verified_tau`` is the tau on the held-out verification batch, filled in
    only for schemes that passed the grid-tau screen (see
    :meth:`TrainingProxySearch.search`).
    """

    scheme: TrainingScheme
    tau: float
    mean_hours: float
    speedup: float
    feasible: bool
    verified_tau: float | None = None


@dataclass
class ProxySearchResult:
    """Outcome of a training-proxy search.

    Attributes:
        best_scheme: The scheme ``p*`` (highest tau among feasible schemes).
        best: Its evaluation record.
        evaluations: Every evaluated scheme, in evaluation order.
        reference_hours: Mean per-model GPU-hours of the reference scheme.
    """

    best_scheme: TrainingScheme
    best: SchemeEvaluation
    evaluations: list[SchemeEvaluation] = field(default_factory=list)
    reference_hours: float = 0.0

    @property
    def num_evaluated(self) -> int:
        return len(self.evaluations)


class TrainingProxySearch:
    """Grid search for the proxified training scheme ``p*``.

    Args:
        trainer: Simulated trainer used for all runs.
        reference: Reference scheme ``r`` (default: the timm-style recipe).
        t_spec: Mean per-model GPU-hours budget for feasible schemes.
        grid_archs: Architecture evaluation grid; default is the n=20
            FLOPs-stratified grid.
        seeds: Training seeds per (arch, scheme) evaluation.  With only 20
            grid architectures a single-seed tau estimate is noisy enough
            that grid search suffers winner's curse (a lucky cheap scheme
            wins the search but validates poorly), so the default averages
            three seeds like the Fig. 3 validation protocol.
    """

    def __init__(
        self,
        trainer: SimulatedTrainer | None = None,
        reference: TrainingScheme = REFERENCE_SCHEME,
        t_spec: float = 3.0,
        grid_archs: list[ArchSpec] | None = None,
        seeds: tuple[int, ...] = (0, 1, 2),
    ) -> None:
        if t_spec <= 0:
            raise ValueError("t_spec must be positive")
        self.trainer = trainer if trainer is not None else SimulatedTrainer()
        self.reference = reference
        self.t_spec = t_spec
        self.grid_archs = (
            grid_archs if grid_archs is not None else flops_stratified_grid()
        )
        self.seeds = seeds
        self._ref_accs: np.ndarray | None = None
        self._hours_cache: dict[TrainingScheme, float] = {}
        self._verify_archs: list[ArchSpec] | None = None
        self._verify_ref: np.ndarray | None = None

    def _accuracies(self, scheme: TrainingScheme) -> np.ndarray:
        """Mean accuracy of every grid architecture under ``scheme``."""
        return np.asarray(
            [
                np.mean(
                    [self.trainer.train(a, scheme, s).top1 for s in self.seeds]
                )
                for a in self.grid_archs
            ]
        )

    def _mean_hours(self, scheme: TrainingScheme) -> float:
        if scheme not in self._hours_cache:
            self._hours_cache[scheme] = float(
                np.mean(
                    [
                        self.trainer.cost_model.train_time_hours(a, scheme)
                        for a in self.grid_archs
                    ]
                )
            )
        return self._hours_cache[scheme]

    @property
    def reference_accuracies(self) -> np.ndarray:
        """Grid accuracies under the reference scheme (computed once)."""
        if self._ref_accs is None:
            self._ref_accs = self._accuracies(self.reference)
        return self._ref_accs

    def evaluate_scheme(self, scheme: TrainingScheme) -> SchemeEvaluation:
        """Evaluate one candidate: tau against reference + mean train time."""
        accs = self._accuracies(scheme)
        tau = kendall_tau(accs, self.reference_accuracies)
        hours = self._mean_hours(scheme)
        ref_hours = self._mean_hours(self.reference)
        return SchemeEvaluation(
            scheme=scheme,
            tau=tau,
            mean_hours=hours,
            speedup=ref_hours / hours,
            feasible=hours <= self.t_spec,
        )

    def _verification_batch(self) -> list[ArchSpec]:
        """Held-out random architectures used to confirm a screening winner.

        A *random* (unstratified) sample is deliberately used here: the
        FLOPs-stratified grid spreads accuracies wide, which inflates its tau
        estimate relative to the random architectures a benchmark dataset
        will actually contain.
        """
        if self._verify_archs is None:
            space = MnasNetSearchSpace(seed=777)
            grid_set = set(self.grid_archs)
            batch = [
                a
                for a in space.sample_batch(len(self.grid_archs) + 10, unique=True)
                if a not in grid_set
            ]
            self._verify_archs = batch[: len(self.grid_archs)]
        return self._verify_archs

    def _verified_tau(self, scheme: TrainingScheme) -> float:
        archs = self._verification_batch()
        proxy = [
            np.mean([self.trainer.train(a, scheme, s).top1 for s in self.seeds])
            for a in archs
        ]
        if self._verify_ref is None:
            self._verify_ref = np.asarray(
                [
                    np.mean(
                        [
                            self.trainer.train(a, self.reference, s).top1
                            for s in self.seeds
                        ]
                    )
                    for a in archs
                ]
            )
        return kendall_tau(proxy, self._verify_ref)

    def search(
        self,
        candidates: list[TrainingScheme] | None = None,
        early_stop_tau: float | None = None,
        max_evaluations: int | None = None,
        verify_margin: float = 0.03,
    ) -> ProxySearchResult:
        """Run the grid search and return ``p*``.

        A scheme whose grid tau clears ``early_stop_tau`` is *verified* on a
        held-out random batch before the search stops: with hundreds of
        candidates and only 20 grid architectures, screening alone suffers
        winner's curse (a lucky cheap scheme wins the screen but ranks poorly
        in validation).  Verification must come within ``verify_margin`` of
        the threshold to accept.

        Args:
            candidates: Candidate schemes; defaults to the full categorical
                grid, ordered cheapest-first (so early stopping favours cheap
                schemes, mirroring the parallel-grid-with-early-stop setup).
            early_stop_tau: Stop as soon as a feasible scheme reaches this tau
                on the grid *and* survives held-out verification.
            max_evaluations: Optional cap on evaluated schemes.
            verify_margin: Allowed shortfall of verified tau vs the threshold.
        """
        if candidates is None:
            candidates = proxy_scheme_candidates()
            candidates.sort(key=self._mean_hours)
        if not candidates:
            raise ValueError("no candidate schemes to evaluate")
        evaluations: list[SchemeEvaluation] = []
        best: SchemeEvaluation | None = None
        for scheme in candidates:
            ev = self.evaluate_scheme(scheme)
            evaluations.append(ev)
            if ev.feasible and early_stop_tau is not None and ev.tau >= early_stop_tau:
                ev.verified_tau = self._verified_tau(scheme)
            if ev.feasible and (best is None or self._rank_key(ev) > self._rank_key(best)):
                best = ev
            if (
                early_stop_tau is not None
                and ev.feasible
                and ev.verified_tau is not None
                and ev.verified_tau >= early_stop_tau - verify_margin
            ):
                best = ev
                break
            if max_evaluations is not None and len(evaluations) >= max_evaluations:
                break
        if best is None:
            raise RuntimeError(
                f"no feasible scheme under t_spec={self.t_spec} GPU-hours"
            )
        return ProxySearchResult(
            best_scheme=best.scheme,
            best=best,
            evaluations=evaluations,
            reference_hours=self._mean_hours(self.reference),
        )

    @staticmethod
    def _rank_key(ev: SchemeEvaluation) -> float:
        """Verified tau outranks unverified grid tau when available."""
        return ev.verified_tau if ev.verified_tau is not None else ev.tau - 0.05

    def validate(
        self,
        scheme: TrainingScheme,
        archs: list[ArchSpec],
        seeds: tuple[int, ...] = (0, 1, 2),
    ) -> dict:
        """Fig. 3 protocol: 3-seed mean accuracies on unseen architectures.

        Returns a dict with per-arch mean/std accuracy under both schemes and
        the validation Kendall tau.
        """
        proxy_mu, proxy_sd, ref_mu, ref_sd = [], [], [], []
        for arch in archs:
            mu, sd, _ = self.trainer.train_mean(arch, scheme, seeds)
            proxy_mu.append(mu)
            proxy_sd.append(sd)
            mu, sd, _ = self.trainer.train_mean(arch, self.reference, seeds)
            ref_mu.append(mu)
            ref_sd.append(sd)
        return {
            "proxy_mean": np.asarray(proxy_mu),
            "proxy_std": np.asarray(proxy_sd),
            "reference_mean": np.asarray(ref_mu),
            "reference_std": np.asarray(ref_sd),
            "tau": kendall_tau(proxy_mu, ref_mu),
        }
