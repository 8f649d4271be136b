"""Seeded input generators: the only place a workload seed is turned into data.

Every generator is a pure function of ``(seed, ...)``: the same seed gives
the same inputs, and each purpose draws from its own
``SeedSequence([seed, purpose, ...])`` stream so adding a draw to one
workload never shifts another's inputs.  The programs under test receive
only what these functions return.
"""

from __future__ import annotations

import numpy as np

from repro.hwsim.registry import DEVICE_METRICS
from repro.searchspace.mnasnet import ArchSpec, MnasNetSearchSpace

_BUILD, _PROBE, _SEARCH, _SCREEN, _SERVE_HOT, _SERVE_NEW, _CHECK = range(7)

# Every (device, metric) target the paper's store serves, in a fixed order.
TARGETS: tuple[tuple[str, str], ...] = tuple(
    sorted((d, m) for d, metrics in DEVICE_METRICS.items() for m in metrics)
)


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(w) for w in words]))


def unique_archs(n: int, *words: int) -> list[ArchSpec]:
    """``n`` distinct architectures drawn from the stream ``words``."""
    return MnasNetSearchSpace().sample_batch(n, rng=_rng(*words), unique=True)


def build_sample_seed(seed: int) -> int:
    """Sample seed handed to ``AccelNASBench.build``."""
    return int(_rng(seed, _BUILD).integers(1, 2**31 - 1))


def probe_archs(seed: int, n: int) -> list[ArchSpec]:
    """Architectures whose answers are compared across two benchmarks."""
    return unique_archs(n, seed, _PROBE)


def search_plan(seed: int, cycle: int) -> dict:
    """Optimizer seeds and device targets for one search cycle.

    The bi-objective targets rotate with the seed and the cycle, so
    different seeds exercise different device surrogates.
    """
    rng = _rng(seed, _SEARCH, cycle)
    first = int(rng.integers(0, len(TARGETS)))
    return {
        "optimizer_seed": int(rng.integers(0, 2**31 - 1)),
        "nsga2_target": TARGETS[first],
        "reinforce_target": TARGETS[(first + 1 + cycle) % len(TARGETS)],
    }


def screen_pool(seed: int, pass_index: int, n: int) -> list[ArchSpec]:
    """A fresh pool of ``n`` unique architectures for one screening pass."""
    return unique_archs(n, seed, _SCREEN, pass_index)


def check_indices(seed: int, n: int, k: int) -> list[int]:
    """``k`` sorted distinct indices below ``n`` for spot checks."""
    rng = _rng(seed, _CHECK, n)
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


class ServeSchedule:
    """The request sequence of the ``serve`` workload.

    Request ``k`` is a hot-set key when ``k % 5`` is 0 or 2 (two in five)
    and a never-seen architecture otherwise.  The hot set is smaller than
    the server's response cache, so after warm-up every hot request is a
    cache hit and every new one a miss.  The share is two in five rather
    than one half so that the median latency sits inside the miss mode
    instead of on the edge between the two modes, where it would jump
    between runs.  Targets rotate over all eight device surrogates.
    """

    HOT_EVERY = 5
    HOT_SLOTS = (0, 2)

    def __init__(self, seed: int, hot_keys: int) -> None:
        self.seed = seed
        hot = unique_archs(hot_keys, seed, _SERVE_HOT)
        self.hot = [
            (arch.to_string(),) + TARGETS[i % len(TARGETS)]
            for i, arch in enumerate(hot)
        ]
        self._fresh_rng = _rng(seed, _SERVE_NEW)
        self._space = MnasNetSearchSpace()
        self._seen = {arch for arch in hot}
        self._fresh: list[tuple[str, str, str]] = []

    def _fresh_key(self, index: int) -> tuple[str, str, str]:
        while len(self._fresh) <= index:
            arch = self._space.sample(self._fresh_rng)
            if arch in self._seen:
                continue
            self._seen.add(arch)
            target = TARGETS[len(self._fresh) % len(TARGETS)]
            self._fresh.append((arch.to_string(),) + target)
        return self._fresh[index]

    def key(self, k: int) -> tuple[str, str, str]:
        """(arch string, device, metric) of request ``k``."""
        block, slot = divmod(k, self.HOT_EVERY)
        if slot in self.HOT_SLOTS:
            n_hot = len(self.HOT_SLOTS)
            return self.hot[(block * n_hot + self.HOT_SLOTS.index(slot)) % len(self.hot)]
        n_new = self.HOT_EVERY - len(self.HOT_SLOTS)
        new_slot = slot - sum(1 for s in self.HOT_SLOTS if s < slot)
        return self._fresh_key(block * n_new + new_slot)

    def is_hot(self, k: int) -> bool:
        return k % self.HOT_EVERY in self.HOT_SLOTS

    def prepare(self, n: int) -> None:
        """Draw the keys of the first ``n`` requests ahead of timing."""
        for k in range(n):
            self.key(k)
