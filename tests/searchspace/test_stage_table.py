"""Exactness of the per-stage count tables against real graph builds."""

import numpy as np
import pytest

from repro.nn.counters import count_graph
from repro.searchspace import model_builder
from repro.searchspace.mnasnet import NUM_STAGES, ArchSpec
from repro.searchspace.model_builder import build_model
from repro.searchspace.stage_table import StageTable, decision_tensor, get_stage_table


def _uniform(e: int, k: int, layers: int, se: int) -> ArchSpec:
    return ArchSpec((e,) * NUM_STAGES, (k,) * NUM_STAGES, (layers,) * NUM_STAGES, (se,) * NUM_STAGES)


class TestTotals:
    @pytest.mark.parametrize("e", [1, 3, 4, 6])
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("se", [0, 1])
    def test_first_plus_repeats_equals_graph(self, e, k, se):
        """count(L) = first + (L - 1) * repeat, for every stage and L <= 7."""
        archs = [_uniform(e, k, layers, se) for layers in range(1, 8)]
        flops, params = get_stage_table().totals(decision_tensor(archs))
        for arch, f, p in zip(archs, flops.tolist(), params.tolist()):
            counters = count_graph(build_model(arch))
            assert (f, p) == (counters.flops, counters.params)

    def test_mixed_stages_equal_graph(self, some_archs):
        flops, params = get_stage_table().totals(decision_tensor(some_archs))
        assert flops.dtype == params.dtype == np.int64
        for arch, f, p in zip(some_archs, flops.tolist(), params.tolist()):
            counters = count_graph(build_model(arch))
            assert (f, p) == (counters.flops, counters.params)

    def test_empty(self):
        flops, params = get_stage_table().totals(decision_tensor([]))
        assert flops.shape == params.shape == (0,)

    def test_flops_for_equals_graph_flops(self, some_archs):
        off_grid = ArchSpec.from_string("|".join(["e7k9L4se1", "e2k1L1se0"] * 3 + ["e8k3L5se1"]))
        archs = list(some_archs[:20]) + [off_grid]
        flops = get_stage_table().flops_for(archs)
        assert flops.dtype == np.float64
        assert flops.tolist() == [float(count_graph(build_model(a)).flops) for a in archs]

    def test_counts_beyond_int64_raise(self):
        deep = _uniform(6, 5, 10**15, 1)
        with pytest.raises(ValueError, match="int64"):
            get_stage_table().totals(decision_tensor([deep]))

    def test_decision_beyond_int64_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            decision_tensor([_uniform(1, 3, 10**30, 0)])


class TestProbes:
    def test_probes_pack_missing_configs(self, space, monkeypatch):
        """One L = 2 build serves a new config in each of the seven stages."""
        calls = []

        def counting_build(arch, *args, **kwargs):
            calls.append(arch)
            return build_model(arch, *args, **kwargs)

        monkeypatch.setattr(model_builder, "build_model", counting_build)
        table = StageTable()
        archs = space.sample_batch(500, rng=np.random.default_rng(7), unique=True)
        table.totals(decision_tensor(archs[:1]))
        assert len(calls) == 1
        table.totals(decision_tensor(archs))
        table.totals(decision_tensor(archs))
        # Every stage sees all 12 in-grid (e, k, se) configs; 11 were new.
        assert len(calls) == 1 + 11
        assert all(a.layers == (2,) * NUM_STAGES for a in calls)
        table.totals(decision_tensor([_uniform(5, 9, 3, 1)]))
        assert len(calls) == 13

    def test_shared_table_per_resolution(self):
        assert get_stage_table(224) is get_stage_table(224)
        assert get_stage_table(192) is not get_stage_table(224)
        assert get_stage_table(192).resolution == 192
