"""Serving fault drills: parsing, determinism, windows, store truncation."""

import hashlib
import json
import shutil

import pytest

from repro.core.store import verify_store
from repro.core.reliability import (
    SERVE_FAULT_KINDS,
    ArtifactIntegrityError,
    FaultPlan,
    FaultSpec,
)
from repro.serve import truncate_shard


def drills(text, seed=0):
    return FaultPlan.from_string(text, seed=seed, kinds=SERVE_FAULT_KINDS)


# sha256 of every drill decision for "slow:0.3,error:0.2@500" over seeds
# 0-3, the three query endpoints and request indices 0-999, recorded from
# the serve-only drill plan before drills moved onto FaultPlan.
DRILL_DECISION_DIGEST = (
    "d2af038b9cb5a842e707806604fa41cc44f70fb82016fcac1b0e9cd62387e99f"
)


class TestDrillSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("slow", rate=1.5)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            FaultSpec("error", max_attempt=0)

    def test_window_eligibility(self):
        spec = FaultSpec("error", max_attempt=3)
        assert spec.eligible("query", 0)
        assert spec.eligible("query", 2)
        assert not spec.eligible("query", 3)


class TestDrillPlan:
    def test_from_string_round_trip(self):
        plan = drills("error:1.0@6,slow:0.25", seed=7)
        assert len(plan.specs) == 2
        assert plan.specs[0] == FaultSpec("error", rate=1.0, max_attempt=6)
        assert plan.specs[1] == FaultSpec("slow", rate=0.25)
        assert plan.seed == 7
        assert repr(plan) == "FaultPlan([error:1@6, slow:0.25], seed=7)"
        assert not drills("").specs

    def test_bad_spec_text_rejected(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            drills("error:often")

    def test_kinds_are_checked_per_plan(self):
        with pytest.raises(ValueError, match="unknown fault kind 'slow'"):
            FaultPlan.from_string("slow:1.0")
        with pytest.raises(ValueError, match="unknown fault kind 'nan'"):
            drills("nan:1.0")
        with pytest.raises(ValueError, match="unknown fault kind 'crash'"):
            FaultPlan([FaultSpec("crash")], kinds=SERVE_FAULT_KINDS)

    def test_error_window_trips_then_heals(self):
        plan = drills("error:1.0@6")
        assert all(plan.fires("error", "query", i) for i in range(6))
        assert not any(plan.fires("error", "query", i) for i in range(6, 20))

    def test_slow_drill_yields_configured_stall(self):
        plan = drills("slow:1.0@2")
        assert [plan.fires("slow", "query", i) for i in range(3)] == [
            True,
            True,
            False,
        ]
        assert not plan.fires("error", "query", 0)

    def test_decisions_are_seed_deterministic(self):
        a = drills("slow:0.5", seed=3)
        b = drills("slow:0.5", seed=3)
        decisions_a = [a.fires("slow", "query", i) for i in range(64)]
        decisions_b = [b.fires("slow", "query", i) for i in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seeds_diverge(self):
        a = drills("slow:0.5", seed=1)
        b = drills("slow:0.5", seed=2)
        assert [a.fires("slow", "q", i) for i in range(64)] != [
            b.fires("slow", "q", i) for i in range(64)
        ]

    def test_zero_rate_never_fires(self):
        plan = drills("error:0.0")
        assert not any(plan.fires("error", "query", i) for i in range(32))

    def test_decision_digest_is_pinned(self):
        decisions = []
        for seed in range(4):
            plan = drills("slow:0.3,error:0.2@500", seed=seed)
            for endpoint in ("query", "batch-query", "pareto"):
                for index in range(1000):
                    for kind in ("slow", "error"):
                        decisions.append(plan.fires(kind, endpoint, index))
        digest = hashlib.sha256(json.dumps(decisions).encode()).hexdigest()
        assert digest == DRILL_DECISION_DIGEST


class TestTruncateShard:
    def test_truncation_breaks_verification(self, serve_store, tmp_path):
        damaged = tmp_path / "damaged.store"
        shutil.copytree(serve_store, damaged)
        rel = truncate_shard(damaged)
        assert (damaged / rel).exists()
        with pytest.raises(ArtifactIntegrityError):
            verify_store(damaged)
        # The original store is untouched.
        verify_store(serve_store)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            truncate_shard(tmp_path)
