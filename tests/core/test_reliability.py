"""Unit tests for the reliability layer (faults, retries, journal, integrity)."""

import json
import math
import os

import pytest

from repro.core.reliability import (
    ArtifactIntegrityError,
    CircuitBreaker,
    CircuitOpen,
    CollectionError,
    Deadline,
    DeadlineExceeded,
    FailureRecord,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    Journal,
    MeasurementTimeout,
    NonFiniteResult,
    RetryPolicy,
    atomic_write,
    payload_checksum,
    read_artifact,
    run_tasks,
    write_artifact,
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic timing tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("nan", rate=1.5)

    def test_key_filter(self):
        spec = FaultSpec("crash", keys=["a"])
        assert spec.eligible("a", 0)
        assert not spec.eligible("b", 0)

    def test_attempt_window(self):
        spec = FaultSpec("timeout", max_attempt=2)
        assert spec.eligible("k", 0) and spec.eligible("k", 1)
        assert not spec.eligible("k", 2)

    @pytest.mark.parametrize("max_attempt", [0, -2])
    def test_empty_attempt_window_rejected(self, max_attempt):
        with pytest.raises(ValueError, match="must be >= 1"):
            FaultSpec("timeout", max_attempt=max_attempt)


class TestFaultPlan:
    def test_deterministic_across_instances(self):
        a = FaultPlan([FaultSpec("nan", rate=0.5)], seed=7)
        b = FaultPlan([FaultSpec("nan", rate=0.5)], seed=7)
        keys = [f"arch-{i}" for i in range(200)]
        assert [a.fault_for(k) for k in keys] == [b.fault_for(k) for k in keys]

    def test_seed_changes_decisions(self):
        keys = [f"arch-{i}" for i in range(200)]
        a = FaultPlan([FaultSpec("nan", rate=0.5)], seed=0)
        b = FaultPlan([FaultSpec("nan", rate=0.5)], seed=1)
        assert [a.fault_for(k) for k in keys] != [b.fault_for(k) for k in keys]

    def test_rate_zero_never_fires(self):
        plan = FaultPlan([FaultSpec("nan", rate=0.0)])
        assert all(plan.fault_for(f"k{i}") is None for i in range(100))

    def test_rate_one_always_fires(self):
        plan = FaultPlan([FaultSpec("nan", rate=1.0)])
        assert all(plan.fault_for(f"k{i}") is not None for i in range(100))

    def test_rate_is_roughly_honoured(self):
        plan = FaultPlan([FaultSpec("nan", rate=0.3)], seed=11)
        hits = sum(plan.fault_for(f"k{i}") is not None for i in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_apply_crash_raises(self):
        plan = FaultPlan.crash_on(["victim"])
        with pytest.raises(InjectedCrash) as info:
            plan.apply("victim", 1.0)
        assert info.value.key == "victim"
        assert plan.apply("other", 1.0) == pytest.approx(1.0)

    def test_apply_timeout_raises(self):
        plan = FaultPlan([FaultSpec("timeout", keys=["t"])])
        with pytest.raises(MeasurementTimeout):
            plan.apply("t", 1.0)

    def test_apply_value_faults(self):
        nan_plan = FaultPlan([FaultSpec("nan")])
        assert math.isnan(nan_plan.apply("k", 0.7))
        inf_plan = FaultPlan([FaultSpec("inf")])
        assert math.isinf(inf_plan.apply("k", 0.7))
        spike = FaultPlan([FaultSpec("spike", spike_factor=10.0)])
        assert spike.apply("k", 2.0) == pytest.approx(20.0)

    def test_first_firing_spec_wins(self):
        plan = FaultPlan([FaultSpec("nan"), FaultSpec("timeout")])
        assert math.isnan(plan.apply("k", 1.0))

    def test_from_string(self):
        plan = FaultPlan.from_string("nan:0.25, timeout:1.0@2, crash", seed=3)
        assert [s.kind for s in plan.specs] == ["nan", "timeout", "crash"]
        assert plan.specs[0].rate == pytest.approx(0.25)
        assert plan.specs[1].max_attempt == 2
        assert plan.specs[2].rate == pytest.approx(1.0)
        assert plan.seed == 3

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.from_string("nan:lots")

    @pytest.mark.parametrize("text", ["timeout:1.0@0", "timeout:1.0@-2", "nan:0.5@0"])
    def test_from_string_rejects_empty_window(self, text):
        with pytest.raises(ValueError, match="must be >= 1"):
            FaultPlan.from_string(text)


class TestRetryPolicy:
    def _recording(self, **kwargs):
        sleeps = []
        policy = RetryPolicy(sleep=sleeps.append, **kwargs)
        return policy, sleeps

    def test_success_first_try_never_sleeps(self):
        policy, sleeps = self._recording(max_attempts=5)
        assert policy.run(lambda attempt: 42.0, "k") == pytest.approx(42.0)
        assert sleeps == []

    def test_retries_transient_then_succeeds(self):
        policy, sleeps = self._recording(max_attempts=3)
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise MeasurementTimeout("k", attempt)
            return 7.0

        assert policy.run(flaky, "k") == pytest.approx(7.0)
        assert calls == [0, 1, 2]
        assert len(sleeps) == 2

    def test_exhaustion_raises_last_error(self):
        policy, sleeps = self._recording(max_attempts=2)

        def always(attempt):
            raise MeasurementTimeout("k", attempt)

        with pytest.raises(MeasurementTimeout):
            policy.run(always, "k")
        assert len(sleeps) == 1  # no sleep after the final attempt

    def test_crash_is_not_retried(self):
        policy, sleeps = self._recording(max_attempts=5)

        def crash(attempt):
            raise InjectedCrash("k", attempt)

        with pytest.raises(InjectedCrash):
            policy.run(crash, "k")
        assert sleeps == []

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=1.0, backoff=2.0, max_delay=3.0, jitter=0.0
        )
        assert policy.delay("k", 0) == pytest.approx(1.0)
        assert policy.delay("k", 1) == pytest.approx(2.0)
        assert policy.delay("k", 2) == pytest.approx(3.0)  # capped
        assert policy.delay("k", 9) == pytest.approx(3.0)

    def test_jitter_is_seeded_and_per_key(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5, seed=0)
        again = RetryPolicy(base_delay=1.0, jitter=0.5, seed=0)
        assert policy.delay("a", 0) == pytest.approx(again.delay("a", 0))
        delays = {round(policy.delay(f"k{i}", 0), 12) for i in range(32)}
        assert len(delays) > 1  # decorrelated across keys
        other_seed = RetryPolicy(base_delay=1.0, jitter=0.5, seed=9)
        some_differ = any(
            abs(policy.delay(f"k{i}", 0) - other_seed.delay(f"k{i}", 0)) > 1e-12
            for i in range(32)
        )
        assert some_differ

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestFailureRecord:
    def test_roundtrip(self):
        record = FailureRecord("arch", "MeasurementTimeout", "boom", 3)
        assert FailureRecord.from_dict(record.to_dict()) == record


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc") as journal:
            journal.append("a", 0.5)
            journal.append("b", 0.625)
        replayed = Journal(path, dataset="ANB-Acc").replay()
        assert replayed == {"a": 0.5, "b": 0.625}

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert Journal(tmp_path / "nope.jsonl", dataset="x").replay() == {}

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc") as journal:
            journal.append("a", 0.5)
            journal.append("b", 0.625)
        text = path.read_text()
        path.write_text(text[: len(text) - 8])  # tear the last record
        replayed = Journal(path, dataset="ANB-Acc").replay()
        assert replayed == {"a": 0.5}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc") as journal:
            journal.append("a", 0.5)
            journal.append("b", 0.625)
        lines = path.read_text().splitlines()
        lines[1] = "{corrupt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactIntegrityError, match="line 2"):
            Journal(path, dataset="ANB-Acc").replay()

    def test_wrong_dataset_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc") as journal:
            journal.append("a", 0.5)
        with pytest.raises(ArtifactIntegrityError, match="belongs to dataset"):
            Journal(path, dataset="ANB-a100-Thr").replay()

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"whatever": 1}\n')
        with pytest.raises(ArtifactIntegrityError, match="not a collection journal"):
            Journal(path, dataset="ANB-Acc").replay()

    def test_appending_to_wrong_journal_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc") as journal:
            journal.append("a", 0.5)
        with pytest.raises(ArtifactIntegrityError):
            Journal(path, dataset="other").append("b", 1.0)

    def test_discard_removes_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = Journal(path, dataset="ANB-Acc")
        journal.append("a", 0.5)
        journal.discard()
        assert not path.exists()
        journal.discard()  # idempotent

    def test_fsync_mode(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc", fsync=True) as journal:
            journal.append("a", 0.5)
        assert Journal(path, dataset="ANB-Acc").replay() == {"a": 0.5}


class TestRunTasks:
    def test_plain_run(self):
        outcome = run_tasks(["a", "b"], lambda key, attempt: float(len(key)))
        assert outcome.values == {"a": 1.0, "b": 1.0}
        assert outcome.failures == [] and outcome.replayed == 0

    def test_nonfinite_rejected_and_gated(self):
        with pytest.raises(CollectionError):
            run_tasks(["a"], lambda key, attempt: float("nan"))

    def test_nonfinite_quarantined_below_gate(self):
        def task(key, attempt):
            return float("inf") if key == "bad" else 1.0

        outcome = run_tasks(
            ["good", "bad"], task, min_success_fraction=0.5
        )
        assert outcome.values == {"good": 1.0}
        assert [f.key for f in outcome.failures] == ["bad"]
        assert outcome.failures[0].error == "NonFiniteResult"

    def test_retry_heals_transient_fault(self):
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)

        def task(key, attempt):
            if attempt == 0:
                raise MeasurementTimeout(key, attempt)
            return 5.0

        outcome = run_tasks(["a"], task, retry_policy=policy)
        assert outcome.values == {"a": 5.0}

    def test_journal_resume_skips_done_work(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl", dataset="d")
        journal.append("a", 1.0)
        journal.close()
        computed = []

        def task(key, attempt):
            computed.append(key)
            return 2.0

        journal = Journal(tmp_path / "j.jsonl", dataset="d")
        outcome = run_tasks(["a", "b"], task, journal=journal, resume=True)
        journal.close()
        assert computed == ["b"]
        assert outcome.values == {"a": 1.0, "b": 2.0}
        assert outcome.replayed == 1

    def test_fresh_run_discards_stale_journal(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl", dataset="d")
        journal.append("a", 111.0)
        journal.close()
        journal = Journal(tmp_path / "j.jsonl", dataset="d")
        outcome = run_tasks(
            ["a"], lambda key, attempt: 1.0, journal=journal, resume=False
        )
        journal.close()
        assert outcome.values == {"a": 1.0}
        assert outcome.replayed == 0

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            run_tasks([], lambda k, a: 0.0, min_success_fraction=2.0)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(path, "hello")
        assert path.read_text() == "hello"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write(path, "new")
        assert path.read_text() == "new"

    def test_interrupted_write_leaves_old_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        atomic_write(path, "precious")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write(path, "half-written garbage")
        assert path.read_text() == "precious"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
        assert leftovers == []  # temp file cleaned up


class TestArtifactEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = {"values": [1.0, 2.5], "name": "x"}
        write_artifact(path, payload, "anb-test", 1)
        assert read_artifact(path, "anb-test", 1) == payload

    def test_byte_stable(self, tmp_path):
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        write_artifact(one, {"b": 1, "a": 2}, "anb-test", 1)
        write_artifact(two, {"a": 2, "b": 1}, "anb-test", 1)
        assert one.read_bytes() == two.read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "anb-test", 1)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(ArtifactIntegrityError, match="not valid JSON") as info:
            read_artifact(path, "anb-test", 1)
        assert str(path) in str(info.value)

    def test_missing_envelope(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"name": "x", "values": []}))
        with pytest.raises(ArtifactIntegrityError, match="envelope"):
            read_artifact(path, "anb-test", 1)

    def test_schema_name_mismatch(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "anb-other", 1)
        with pytest.raises(
            ArtifactIntegrityError, match="'anb-other' found, expected 'anb-test'"
        ):
            read_artifact(path, "anb-test", 1)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "anb-test", 2)
        with pytest.raises(
            ArtifactIntegrityError, match="version 2 found, expected 1"
        ):
            read_artifact(path, "anb-test", 1)

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "anb-test", 1)
        envelope = json.loads(path.read_text())
        envelope["payload"]["x"] = 999  # tamper without updating the checksum
        path.write_text(json.dumps(envelope, sort_keys=True))
        with pytest.raises(ArtifactIntegrityError, match="sha256 mismatch"):
            read_artifact(path, "anb-test", 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            read_artifact(tmp_path / "ghost.json", "anb-test", 1)

    def test_checksum_is_canonical(self):
        assert payload_checksum({"a": 1, "b": 2}) == payload_checksum(
            {"b": 2, "a": 1}
        )


class TestDeadline:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            Deadline.after(-1.0)

    def test_remaining_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == 2.0
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-0.5)

    def test_check_raises_with_key_and_overrun(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.check("query")  # within budget: no-op
        clock.advance(1.25)
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("query")
        assert err.value.key == "query"
        assert err.value.overrun == pytest.approx(0.25)

    def test_zero_budget_expires_immediately(self):
        deadline = Deadline.after(0.0, clock=FakeClock())
        assert deadline.expired()


class TestRetryPolicyMaxElapsed:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_elapsed"):
            RetryPolicy(max_elapsed=-1.0)

    def test_budget_exhausted_mid_backoff_gives_up_without_sleeping(self):
        """The next backoff would blow the wall budget: raise now instead of
        sleeping into a deadline we already know we will miss."""
        clock = FakeClock()
        sleeps = []

        def sleeper(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        policy = RetryPolicy(
            max_attempts=5,
            base_delay=10.0,
            max_delay=10.0,
            jitter=0.0,
            max_elapsed=5.0,
            clock=clock,
            sleep=sleeper,
        )
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise MeasurementTimeout("task", attempt)

        with pytest.raises(MeasurementTimeout):
            policy.run(fn, "task")
        assert calls == [0]  # first attempt ran; no doomed retries
        assert sleeps == []  # and the exhausted budget was never slept into

    def test_budget_allows_early_retries_then_stops(self):
        clock = FakeClock()
        sleeps = []

        def sleeper(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        policy = RetryPolicy(
            max_attempts=10,
            base_delay=1.0,
            backoff=2.0,
            jitter=0.0,
            max_elapsed=2.5,
            clock=clock,
            sleep=sleeper,
        )
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise MeasurementTimeout("task", attempt)

        with pytest.raises(MeasurementTimeout):
            policy.run(fn, "task")
        # attempt 0 fails, backoff 1.0 fits (1.0 <= 2.5); attempt 1 fails,
        # backoff 2.0 would reach 3.0 > 2.5: stop.
        assert calls == [0, 1]
        assert sleeps == [1.0]

    def test_success_is_unaffected_by_budget(self):
        policy = RetryPolicy(max_elapsed=0.0, clock=FakeClock())
        assert policy.run(lambda attempt: 42.0, "task") == 42.0

    def test_within_adopts_deadline_budget_and_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(0.7, clock=clock)
        clock.advance(0.2)
        policy = RetryPolicy(seed=3).within(deadline)
        assert policy.max_elapsed == pytest.approx(0.5)
        assert policy.clock is clock
        assert policy.seed == 3  # everything else carried over

    def test_within_an_expired_deadline_clamps_to_zero(self):
        clock = FakeClock()
        deadline = Deadline.after(0.1, clock=clock)
        clock.advance(1.0)
        assert RetryPolicy().within(deadline).max_elapsed == 0.0


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=2):
        return CircuitBreaker(
            name="query",
            failure_threshold=threshold,
            recovery=RetryPolicy(base_delay=0.5, backoff=2.0, jitter=0.0),
            clock=clock,
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)

    def test_starts_closed_and_admits(self):
        breaker = self._breaker(FakeClock())
        assert breaker.state == "closed"
        breaker.allow()
        breaker.record_success()
        assert breaker.trips == 0

    def test_trips_after_consecutive_failures(self):
        breaker = self._breaker(FakeClock())
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        with pytest.raises(CircuitOpen) as err:
            breaker.allow()
        assert err.value.name == "query"
        assert err.value.retry_after == pytest.approx(0.5)

    def test_success_resets_the_consecutive_count(self):
        breaker = self._breaker(FakeClock(), threshold=2)
        breaker.allow()
        breaker.record_failure()
        breaker.allow()
        breaker.record_success()
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two in a row

    def test_cooldown_schedule_is_deterministic(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        recovery = RetryPolicy(base_delay=0.5, backoff=2.0, jitter=0.0)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(recovery.delay("query", 0))

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        clock.advance(0.6)  # past the 0.5 cooldown
        assert breaker.state == "half_open"
        breaker.allow()  # the probe
        with pytest.raises(CircuitOpen):
            breaker.allow()  # probe still in flight
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()  # closed again: freely admitting

    def test_failed_probe_reopens_with_longer_cooldown(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        first_cooldown = breaker.retry_after()
        clock.advance(0.6)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.retry_after() > first_cooldown  # backoff doubled

    def test_abandoned_probe_frees_the_slot_without_a_verdict(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        clock.advance(0.6)
        breaker.allow()  # probe admitted...
        breaker.record_abandon()  # ...but its deadline expired
        assert breaker.state == "half_open"  # no verdict either way
        breaker.allow()  # the next caller can probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_abandon_outside_half_open_is_a_no_op(self):
        breaker = self._breaker(FakeClock())
        breaker.allow()
        breaker.record_abandon()
        assert breaker.state == "closed"
        assert breaker.trips == 0


class TestJournalTornTailTelemetry:
    def _torn_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Journal(path, dataset="ANB-Acc") as journal:
            journal.append("a", 0.5)
            journal.append("b", 0.625)
        text = path.read_text()
        truncated = text[: len(text) - 8]
        path.write_text(truncated)
        torn_line = truncated.splitlines()[-1]
        offset = len(truncated.encode()) - len(torn_line.encode())
        return path, torn_line, offset

    def test_torn_tail_is_logged_with_byte_offset(self, tmp_path):
        import io

        import repro.obs as obs

        path, torn_line, offset = self._torn_journal(tmp_path)
        stream = io.StringIO()
        obs.configure(level="warning", json=True, stream=stream)
        try:
            replayed = Journal(path, dataset="ANB-Acc").replay()
        finally:
            obs.reset()
        assert replayed == {"a": 0.5}  # recovery behaviour unchanged
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        torn = [r for r in records if r["event"] == "journal.torn_tail"]
        assert len(torn) == 1
        assert torn[0]["level"] == "warning"
        assert torn[0]["path"] == str(path)
        assert torn[0]["byte_offset"] == offset
        assert torn[0]["torn_bytes"] == len(torn_line.encode())

    def test_torn_tail_is_silent_without_telemetry(self, tmp_path):
        import repro.obs as obs

        path, _, _ = self._torn_journal(tmp_path)
        obs.reset()
        assert not obs.telemetry_active()
        assert Journal(path, dataset="ANB-Acc").replay() == {"a": 0.5}
