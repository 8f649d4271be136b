"""Fault-tolerant collection: fault injection, retries, journaling, integrity.

The paper's dataset campaign — 5.2k ImageNet trainings plus measurements on
six accelerators — is a long-running, preemptible, partially flaky workload.
This module is the reliability layer that lets a collection run survive it:

- :class:`FaultPlan` — *deterministic, seeded* fault injection (crash, NaN,
  inf, measurement timeout, outlier spike) that :class:`~repro.trainsim.trainer.
  SimulatedTrainer` and :class:`~repro.hwsim.measure.MeasurementHarness`
  consult, so every robustness behaviour is testable and reproducible.
- :class:`RetryPolicy` — bounded attempts with exponential backoff and
  hash-seeded jitter; the sleep function is injectable so tests run
  deterministically and sleep-free.
- :class:`Journal` — a JSONL write-ahead journal of completed
  ``(key, value)`` records.  A run killed mid-collection resumes by
  replaying the journal and computing only the missing work; because every
  task is seeded by its key alone, the resumed artefacts are byte-identical
  to an uninterrupted run.
- :func:`run_tasks` — the collection runner combining all of the above with
  a quarantine list of structured :class:`FailureRecord` s and a
  minimum-success-fraction gate for graceful degradation.
- :class:`Deadline` / :class:`CircuitBreaker` — wall-clock budgets and a
  closed→open→half-open breaker with seeded-deterministic probe
  scheduling; the primitives behind the serving layer (:mod:`repro.serve`)
  and reusable by the future async search executor.
- :func:`atomic_write` / :func:`write_artifact` / :func:`read_artifact` —
  torn-write-proof persistence (temp file + fsync + rename) with a sha256
  checksum and schema version validated on load, surfacing corruption as a
  clear :class:`ArtifactIntegrityError` instead of a bare ``KeyError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import repro.obs as obs
from repro.core.parallel import chunked_map

FAULT_KINDS = ("crash", "nan", "inf", "timeout", "spike")

ARTIFACT_ENVELOPE_KEYS = ("payload", "schema", "schema_version", "sha256")


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------


class ReliabilityError(Exception):
    """Base class for all reliability-layer errors."""


class InjectedFault(ReliabilityError):
    """Base class for exceptions raised by an injected fault.

    Attributes:
        key: Task key the fault fired on.
        attempt: Zero-based attempt index the fault fired on.
    """

    def __init__(self, key: str, attempt: int, kind: str) -> None:
        super().__init__(f"injected {kind} fault on {key!r} (attempt {attempt})")
        self.key = key
        self.attempt = attempt
        self.kind = kind


class InjectedCrash(InjectedFault):
    """Simulated process death mid-task.

    Deliberately *not* retryable: it models the whole worker dying, so it
    aborts the run.  Completed work survives in the journal and the run is
    picked up again with ``resume=True``.
    """

    def __init__(self, key: str, attempt: int) -> None:
        super().__init__(key, attempt, "crash")


class MeasurementTimeout(InjectedFault):
    """Simulated device measurement timeout; transient and retryable."""

    def __init__(self, key: str, attempt: int) -> None:
        super().__init__(key, attempt, "timeout")


class NonFiniteResult(ReliabilityError):
    """A task produced NaN/inf; the record is rejected before it can poison
    a dataset.  Retryable — transient numeric faults may clear on retry."""

    def __init__(self, key: str, value: float) -> None:
        super().__init__(f"non-finite result {value!r} for {key!r}")
        self.key = key
        self.value = value


class DeadlineExceeded(ReliabilityError):
    """A request's wall-clock budget ran out before its work completed.

    Serving maps this to HTTP 504; the async search executor will reuse it
    for per-proposal budgets.

    Attributes:
        key: What the deadline covered (endpoint, task key...).
        overrun: Seconds past the deadline when it was detected (>= 0).
    """

    def __init__(self, key: str, overrun: float = 0.0) -> None:
        super().__init__(
            f"deadline exceeded for {key!r} ({overrun * 1e3:.1f} ms past budget)"
        )
        self.key = key
        self.overrun = overrun


class CircuitOpen(ReliabilityError):
    """A circuit breaker is open: the call was rejected without being tried.

    Attributes:
        name: Breaker name (e.g. the endpoint).
        retry_after: Seconds until the breaker schedules its next probe.
    """

    def __init__(self, name: str, retry_after: float) -> None:
        super().__init__(
            f"circuit {name!r} is open; retry after {retry_after:.3f}s"
        )
        self.name = name
        self.retry_after = retry_after


class ArtifactIntegrityError(ReliabilityError):
    """A persisted artifact failed validation on load.

    Attributes:
        path: The offending file.
        reason: Human-readable description of what failed (invalid JSON,
            missing envelope, schema mismatch, checksum mismatch...).
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = str(path)
        self.reason = reason


class CollectionError(ReliabilityError):
    """Too many tasks failed: the success fraction fell below the gate.

    Attributes:
        failures: Quarantined :class:`FailureRecord` s.
        success_fraction: Achieved fraction of successful tasks.
        min_success_fraction: The configured gate that was violated.
    """

    def __init__(
        self,
        failures: list["FailureRecord"],
        success_fraction: float,
        min_success_fraction: float,
    ) -> None:
        preview = ", ".join(f.key for f in failures[:3])
        if len(failures) > 3:
            preview += ", ..."
        super().__init__(
            f"{len(failures)} task(s) exhausted retries ({preview}); "
            f"success fraction {success_fraction:.3f} < required "
            f"{min_success_fraction:.3f}"
        )
        self.failures = failures
        self.success_fraction = success_fraction
        self.min_success_fraction = min_success_fraction


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def _unit_uniform(*parts: object) -> float:
    """Deterministic uniform draw in [0, 1) hashed from ``parts``.

    Uses blake2b rather than RNG state so concurrent callers never race and
    the decision for a given (seed, kind, key, attempt) is a pure function.
    """
    digest = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultSpec:
    """One kind of fault and when it fires.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        rate: Per-attempt firing probability in [0, 1]; the draw is a hash
            of ``(plan seed, kind, key, attempt)``, so it is reproducible
            and independent across tasks and attempts.
        keys: If given, the fault only ever fires on these task keys.
        max_attempt: If given, the fault only fires on attempts strictly
            below this bound — a *transient* fault that retries determinably
            cure.  ``None`` means every attempt is eligible.
        spike_factor: Multiplier applied by ``spike`` faults.
    """

    kind: str
    rate: float = 1.0
    keys: frozenset[str] | None = None
    max_attempt: int | None = None
    spike_factor: float = 25.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.max_attempt is not None and self.max_attempt < 1:
            raise ValueError(
                f"fault window (@N) must be >= 1, got {self.max_attempt}"
            )
        if self.keys is not None:
            object.__setattr__(self, "keys", frozenset(self.keys))

    def eligible(self, key: str, attempt: int) -> bool:
        """Whether this spec may fire at all for (key, attempt)."""
        if self.keys is not None and key not in self.keys:
            return False
        if self.max_attempt is not None and attempt >= self.max_attempt:
            return False
        return True


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    The plan is consulted by the simulators at the end of each task attempt
    with ``apply(key, value, attempt)``: the first eligible spec whose
    hash-seeded coin lands under its rate fires.  ``crash`` and ``timeout``
    raise (:class:`InjectedCrash` / :class:`MeasurementTimeout`); ``nan``,
    ``inf`` and ``spike`` corrupt the returned value instead.

    Identical plans make identical decisions across processes, platforms and
    thread schedules — every robustness behaviour in this repo is testable.

    Args:
        specs: Fault specs, evaluated in order (first firing wins).
        seed: Plan seed mixed into every firing decision.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s.kind}:{s.rate:g}" for s in self.specs
        )
        return f"FaultPlan([{inner}], seed={self.seed})"

    def fault_for(self, key: str, attempt: int = 0) -> FaultSpec | None:
        """The spec that fires for (key, attempt), or ``None``."""
        for spec in self.specs:
            if not spec.eligible(key, attempt):
                continue
            if _unit_uniform(self.seed, spec.kind, key, attempt) < spec.rate:
                return spec
        return None

    def apply(self, key: str, value: float, attempt: int = 0) -> float:
        """Pass ``value`` through the plan: raise or corrupt if a fault fires."""
        spec = self.fault_for(key, attempt)
        if spec is None:
            return value
        if spec.kind == "crash":
            raise InjectedCrash(key, attempt)
        if spec.kind == "timeout":
            raise MeasurementTimeout(key, attempt)
        if spec.kind == "nan":
            return float("nan")
        if spec.kind == "inf":
            return float("inf")
        return value * spec.spike_factor  # spike

    # ------------------------------------------------------------- builders

    @classmethod
    def crash_on(cls, keys: Sequence[str], seed: int = 0) -> "FaultPlan":
        """A plan that deterministically crashes on exactly these task keys."""
        return cls([FaultSpec("crash", rate=1.0, keys=frozenset(keys))], seed=seed)

    @classmethod
    def from_string(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"kind:rate,kind:rate"`` (e.g. ``"nan:0.05,timeout:0.1"``).

        An optional ``@N`` suffix bounds the fault to attempts below N
        (``"timeout:1.0@2"`` = time out the first two attempts, then heal).
        """
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, rest = part.partition(":")
            rate_text, _, window = rest.partition("@")
            try:
                rate = float(rate_text) if rate_text else 1.0
                max_attempt = int(window) if window else None
            except ValueError as exc:
                raise ValueError(f"bad fault spec {part!r}: {exc}") from exc
            specs.append(FaultSpec(kind.strip(), rate=rate, max_attempt=max_attempt))
        return cls(specs, seed=seed)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """A wall-clock budget on an injectable monotonic clock.

    Deadlines propagate *remaining budget*, not fixed timeouts: a request
    admitted with 100 ms left hands ~100 ms to the coalescer, which hands
    whatever is left to the worker, which bounds any retries by it
    (:meth:`RetryPolicy.within`).  The clock is injectable so every
    deadline behaviour is testable without sleeping.

    Attributes:
        expires_at: Absolute expiry on ``clock``'s timeline.
        clock: Zero-argument monotonic time source.
    """

    expires_at: float
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def after(
        cls, budget: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``budget`` seconds from now on ``clock``."""
        if budget < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget}")
        return cls(expires_at=clock() + budget, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self.clock()

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0.0

    def check(self, key: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceeded(key, overrun=-remaining)


# ---------------------------------------------------------------------------
# Retry + quarantine
# ---------------------------------------------------------------------------

RETRYABLE_ERRORS: tuple[type[BaseException], ...] = (
    MeasurementTimeout,
    NonFiniteResult,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    The backoff for attempt ``a`` (zero-based) is
    ``min(base_delay * backoff**a, max_delay)`` plus a jitter drawn
    uniformly from ``[0, jitter * delay)``, hash-seeded from
    ``(seed, key, attempt)`` — deterministic per task, decorrelated across
    tasks, and safe under any thread schedule.

    Attributes:
        max_attempts: Total attempts per task (1 = no retries).
        base_delay: First backoff in seconds.
        backoff: Multiplicative growth per attempt.
        max_delay: Backoff cap in seconds (pre-jitter).
        jitter: Jitter fraction of the capped delay.
        seed: Jitter seed.
        sleep: Injectable sleep; tests pass a recorder so the suite never
            actually sleeps.
        retryable: Exception types worth retrying.  :class:`InjectedCrash`
            is deliberately excluded — a dead process cannot retry itself.
        max_elapsed: Optional wall-clock budget in seconds across *all*
            attempts and backoffs.  Once spending the next backoff would
            leave the total elapsed time over this budget, retrying stops
            and the last error is raised — this is what keeps serve-side
            retries inside a request's remaining deadline.
        clock: Monotonic time source for the ``max_elapsed`` accounting
            (injectable, like ``sleep``).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep
    retryable: tuple[type[BaseException], ...] = RETRYABLE_ERRORS
    max_elapsed: float | None = None
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be >= 0")
        if self.max_elapsed is not None and self.max_elapsed < 0:
            raise ValueError("max_elapsed must be >= 0 (or None for no cap)")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retrying ``key`` after failed attempt ``attempt``."""
        base = min(self.base_delay * self.backoff**attempt, self.max_delay)
        return base * (1.0 + self.jitter * _unit_uniform(self.seed, key, attempt))

    def within(self, deadline: "Deadline") -> "RetryPolicy":
        """A copy of this policy whose wall budget is the deadline's remains.

        The returned policy shares the deadline's clock, so a request with
        40 ms left gets a retry loop that can never outlive those 40 ms.
        """
        remaining = deadline.remaining()
        return replace(
            self, max_elapsed=max(remaining, 0.0), clock=deadline.clock
        )

    def run(self, fn: Callable[[int], float], key: str) -> float:
        """Call ``fn(attempt)`` until success or attempts are exhausted.

        Raises the last retryable error once attempts run out — or once the
        ``max_elapsed`` wall budget cannot afford the next backoff;
        non-retryable errors (notably :class:`InjectedCrash`) propagate
        immediately.
        """
        last: BaseException | None = None
        start = self.clock() if self.max_elapsed is not None else 0.0
        for attempt in range(self.max_attempts):
            try:
                return fn(attempt)
            except self.retryable as exc:
                last = exc
                if attempt + 1 >= self.max_attempts:
                    break
                pause = self.delay(key, attempt)
                if self.max_elapsed is not None:
                    elapsed = self.clock() - start
                    if elapsed + pause > self.max_elapsed:
                        break  # budget exhausted mid-backoff: give up now
                self.sleep(pause)
        assert last is not None
        raise last


@dataclass(frozen=True)
class FailureRecord:
    """A task that exhausted its retries and landed in quarantine.

    Attributes:
        key: Task key (canonical architecture string).
        error: Exception class name of the final failure.
        message: Final failure message.
        attempts: Attempts consumed before quarantining.
    """

    key: str
    error: str
    message: str
    attempts: int

    def to_dict(self) -> dict:
        """JSON-serialisable form (stored in dataset ``meta``)."""
        return {
            "key": self.key,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            key=payload["key"],
            error=payload["error"],
            message=payload["message"],
            attempts=payload["attempts"],
        )


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """A closed → open → half-open circuit breaker with seeded cooldowns.

    Protects a downstream dependency (a surrogate, a store) from being
    hammered while it is failing: after ``failure_threshold`` consecutive
    failures the breaker *opens* and :meth:`allow` rejects calls instantly
    with :class:`CircuitOpen` (serving maps this to HTTP 503 +
    ``Retry-After``).  Once the cooldown elapses, the breaker goes
    *half-open* and admits exactly one probe call; a successful probe
    closes the circuit, a failed one re-opens it with a longer cooldown.

    Cooldowns are the :class:`RetryPolicy` backoff schedule evaluated at
    the trip count — ``recovery.delay(name, trips - 1)`` — so probe
    scheduling is hash-seeded and deterministic: identical failure
    histories produce identical probe times on any thread schedule, which
    is what makes every breaker drill reproducible.

    Thread-safe; the clock is injectable so tests never sleep.

    Args:
        name: Breaker identity (e.g. the endpoint); seeds the cooldown
            jitter and names :class:`CircuitOpen` errors.
        failure_threshold: Consecutive failures that trip a closed breaker.
        recovery: Backoff schedule for cooldowns; defaults to 0.5 s doubling
            up to 30 s.
        clock: Monotonic time source.
    """

    def __init__(
        self,
        name: str = "default",
        failure_threshold: int = 5,
        recovery: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery = (
            recovery
            if recovery is not None
            else RetryPolicy(base_delay=0.5, backoff=2.0, max_delay=30.0)
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._trips = 0
        self._opened_at = 0.0
        self._cooldown = 0.0
        self._probe_inflight = False

    # ------------------------------------------------------------ inspection

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open if the cooldown passed."""
        with self._lock:
            self._advance_locked()
            return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker has opened over its lifetime."""
        with self._lock:
            return self._trips

    def retry_after(self) -> float:
        """Seconds until the next probe is admitted (0 when not open)."""
        with self._lock:
            if self._state != BREAKER_OPEN:
                return 0.0
            return max(self._opened_at + self._cooldown - self._clock(), 0.0)

    # -------------------------------------------------------------- protocol

    def allow(self) -> None:
        """Admit one call or raise :class:`CircuitOpen`.

        Every admitted call must be concluded with :meth:`record_success`
        or :meth:`record_failure`; in the half-open state only a single
        probe is admitted until it concludes.
        """
        with self._lock:
            self._advance_locked()
            if self._state == BREAKER_CLOSED:
                return
            if self._state == BREAKER_HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return
            retry_after = max(
                self._opened_at + self._cooldown - self._clock(), 0.0
            )
            raise CircuitOpen(self.name, retry_after)

    def record_success(self) -> None:
        """Conclude an admitted call successfully (closes a half-open probe)."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_CLOSED
                self._probe_inflight = False

    def record_failure(self) -> None:
        """Conclude an admitted call as failed; may trip or re-open."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                self._trip_locked()
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()

    def record_abandon(self) -> None:
        """Conclude an admitted call without a verdict (e.g. deadline expiry).

        Frees a half-open probe slot so the next caller can probe, without
        counting as either success or failure — a request that ran out of
        budget says nothing about the dependency's health.
        """
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._probe_inflight = False

    # ------------------------------------------------------------- internals

    def _trip_locked(self) -> None:
        self._trips += 1
        self._state = BREAKER_OPEN
        self._probe_inflight = False
        self._opened_at = self._clock()
        # Deterministic, hash-seeded probe schedule: the cooldown after the
        # k-th trip is the recovery policy's backoff for attempt k-1.
        self._cooldown = self.recovery.delay(self.name, self._trips - 1)

    def _advance_locked(self) -> None:
        if (
            self._state == BREAKER_OPEN
            and self._clock() >= self._opened_at + self._cooldown
        ):
            self._state = BREAKER_HALF_OPEN
            self._probe_inflight = False


# ---------------------------------------------------------------------------
# Write-ahead journal
# ---------------------------------------------------------------------------

JOURNAL_SCHEMA = "anb-journal"
JOURNAL_VERSION = 1


class Journal:
    """An append-only JSONL write-ahead journal of completed task records.

    The first line is a header naming the dataset and journal schema; every
    subsequent line is one completed ``{"key": ..., "value": ...}`` record,
    flushed on append so a killed run loses at most the record being
    written.  :meth:`replay` tolerates a torn final line (the signature of a
    mid-write kill) but treats corruption anywhere else as an integrity
    error.

    Args:
        path: Journal file location (created on first append).
        dataset: Dataset name pinned in the header; replaying a journal
            under a different dataset name raises
            :class:`ArtifactIntegrityError` instead of silently poisoning
            the run with another dataset's values.
        fsync: fsync after every append (safest, slowest).  Flushing alone
            already survives process kills; fsync also survives OS crashes.
    """

    def __init__(
        self, path: str | Path, dataset: str, fsync: bool = False
    ) -> None:
        self.path = Path(path)
        self.dataset = dataset
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None

    # ------------------------------------------------------------ appending

    def _open_for_append(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            if not fresh:
                self.replay()  # validates the header before we append
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                header = {
                    "schema": JOURNAL_SCHEMA,
                    "schema_version": JOURNAL_VERSION,
                    "dataset": self.dataset,
                }
                self._write_line(header)
        return self._handle

    def _write_line(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, key: str, value: float) -> None:
        """Durably record one completed task; safe to call from workers."""
        with self._lock:
            self._open_for_append()
            self._write_line({"key": key, "value": float(value)})

    def discard(self) -> None:
        """Delete the journal file (fresh, non-resumed runs start clean)."""
        with self._lock:
            self._close_locked()
            with suppress(FileNotFoundError):
                self.path.unlink()

    # ------------------------------------------------------------- replaying

    def replay(self) -> dict[str, float]:
        """Completed ``key -> value`` records, validating the header.

        Raises:
            ArtifactIntegrityError: On a missing/mismatched header, a
                corrupt line anywhere but the tail, or a record with the
                wrong shape.  A torn *final* line is dropped silently —
                that is exactly what a mid-write kill leaves behind.
        """
        if not self.path.exists():
            return {}
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ArtifactIntegrityError(
                self.path, f"journal header is not valid JSON: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("schema") != JOURNAL_SCHEMA:
            raise ArtifactIntegrityError(
                self.path,
                f"not a collection journal (header schema "
                f"{header.get('schema') if isinstance(header, dict) else header!r}"
                f", expected {JOURNAL_SCHEMA!r})",
            )
        if header.get("schema_version") != JOURNAL_VERSION:
            raise ArtifactIntegrityError(
                self.path,
                f"journal schema version {header.get('schema_version')!r} "
                f"found, expected {JOURNAL_VERSION}",
            )
        if header.get("dataset") != self.dataset:
            raise ArtifactIntegrityError(
                self.path,
                f"journal belongs to dataset {header.get('dataset')!r}, "
                f"not {self.dataset!r}",
            )
        done: dict[str, float] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    # Torn final line: the mid-write kill signature.  The
                    # record is dropped (it will be recomputed), but the
                    # data loss is surfaced to operators instead of being
                    # swallowed silently.
                    if obs.telemetry_active():
                        offset = sum(
                            len(prev.encode("utf-8")) + 1
                            for prev in lines[: lineno - 1]
                        )
                        obs.get_logger("repro.core.reliability").warning(
                            "journal.torn_tail",
                            path=str(self.path),
                            line=lineno,
                            byte_offset=offset,
                            torn_bytes=len(line.encode("utf-8")),
                        )
                    break
                raise ArtifactIntegrityError(
                    self.path, f"corrupt journal record at line {lineno}: {exc}"
                ) from exc
            if (
                not isinstance(record, dict)
                or "key" not in record
                or "value" not in record
            ):
                raise ArtifactIntegrityError(
                    self.path,
                    f"malformed journal record at line {lineno}: {record!r}",
                )
            done[record["key"]] = float(record["value"])
        return done

    # ------------------------------------------------------------ lifecycle

    def _close_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Close the append handle (records already on disk stay valid)."""
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The collection runner
# ---------------------------------------------------------------------------


@dataclass
class CollectionOutcome:
    """What a fault-tolerant collection run produced.

    Attributes:
        values: Completed ``key -> value`` results (journal replay plus
            fresh computation).
        failures: Quarantined tasks, in input order.
        replayed: How many records came from the journal instead of work.
    """

    values: dict[str, float]
    failures: list[FailureRecord] = field(default_factory=list)
    replayed: int = 0

    def summary(self, label: str = "collect") -> dict:
        """Structured end-of-run summary for logging and CLI output.

        Returns counts per failure kind and the quarantined keys so a
        degraded run (``min_success_fraction < 1``) is visible instead of
        failing silently.
        """
        by_error: dict[str, int] = {}
        for record in self.failures:
            by_error[record.error] = by_error.get(record.error, 0) + 1
        total = len(self.values) + len(self.failures)
        return {
            "label": label,
            "total": total,
            "completed": len(self.values),
            "quarantined": len(self.failures),
            "replayed": self.replayed,
            "success_fraction": round(len(self.values) / total, 6) if total else 1.0,
            "failures_by_error": dict(sorted(by_error.items())),
            "quarantined_keys": [record.key for record in self.failures],
        }


def run_tasks(
    keys: Sequence[str],
    task: Callable[[str, int], float],
    n_jobs: int | None = 1,
    retry_policy: RetryPolicy | None = None,
    journal: Journal | None = None,
    resume: bool = False,
    min_success_fraction: float = 1.0,
    prepare: Callable[[list[str]], Callable[[str, int], float]] | None = None,
    label: str = "collect",
) -> CollectionOutcome:
    """Run ``task(key, attempt)`` for every key with retries + journaling.

    Each key's value must depend only on the key (and attempt-independent
    seeding), never on evaluation order — the same contract the thread-pool
    fan-out already relies on.  That is what makes a journal replay plus a
    partial recomputation byte-identical to an uninterrupted run.

    Results that are NaN/inf are rejected (``NonFiniteResult``) before they
    can reach a dataset; the rejection is retryable because injected or real
    numeric faults can be transient.

    Args:
        keys: Unique task keys, order-defining.
        task: ``(key, attempt) -> value``; may raise.
        n_jobs: Fan-out width (``-1`` = all CPUs, 1 = serial).
        retry_policy: Per-task retries; ``None`` = single attempt.
        journal: Write-ahead journal for completed records.
        resume: Replay an existing journal and compute only missing keys.
            With ``resume=False`` a pre-existing journal is discarded.
        min_success_fraction: Gate in [0, 1]; if the fraction of successful
            keys falls below it, :class:`CollectionError` is raised.
            ``1.0`` (default) means any quarantined task fails the run.
        prepare: Optional batch-precompute hook: called with the *pending*
            key list (after journal replay) and returns the task callable to
            actually run.  Batch kernels use this to compute all clean values
            in one vectorised pass and hand back a cheap per-key task that
            only applies fault injection — per-key retry, journaling, resume
            and quarantine semantics are untouched because the returned task
            still runs through the normal per-key machinery.
        label: Telemetry label naming this run in logs, spans and progress
            heartbeats (e.g. the dataset/target name).  Out-of-band only —
            it never influences computed values.

    Raises:
        CollectionError: Success fraction below ``min_success_fraction``.
        InjectedCrash: A crash fault fired (simulated process death); the
            journal retains all completed work.
    """
    if not 0.0 <= min_success_fraction <= 1.0:
        raise ValueError("min_success_fraction must be in [0, 1]")
    policy = retry_policy if retry_policy is not None else RetryPolicy(max_attempts=1)

    done: dict[str, float] = {}
    if journal is not None:
        if resume:
            done = journal.replay()
        else:
            journal.discard()

    pending = [key for key in keys if key not in done]
    replayed = len(keys) - len(pending)
    if prepare is not None and pending:
        task = prepare(list(pending))

    def attempt_once(key: str, attempt: int) -> float:
        value = task(key, attempt)
        if not math.isfinite(value):
            raise NonFiniteResult(key, value)
        return value

    def run_one(key: str) -> tuple[str, float] | FailureRecord:
        try:
            value = policy.run(lambda attempt: attempt_once(key, attempt), key)
        except policy.retryable as exc:
            return FailureRecord(
                key=key,
                error=type(exc).__name__,
                message=str(exc),
                attempts=policy.max_attempts,
            )
        if journal is not None:
            journal.append(key, value)
        return key, value

    # Telemetry is gated ONCE per run: with it off (the default), the
    # per-task path above runs with zero observability work, which is what
    # keeps the disabled overhead inside the benchmarked 2% bound.  With it
    # on, the plain closures are wrapped — values, ordering and artifact
    # bytes are identical either way (the out-of-band invariant).
    active = obs.telemetry_active()
    if active:
        log = obs.get_logger("repro.core.reliability")
        registry = obs.metrics()
        reporter = obs.ProgressReporter(total=len(pending), label=label)
        log.info(
            "collect.start",
            label=label,
            total=len(keys),
            pending=len(pending),
            replayed=replayed,
            max_attempts=policy.max_attempts,
        )
        if replayed:
            registry.inc("collect.replayed", replayed)
            log.info("collect.journal_replayed", label=label, replayed=replayed)

        plain_attempt_once = attempt_once
        plain_run_one = run_one

        def attempt_once(key: str, attempt: int) -> float:
            if attempt > 0:
                registry.inc("collect.retries")
                reporter.retry()
                log.debug("collect.retry", label=label, key=key, attempt=attempt)
            try:
                return plain_attempt_once(key, attempt)
            except policy.retryable as exc:
                log.debug(
                    "collect.task_error",
                    label=label,
                    key=key,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                raise

        def run_one(key: str) -> tuple[str, float] | FailureRecord:
            with obs.span("collect.task", label=label, key=key):
                result = plain_run_one(key)
            if isinstance(result, FailureRecord):
                registry.inc("collect.quarantined")
                reporter.quarantine()
                log.warning(
                    "collect.quarantine",
                    label=label,
                    key=result.key,
                    error=result.error,
                    attempts=result.attempts,
                )
            else:
                registry.inc("collect.tasks_completed")
            reporter.task_done()
            return result

    with obs.span("collect.run_tasks", label=label, total=len(keys)):
        results = chunked_map(run_one, pending, n_jobs=n_jobs)

    values = dict(done)
    failures: list[FailureRecord] = []
    for result in results:
        if isinstance(result, FailureRecord):
            failures.append(result)
        else:
            key, value = result
            values[key] = value

    outcome = CollectionOutcome(values=values, failures=failures, replayed=replayed)
    success_fraction = len(values) / len(keys) if keys else 1.0
    if active:
        reporter.finish()
        summary = outcome.summary(label)
        (log.warning if failures else log.info)("collect.summary", **summary)
    if failures and success_fraction < min_success_fraction:
        if active:
            log.error(
                "collect.gate_failed",
                label=label,
                success_fraction=round(success_fraction, 6),
                min_success_fraction=min_success_fraction,
                quarantined=len(failures),
            )
        raise CollectionError(failures, success_fraction, min_success_fraction)
    return outcome


# ---------------------------------------------------------------------------
# Artifact integrity
# ---------------------------------------------------------------------------


def atomic_write(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically: temp file + fsync + rename.

    A crash at any point leaves either the complete old file or the
    complete new file — never a torn or truncated artifact.  The temp file
    lives in the destination directory so the final ``os.replace`` is a
    same-filesystem atomic rename.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent if str(path.parent) else ".",
        prefix=f".{path.name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp_name)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Binary twin of :func:`atomic_write`: temp file + fsync + rename.

    Used by the columnar artifact store (:mod:`repro.core.store`) for its
    raw array shards; the same torn-write guarantee applies.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent if str(path.parent) else ".",
        prefix=f".{path.name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp_name)


def payload_checksum(payload: dict) -> str:
    """Canonical sha256 of a JSON payload (sorted keys, default separators)."""
    body = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_artifact(
    path: str | Path, payload: dict, schema: str, version: int
) -> None:
    """Persist ``payload`` atomically inside a checksummed schema envelope.

    The on-disk form is ``{"payload": ..., "schema": ..., "schema_version":
    ..., "sha256": ...}`` serialised with sorted keys, so identically-built
    artefacts stay byte-identical across runs and platforms.
    """
    envelope = {
        "schema": schema,
        "schema_version": version,
        "sha256": payload_checksum(payload),
        "payload": payload,
    }
    atomic_write(path, json.dumps(envelope, sort_keys=True))


def read_artifact(path: str | Path, schema: str, version: int) -> dict:
    """Load and validate an artifact written by :func:`write_artifact`.

    Raises:
        ArtifactIntegrityError: Naming the path and the exact failure —
            unreadable/invalid JSON, a missing envelope (legacy or foreign
            file), a schema name or version mismatch (found vs. expected),
            or a sha256 checksum mismatch (stored vs. recomputed).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactIntegrityError(path, f"unreadable: {exc}") from exc
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(
            path, f"not valid JSON (truncated or corrupt): {exc}"
        ) from exc
    if not isinstance(envelope, dict) or not all(
        key in envelope for key in ARTIFACT_ENVELOPE_KEYS
    ):
        raise ArtifactIntegrityError(
            path,
            "missing integrity envelope (legacy or foreign artifact); "
            f"expected keys {list(ARTIFACT_ENVELOPE_KEYS)}",
        )
    if envelope["schema"] != schema:
        raise ArtifactIntegrityError(
            path,
            f"schema {envelope['schema']!r} found, expected {schema!r}",
        )
    if envelope["schema_version"] != version:
        raise ArtifactIntegrityError(
            path,
            f"schema version {envelope['schema_version']!r} found, "
            f"expected {version}",
        )
    actual = payload_checksum(envelope["payload"])
    if actual != envelope["sha256"]:
        raise ArtifactIntegrityError(
            path,
            f"sha256 mismatch: stored {envelope['sha256']}, recomputed "
            f"{actual} — the payload was modified or corrupted",
        )
    return envelope["payload"]
