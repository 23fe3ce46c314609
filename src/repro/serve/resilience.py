"""Fault-tolerant serving: chaos injection, supervision, dead letters.

:mod:`repro.faults` degrades the *data*; this module degrades the
*pipeline*.  The paper's predictor is only operationally useful if it
keeps emitting predictions while the infrastructure around it misbehaves
(Netti et al. make the same point for online fault classifiers: the
monitor must survive the faults it monitors).  Four cooperating pieces:

* :class:`ChaosPlan` / :class:`ChaosInjector` — a seeded, composable
  injector that perturbs the serving pipeline itself: transient and
  persistent (outage-window) scorer exceptions, simulated wall-clock
  stalls, hot-swap corruption of freshly published registry versions,
  and malformed / oversized event bursts in the telemetry stream.  Every
  decision is a pure function of ``(seed, counter)`` via SHA-256, so a
  replay resumed from a checkpoint re-derives exactly the faults an
  uninterrupted run would have seen.
* :class:`CircuitBreaker` — trips open after K consecutive failed
  batches, fast-fails to the fallback chain while open, and re-probes
  the primary model with half-open trial batches after a cooldown.
* :class:`DeadLetterQueue` — quarantines unscorable batches and
  malformed events with typed reasons; quarantined batches are replayed
  through the primary model when the breaker closes again, and drained
  through the fallback chain at end of stream, so no event is ever
  silently dropped.
* :class:`SupervisedScorer` — a :class:`~repro.serve.scorer.MicroBatchScorer`
  whose scoring hook adds bounded retry with exponential backoff and
  jitter, per-batch deadline timeouts, the circuit breaker, and the
  registered fallback predictors (Basic-B first, all-negative as last
  resort).  With no chaos and a healthy model every added mechanism is
  dormant and the scorer is bit-identical to the unsupervised one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.twostage import TwoStagePredictor
from repro.features.builder import FeatureMatrix
from repro.obs import get_registry
from repro.features.schema import FeatureSchema
from repro.serve.scorer import Alert, MicroBatchScorer, ScorerConfig
from repro.serve.engine import rows_to_matrix
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = [
    "ChaosPlan",
    "ChaosInjector",
    "MalformedEvent",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "ResilienceConfig",
    "ResilienceCounters",
    "AllNegativeFallback",
    "SupervisedScorer",
    "FALLBACK_MODEL_VERSION",
    "LAST_RESORT_MODEL_VERSION",
]

#: ``Alert.model_version`` sentinel for rows scored by the registered
#: fallback predictor (Basic-B), and by the all-negative last resort.
FALLBACK_MODEL_VERSION = 0
LAST_RESORT_MODEL_VERSION = -1


def _unit(seed: int, label: str, *indices: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by name + counters.

    Stateless by construction: the chaos a resumed replay sees depends
    only on the plan seed and the same counters an uninterrupted run
    would have reached, never on how many draws happened before.
    """
    h = hashlib.sha256()
    h.update(f"{seed}|{label}|{'|'.join(str(i) for i in indices)}".encode())
    return int.from_bytes(h.digest()[:8], "little") / 2.0**64


# ----------------------------------------------------------------------
# Chaos plan + injector
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosPlan:
    """Intensity knobs for serve-layer chaos (mirrors ``FaultSpec``).

    ``intensity`` is the master dial in ``[0, 1]``; every per-fault rate
    is multiplied by it, so ``intensity=0`` is exactly a no-op.
    """

    intensity: float = 0.25
    seed: int = 0
    #: Probability a primary scoring *attempt* raises a transient fault.
    scorer_fault_rate: float = 0.15
    #: Expected persistent scorer-outage windows over the replay.
    outage_windows: float = 4.0
    #: Mean outage length as a fraction of the stream's time span.
    outage_span: float = 0.04
    #: Probability a scoring attempt stalls (simulated wall-clock).
    stall_rate: float = 0.10
    #: Mean simulated stall length in seconds.
    stall_mean_seconds: float = 45.0
    #: Probability a freshly published registry version is corrupted on
    #: disk before the pre-swap verification load.
    swap_failure_rate: float = 0.75
    #: Simulated extra seconds per registry model load.
    registry_load_stall_seconds: float = 5.0
    #: Per-event probability of a malformed-event burst in the stream.
    burst_rate: float = 0.01
    #: Maximum burst length; bursts longer than half this are recorded
    #: as ``oversized_burst`` rather than ``malformed_event``.
    burst_max_events: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.intensity <= 1.0:
            raise ValidationError(
                f"chaos intensity must be in [0, 1], got {self.intensity}"
            )

    @classmethod
    def preset(cls, name: str, *, seed: int = 0) -> "ChaosPlan":
        """Named presets: ``clean``, ``mild``, ``moderate``, ``severe``."""
        levels = {"clean": 0.0, "mild": 0.1, "moderate": 0.25, "severe": 0.5}
        try:
            return cls(intensity=levels[name], seed=seed)
        except KeyError:
            raise ValidationError(
                f"unknown chaos preset {name!r}; options: {sorted(levels)}"
            ) from None

    def scaled(self, rate: float) -> float:
        """A per-fault rate after applying the master intensity."""
        return float(rate) * float(self.intensity)

    def digest(self) -> str:
        """Stable fingerprint of the plan (checkpoint compatibility key)."""
        h = hashlib.sha256()
        for name in sorted(self.__dataclass_fields__):
            h.update(f"{name}={getattr(self, name)!r};".encode())
        return h.hexdigest()


@dataclass(frozen=True)
class MalformedEvent:
    """A garbage telemetry event injected into the stream by chaos.

    The feature engine does not recognize the type and raises; the
    serving loop quarantines it in the dead-letter queue with the typed
    ``reason`` carried here.
    """

    minute: float
    reason: str
    detail: str = ""


class ChaosInjector:
    """Runtime face of a :class:`ChaosPlan` over one event stream.

    Persistent-outage windows are drawn once from the plan seed and the
    stream's time span; everything else is a pure hash of the plan seed
    and a monotone counter supplied by the caller, so the injector
    carries no mutable state and pickles trivially inside a checkpoint.
    """

    def __init__(self, plan: ChaosPlan, *, span: tuple[float, float] = (0.0, 0.0)):
        self.plan = plan
        self.span = (float(span[0]), float(span[1]))
        self.outages = self._draw_outages()

    def _draw_outages(self) -> list[tuple[float, float]]:
        plan = self.plan
        count = int(round(plan.scaled(plan.outage_windows)))
        t_lo, t_hi = self.span
        horizon = max(t_hi - t_lo, 1.0)
        windows = []
        for i in range(count):
            start = t_lo + _unit(plan.seed, "outage-start", i) * horizon
            length = -plan.outage_span * horizon * math.log(
                1.0 - _unit(plan.seed, "outage-len", i)
            )
            windows.append((start, min(start + length, t_hi)))
        return sorted(windows)

    @property
    def enabled(self) -> bool:
        """Whether the plan injects anything at all."""
        return self.plan.intensity > 0.0

    def digest(self) -> str:
        """The plan's fingerprint (see :meth:`ChaosPlan.digest`)."""
        return self.plan.digest()

    # ---------------------------------------------------------- scoring
    def attempt_fault(
        self, minute: float, attempt_seq: int
    ) -> tuple[str, str] | None:
        """Fault verdict for one scoring attempt: ``(kind, detail)``/None.

        Outage windows fail *every* attempt inside them (persistent —
        what trips the breaker); transient faults are independent
        per-attempt draws (what retry + backoff absorbs).
        """
        if not self.enabled:
            return None
        for start, end in self.outages:
            if start <= minute <= end:
                return ("outage", f"scorer outage window [{start:.0f}, {end:.0f}]")
        plan = self.plan
        if _unit(plan.seed, "transient", attempt_seq) < plan.scaled(
            plan.scorer_fault_rate
        ):
            return ("transient", f"injected transient fault (attempt {attempt_seq})")
        return None

    def attempt_stall_seconds(self, attempt_seq: int) -> float:
        """Simulated wall-clock stall for one scoring attempt (0 = none)."""
        if not self.enabled:
            return 0.0
        plan = self.plan
        if _unit(plan.seed, "stall", attempt_seq) >= plan.scaled(plan.stall_rate):
            return 0.0
        return -plan.stall_mean_seconds * math.log(
            1.0 - _unit(plan.seed, "stall-len", attempt_seq)
        )

    def backoff_jitter(self, attempt_seq: int) -> float:
        """Deterministic jitter factor in ``[0, 1)`` for one backoff."""
        return _unit(self.plan.seed, "jitter", attempt_seq)

    # --------------------------------------------------------- registry
    def swap_corrupts(self, retrain_index: int) -> bool:
        """Whether the ``retrain_index``-th published version is corrupted."""
        return self.enabled and _unit(
            self.plan.seed, "swap", retrain_index
        ) < self.plan.scaled(self.plan.swap_failure_rate)

    def registry_load_stall_seconds(self, load_index: int) -> float:
        """Simulated slow-load seconds for one registry model load."""
        if not self.enabled:
            return 0.0
        return -self.plan.scaled(self.plan.registry_load_stall_seconds) * math.log(
            1.0 - _unit(self.plan.seed, "registry-load", load_index)
        )

    # ----------------------------------------------------------- stream
    def burst(self, event_index: int, minute: float) -> list[MalformedEvent]:
        """Malformed events to inject before stream event ``event_index``."""
        if not self.enabled:
            return []
        plan = self.plan
        if _unit(plan.seed, "burst", event_index) >= plan.scaled(plan.burst_rate):
            return []
        size = 1 + int(
            _unit(plan.seed, "burst-size", event_index) * plan.burst_max_events
        )
        reason = (
            "oversized_burst" if size > plan.burst_max_events // 2
            else "malformed_event"
        )
        return [
            MalformedEvent(
                minute=minute,
                reason=reason,
                detail=f"chaos burst of {size} at event {event_index}",
            )
            for _ in range(size)
        ]


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def _record_breaker_transition(old: str, new: str) -> None:
    """Publish one breaker state change (counter + structured event).

    Module-level on purpose: breakers are dataclasses that pickle into
    replay checkpoints, so they must not hold registry references.
    """
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_serve_breaker_transitions_total",
        "Circuit-breaker state transitions.",
    ).inc(1.0, **{"from": old, "to": new})
    registry.event("breaker_transition", **{"from": old, "to": new})



@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    ``closed`` → normal operation; ``threshold`` consecutive failed
    batches trip it ``open``.  While open, batches fast-fail to the
    fallback chain; after ``cooldown_batches`` of them the breaker goes
    ``half_open`` and the next batch is a trial run against the primary
    model — success closes the breaker (and triggers dead-letter
    replay), failure re-opens it for another cooldown.
    """

    threshold: int = 3
    cooldown_batches: int = 8
    state: str = "closed"
    consecutive_failures: int = 0
    cooldown_left: int = 0
    trips: int = 0
    probes: int = 0

    def record_success(self) -> None:
        """A primary batch scored cleanly while closed."""
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        """A primary batch exhausted its retries while closed."""
        self.consecutive_failures += 1
        if self.state == "closed" and self.consecutive_failures >= self.threshold:
            self.trip()

    def trip(self) -> None:
        """Open the breaker and start the cooldown."""
        _record_breaker_transition(self.state, "open")
        self.state = "open"
        self.cooldown_left = self.cooldown_batches
        self.trips += 1

    def tick(self) -> None:
        """Count one fast-failed batch against the cooldown."""
        if self.state == "open":
            self.cooldown_left -= 1
            if self.cooldown_left <= 0:
                _record_breaker_transition("open", "half_open")
                self.state = "half_open"

    def close(self) -> None:
        """A half-open probe succeeded; resume normal operation."""
        _record_breaker_transition(self.state, "closed")
        self.state = "closed"
        self.consecutive_failures = 0

    def reopen(self) -> None:
        """A half-open probe failed; back to open for another cooldown."""
        _record_breaker_transition(self.state, "open")
        self.state = "open"
        self.cooldown_left = self.cooldown_batches


# ----------------------------------------------------------------------
# Dead-letter queue
# ----------------------------------------------------------------------
@dataclass
class DeadLetter:
    """One quarantined batch or event."""

    #: ``"batch"`` (replayable: carries its queue entries) or ``"event"``.
    kind: str
    #: Typed quarantine reason: ``transient``, ``outage``, ``timeout``,
    #: ``exception``, ``malformed_event``, ``oversized_burst``.
    reason: str
    minute: float
    rows: int
    detail: str = ""
    #: Queue entries ``(enqueue_minute, StreamedRow)`` for batch replays.
    entries: list | None = None
    #: Set when the letter was replayed: which path finally scored it.
    resolution: str = ""

    @property
    def resolved(self) -> bool:
        """Whether the letter has been replayed (events never are)."""
        return bool(self.resolution)

    def stripped(self) -> "DeadLetter":
        """A copy without the row payload, suitable for reports."""
        return replace(self, entries=None)


@dataclass
class DeadLetterQueue:
    """Ordered quarantine of unscorable batches and malformed events."""

    letters: list[DeadLetter] = field(default_factory=list)

    def quarantine_batch(
        self, entries: list, *, reason: str, minute: float, detail: str = ""
    ) -> DeadLetter:
        """Quarantine one drained-but-unscorable batch for later replay."""
        letter = DeadLetter(
            kind="batch",
            reason=reason,
            minute=float(minute),
            rows=len(entries),
            detail=detail,
            entries=list(entries),
        )
        self.letters.append(letter)
        self._record(letter)
        return letter

    def quarantine_event(
        self, *, reason: str, minute: float, detail: str = ""
    ) -> DeadLetter:
        """Quarantine one malformed stream event (not replayable)."""
        letter = DeadLetter(
            kind="event", reason=reason, minute=float(minute), rows=0, detail=detail
        )
        self.letters.append(letter)
        self._record(letter)
        return letter

    def _record(self, letter: DeadLetter) -> None:
        registry = get_registry()
        registry.counter(
            "repro_serve_dead_letters_total",
            "Quarantined batches/events, by kind and reason.",
        ).inc(kind=letter.kind, reason=letter.reason)
        registry.gauge(
            "repro_serve_dlq_depth", "Unreplayed batches in the dead-letter queue."
        ).set(len(self.pending_batches()))

    def pending_batches(self) -> list[DeadLetter]:
        """Quarantined batches not yet replayed, oldest first."""
        return [
            letter
            for letter in self.letters
            if letter.kind == "batch" and not letter.resolved
        ]

    def reasons(self) -> dict[str, int]:
        """Letter count per quarantine reason."""
        summary: dict[str, int] = {}
        for letter in self.letters:
            summary[letter.reason] = summary.get(letter.reason, 0) + 1
        return summary

    def __len__(self) -> int:
        return len(self.letters)


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision knobs for the :class:`SupervisedScorer`."""

    #: Total primary attempts per batch (1 = no retry).
    max_attempts: int = 3
    #: First retry waits this long (simulated seconds), doubling after.
    backoff_base_seconds: float = 0.5
    #: Backoff multiplier spread: wait *= 1 + jitter * U[0, 1).
    backoff_jitter: float = 0.5
    #: A scoring attempt stalling past this is a deadline timeout.
    batch_timeout_seconds: float = 30.0
    #: Consecutive failed batches that trip the circuit breaker.
    breaker_threshold: int = 3
    #: Fast-failed batches before the breaker half-opens for a probe.
    breaker_cooldown_batches: int = 8

    def __post_init__(self) -> None:
        check_positive(self.max_attempts, "max_attempts")
        check_positive(self.batch_timeout_seconds, "batch_timeout_seconds")
        check_positive(self.breaker_threshold, "breaker_threshold")
        check_positive(self.breaker_cooldown_batches, "breaker_cooldown_batches")


@dataclass
class ResilienceCounters:
    """Supervision telemetry: where every row ended up, and why."""

    primary_batches: int = 0
    fallback_batches: int = 0
    primary_rows: int = 0
    fallback_rows: int = 0
    #: Rows that passed through the dead-letter queue at some point.
    dead_lettered_batches: int = 0
    dead_lettered_rows: int = 0
    #: Dead-lettered batches/rows later replayed to a scoring path.
    replayed_batches: int = 0
    replayed_rows: int = 0
    #: Malformed/oversized stream events quarantined (never scorable).
    dead_letter_events: int = 0
    injected_events: int = 0
    #: Attempt-level accounting.
    attempts: int = 0
    retries: int = 0
    transient_faults: int = 0
    outage_faults: int = 0
    timeouts: int = 0
    scorer_exceptions: int = 0
    #: Breaker / swap accounting.
    breaker_trips: int = 0
    breaker_probes: int = 0
    swap_failures: int = 0
    #: Simulated wall-clock bookkeeping (chaos stalls and backoff waits).
    simulated_stall_seconds: float = 0.0
    simulated_backoff_seconds: float = 0.0
    registry_load_stall_seconds: float = 0.0
    #: Rows still quarantined when the replay finished (should be 0).
    unresolved_rows: int = 0

    @property
    def rows_scored(self) -> int:
        """Rows that received an alert through any path."""
        return self.primary_rows + self.fallback_rows

    @property
    def availability(self) -> float:
        """Fraction of rows eventually scored (primary or fallback)."""
        denominator = self.rows_scored + self.unresolved_rows
        if denominator == 0:
            return 1.0
        return self.rows_scored / denominator

    @property
    def fallback_share(self) -> float:
        """Fraction of scored rows handled by a fallback predictor."""
        if self.rows_scored == 0:
            return 0.0
        return self.fallback_rows / self.rows_scored


class AllNegativeFallback:
    """Last-resort predictor: never alerts, never fails."""

    name = "all_negative"

    def decision_scores(self, features: FeatureMatrix) -> np.ndarray:
        """Zero ranking score for every sample."""
        return np.zeros(features.num_samples, dtype=float)


class _InjectedFault(RuntimeError):
    """Internal carrier for a chaos-injected scoring failure."""


class SupervisedScorer(MicroBatchScorer):
    """A micro-batch scorer wrapped in retry / breaker / DLQ supervision.

    ``fallbacks`` is an ordered chain of ``(name, predictor)`` pairs
    tried when the primary model is unavailable; each predictor needs
    only a ``decision_scores(FeatureMatrix)`` method (hard 0/1 scores
    are thresholded at 0.5).  The chain should end with a predictor
    that cannot fail (:class:`AllNegativeFallback`).
    """

    def __init__(
        self,
        predictor: TwoStagePredictor,
        schema: FeatureSchema,
        config: ScorerConfig | None = None,
        *,
        model_version: int = 1,
        resilience: ResilienceConfig | None = None,
        chaos: ChaosInjector | None = None,
        fallbacks: list[tuple[str, object]] | None = None,
    ) -> None:
        super().__init__(predictor, schema, config, model_version=model_version)
        self.rconfig = resilience or ResilienceConfig()
        self.chaos = chaos
        self.fallbacks = (
            list(fallbacks)
            if fallbacks is not None
            else [("all_negative", AllNegativeFallback())]
        )
        self.resilience = ResilienceCounters()
        self.breaker = CircuitBreaker(
            threshold=self.rconfig.breaker_threshold,
            cooldown_batches=self.rconfig.breaker_cooldown_batches,
        )
        self.dlq = DeadLetterQueue()
        #: Monotone scoring-attempt counter; keys every chaos draw.
        self.attempt_seq = 0
        self._recovered_alerts: list[Alert] = []
        self._last_failure: tuple[str, str] = ("exception", "")

    # ------------------------------------------------------------------
    def _flush_batch(self, scored_minute: float) -> list[Alert]:
        alerts = super()._flush_batch(scored_minute)
        if self._recovered_alerts:
            alerts.extend(self._recovered_alerts)
            self._recovered_alerts = []
        return alerts

    def _score_entries(self, entries, scored_minute: float):
        res = self.resilience
        breaker = self.breaker
        if breaker.state == "open":
            breaker.tick()
            if breaker.state == "open":
                return self._fallback(entries)
        if breaker.state == "half_open":
            res.breaker_probes += 1
            breaker.probes += 1
            outcome = self._attempt_primary(entries, scored_minute, max_attempts=1)
            if outcome is None:
                breaker.reopen()
                return self._fallback(entries)
            breaker.close()
            self._recovered_alerts.extend(self._replay_dead_letters(scored_minute))
            return outcome
        outcome = self._attempt_primary(
            entries, scored_minute, max_attempts=self.rconfig.max_attempts
        )
        if outcome is not None:
            breaker.record_success()
            return outcome
        breaker.record_failure()
        if breaker.state == "open" and breaker.trips > res.breaker_trips:
            res.breaker_trips = breaker.trips
        kind, detail = self._last_failure
        self.dlq.quarantine_batch(
            entries, reason=kind, minute=scored_minute, detail=detail
        )
        res.dead_lettered_batches += 1
        res.dead_lettered_rows += len(entries)
        return None

    # ------------------------------------------------------------------
    def _attempt_primary(self, entries, scored_minute: float, *, max_attempts: int):
        """Try the primary model with bounded retry + backoff + timeout."""
        res = self.resilience
        rows = [row for _, row in entries]
        matrix = rows_to_matrix(rows, self._schema)
        for attempt in range(max_attempts):
            seq = self.attempt_seq
            self.attempt_seq += 1
            res.attempts += 1
            try:
                stall = (
                    self.chaos.attempt_stall_seconds(seq)
                    if self.chaos is not None
                    else 0.0
                )
                if stall > 0.0:
                    res.simulated_stall_seconds += stall
                if stall > self.rconfig.batch_timeout_seconds:
                    res.timeouts += 1
                    raise _InjectedFault(
                        "timeout",
                        f"batch deadline exceeded ({stall:.1f}s simulated "
                        f"> {self.rconfig.batch_timeout_seconds:.1f}s)",
                    )
                fault = (
                    self.chaos.attempt_fault(scored_minute, seq)
                    if self.chaos is not None
                    else None
                )
                if fault is not None:
                    kind, detail = fault
                    if kind == "outage":
                        res.outage_faults += 1
                    else:
                        res.transient_faults += 1
                    raise _InjectedFault(kind, detail)
                scores, predicted = self._predict_primary(matrix)
            except _InjectedFault as exc:
                self._last_failure = (exc.args[0], exc.args[1])
            except Exception as exc:  # genuine scorer bug / bad model
                res.scorer_exceptions += 1
                self._last_failure = ("exception", f"{type(exc).__name__}: {exc}")
            else:
                res.primary_batches += 1
                res.primary_rows += len(entries)
                return scores, predicted, self.model_version, "primary"
            if attempt + 1 < max_attempts:
                res.retries += 1
                get_registry().counter(
                    "repro_serve_retries_total", "Primary scoring retries."
                ).inc()
                jitter = (
                    self.chaos.backoff_jitter(seq) if self.chaos is not None else 0.0
                )
                res.simulated_backoff_seconds += (
                    self.rconfig.backoff_base_seconds
                    * 2.0**attempt
                    * (1.0 + self.rconfig.backoff_jitter * jitter)
                )
        return None

    def _fallback(self, entries):
        """Score with the fallback chain; the last link cannot fail."""
        res = self.resilience
        rows = [row for _, row in entries]
        matrix = rows_to_matrix(rows, self._schema)
        for name, predictor in self.fallbacks:
            try:
                scores = np.asarray(predictor.decision_scores(matrix), dtype=float)
                predicted = (scores >= 0.5).astype(int)
            except Exception:
                continue
            res.fallback_batches += 1
            res.fallback_rows += len(entries)
            version = (
                LAST_RESORT_MODEL_VERSION
                if isinstance(predictor, AllNegativeFallback)
                else FALLBACK_MODEL_VERSION
            )
            return scores, predicted, version, f"fallback:{name}"
        raise ValidationError(
            "fallback chain exhausted; register AllNegativeFallback last"
        )

    # ------------------------------------------------------------------
    def _replay_dead_letters(self, scored_minute: float) -> list[Alert]:
        """Re-score quarantined batches (one primary try, then fallback)."""
        alerts: list[Alert] = []
        res = self.resilience
        for letter in self.dlq.pending_batches():
            entries = letter.entries
            outcome = self._attempt_primary(entries, scored_minute, max_attempts=1)
            if outcome is None:
                outcome = self._fallback(entries)
            scores, predicted, version, source = outcome
            letter.resolution = source
            res.replayed_batches += 1
            res.replayed_rows += len(entries)
            registry = get_registry()
            registry.counter(
                "repro_serve_replayed_rows_total",
                "Rows re-scored from the dead-letter queue, by resolution.",
            ).inc(len(entries), resolution=source)
            registry.event(
                "dead_letter_replayed",
                minute=scored_minute,
                rows=len(entries),
                resolution=source,
            )
            alerts.extend(
                self._emit(entries, scores, predicted, scored_minute, version, source)
            )
        if res.replayed_batches:
            get_registry().gauge(
                "repro_serve_dlq_depth",
                "Unreplayed batches in the dead-letter queue.",
            ).set(len(self.dlq.pending_batches()))
        return alerts

    def finalize(self, now_minute: float) -> list[Alert]:
        """End of stream: drain the DLQ so no row is left unscored."""
        alerts = self._replay_dead_letters(now_minute)
        if self._recovered_alerts:
            alerts.extend(self._recovered_alerts)
            self._recovered_alerts = []
        self.resilience.unresolved_rows = sum(
            letter.rows for letter in self.dlq.pending_batches()
        )
        return alerts
