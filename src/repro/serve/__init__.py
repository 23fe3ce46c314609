"""Online serving: model registry, streaming features, micro-batch scoring.

The paper's TwoStage framework is meant to run *online*: stage 1 filters
live samples down to known offender nodes, stage 2 scores what passes,
and the model is retrained periodically as new offenders appear.  This
package turns the repo's offline pipeline into that service, in three
layers:

* :mod:`repro.serve.registry` -- versioned, checksummed on-disk artifacts
  for fitted :class:`~repro.core.twostage.TwoStagePredictor` models;
* :mod:`repro.serve.events` / :mod:`repro.serve.engine` -- an event-driven
  feature engine whose rows are bit-identical to the batch
  :func:`~repro.features.builder.build_features` output;
* :mod:`repro.serve.scorer` -- a micro-batching scorer with latency /
  throughput / queue-depth counters and hot model swap.

:func:`repro.serve.replay.serve_replay` wires the three together to
replay a trace through the full online path and compare against the
batch oracle (the CLI's ``serve-replay`` subcommand).

Two robustness layers harden the service (both exact no-ops when off):

* :mod:`repro.serve.resilience` -- serve-layer chaos injection plus the
  supervised scorer: retry/backoff, per-batch timeouts, a circuit
  breaker over Basic-B / all-negative fallbacks, and a dead-letter
  queue with recovery replay;
* :mod:`repro.serve.checkpoint` -- atomic, checksummed checkpoints so a
  killed replay resumes bit-identically (``serve-replay --resume``).

:mod:`repro.serve.drift` adds drift resilience on top: streaming PSI /
calibration / rolling-F1 detectors, and a retrain governor that
triggers holdout-validated refits and rolls back a post-swap F1
collapse to the last-good registry version.
"""

from repro.serve.checkpoint import CheckpointManager
from repro.serve.drift import (
    DriftConfig,
    DriftMonitor,
    HoldoutReport,
    RetrainGovernor,
    RollingF1Monitor,
    WindowedPSI,
    fit_validated_candidate,
)
from repro.serve.engine import StreamedRow, StreamingFeatureEngine, rows_to_matrix
from repro.serve.events import (
    JobResolved,
    RunCompleted,
    RunStarted,
    SbeObserved,
    iter_trace_events,
)
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.replay import ReplayReport, serve_replay
from repro.serve.resilience import (
    ChaosInjector,
    ChaosPlan,
    CircuitBreaker,
    DeadLetter,
    DeadLetterQueue,
    ResilienceConfig,
    ResilienceCounters,
    SupervisedScorer,
)
from repro.serve.scorer import Alert, MicroBatchScorer, ScorerConfig, ServeCounters

__all__ = [
    "ChaosPlan",
    "ChaosInjector",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "ResilienceConfig",
    "ResilienceCounters",
    "SupervisedScorer",
    "CheckpointManager",
    "DriftConfig",
    "DriftMonitor",
    "HoldoutReport",
    "RetrainGovernor",
    "RollingF1Monitor",
    "WindowedPSI",
    "fit_validated_candidate",
    "StreamedRow",
    "StreamingFeatureEngine",
    "rows_to_matrix",
    "RunStarted",
    "RunCompleted",
    "SbeObserved",
    "JobResolved",
    "iter_trace_events",
    "ModelRegistry",
    "ModelVersion",
    "ReplayReport",
    "serve_replay",
    "Alert",
    "MicroBatchScorer",
    "ScorerConfig",
    "ServeCounters",
]
