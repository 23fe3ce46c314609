"""Stateful streaming feature engine.

Consumes the telemetry event stream (:mod:`repro.serve.events`) in
delivery order and emits one model-ready feature row per (run, node)
sample at run completion.  The contract — enforced by the parity tests —
is that the emitted rows are **bit-identical** to the batch
:func:`~repro.features.builder.build_features` output on the same trace,
and it holds by construction: the engine assembles its rows with the
batch builder's :class:`~repro.features.builder.FeatureAssembler`.

* telemetry and application columns are carried by the completion event
  (the out-of-band sampler computed them online, exactly as in batch);
* history features are evaluated at run *completion* against a
  :class:`~repro.features.history.HistoryIndex` fed the SBE events
  observed so far.  Delivery is time-ordered and every history window
  ends strictly before the run's start, so the SBEs observed between a
  run's start and its completion fall outside its windows;
* the allocation-history column is a mean over *all* of the run's
  nodes, which :class:`~repro.serve.events.RunStarted` lists even when
  this engine (one gateway shard) completes only some of them;
* the top-app indicator vocabulary is supplied by the caller — frozen
  at training time in production, or computed with
  :func:`~repro.features.builder.compute_top_apps` for replay parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.builder import (
    FeatureAssembler,
    FeatureMatrix,
    alloc_history,
    window_counts,
)
from repro.obs import get_registry
from repro.features.history import HistoryIndex
from repro.features.schema import FeatureSchema
from repro.serve.events import (
    JobResolved,
    RunCompleted,
    RunStarted,
    SbeObserved,
)
from repro.topology.machine import Machine
from repro.utils.errors import ValidationError

__all__ = [
    "StreamedRow",
    "StreamingFeatureEngine",
    "rows_to_matrix",
]


@dataclass(frozen=True)
class StreamedRow:
    """One (run, node) feature row emitted at run completion."""

    run_idx: int
    job_id: int
    node_id: int
    app_id: int
    start_minute: float
    end_minute: float
    duration_minutes: float
    n_nodes: int
    gpu_core_hours: float
    #: Feature vector in the engine's schema order.
    features: np.ndarray


class StreamingFeatureEngine:
    """Turns the event stream into feature rows, one run at a time."""

    def __init__(self, machine: Machine, top_apps: np.ndarray) -> None:
        self._assembler = FeatureAssembler(machine, top_apps)
        self.schema = self._assembler.schema
        self._node_index = HistoryIndex()
        self._app_index = HistoryIndex()
        #: run_idx -> the run's start event, until the run completes.
        self._pending: dict[int, RunStarted] = {}
        self.rows_emitted = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    @property
    def node_index(self) -> HistoryIndex:
        """Node-keyed SBE history (the online stage-1 substrate)."""
        return self._node_index

    @property
    def app_index(self) -> HistoryIndex:
        """Application-keyed SBE history."""
        return self._app_index

    # ------------------------------------------------------------------
    def process(self, event) -> list[StreamedRow]:
        """Apply one event; returns emitted rows (non-empty on completion)."""
        self.events_processed += 1
        if isinstance(event, RunStarted):
            if event.run_idx in self._pending:
                raise ValidationError(f"run {event.run_idx} started twice")
            self._pending[event.run_idx] = event
            return []
        if isinstance(event, RunCompleted):
            return self._on_complete(event)
        if isinstance(event, SbeObserved):
            self._node_index.add(event.node_id, event.minute, event.count)
            self._app_index.add(event.app_id, event.minute, event.count)
            return []
        if isinstance(event, JobResolved):
            return []  # label bookkeeping is the serving layer's job
        raise ValidationError(f"unknown telemetry event type: {type(event).__name__}")

    def stream(self, events):
        """Process an iterable of events, yielding rows as they emit."""
        for event in events:
            yield from self.process(event)

    # ------------------------------------------------------------------
    def _on_complete(self, event: RunCompleted) -> list[StreamedRow]:
        started = self._pending.pop(event.run_idx, None)
        if started is None:
            raise ValidationError(
                f"run {event.run_idx} completed but was never started"
            )
        r = event.rows
        X, node_today = self._assembler.assemble(
            r, self._node_index, self._app_index
        )
        if node_today.size < len(started.node_ids):
            # A gateway shard completes only the rows of the nodes it
            # owns; the allocation mean still covers every node of the run.
            node_today = window_counts(
                self._node_index,
                np.asarray(started.node_ids, dtype=int),
                np.asarray(started.start_minutes, dtype=float),
            )[0]
        # One allocation mean per run, broadcast over its rows here.
        X[:, -1] = alloc_history(np.zeros(node_today.size, dtype=int), node_today)[:1]
        rows = [
            StreamedRow(*values, features=features)
            for *values, features in zip(
                r["run_idx"].astype(int).tolist(),
                r["job_id"].astype(int).tolist(),
                r["node_id"].astype(int).tolist(),
                r["app_id"].astype(int).tolist(),
                r["start_minute"].astype(float).tolist(),
                r["end_minute"].astype(float).tolist(),
                r["duration_minutes"].astype(float).tolist(),
                r["n_nodes"].astype(int).tolist(),
                r["gpu_core_hours"].astype(float).tolist(),
                X,
            )
        ]
        self.rows_emitted += len(rows)
        # Looked up lazily: the engine is pickled into replay checkpoints
        # and must not hold a registry (and its lock) in its state.
        get_registry().counter(
            "repro_features_rows_total", "Feature rows built, per builder kind."
        ).inc(len(rows), builder="streaming")
        return rows


def rows_to_matrix(
    rows: list[StreamedRow],
    schema: FeatureSchema,
    *,
    sbe_counts: np.ndarray | None = None,
) -> FeatureMatrix:
    """Assemble streamed rows into a batch-compatible feature matrix.

    ``sbe_counts`` supplies the resolved per-row labels (defaults to all
    zeros for not-yet-resolved rows); the result then feeds the same
    :class:`~repro.core.twostage.TwoStagePredictor` fit/predict API as
    the batch path.
    """
    n = len(rows)
    if n == 0:
        raise ValidationError("cannot build a feature matrix from zero rows")
    if sbe_counts is None:
        sbe_counts = np.zeros(n, dtype=np.int64)
    sbe_counts = np.asarray(sbe_counts, dtype=np.int64)
    if sbe_counts.shape[0] != n:
        raise ValidationError("sbe_counts and rows disagree on sample count")
    # Fused single-pass fill: preallocate the matrix and every meta array
    # once and populate them in one walk over the rows (the micro-batch
    # hot path used to make ~10 separate list-comprehension passes plus a
    # vstack here).  Values and dtypes are unchanged, so this is
    # bit-identical to the old assembly.
    X = np.empty((n, len(schema)), dtype=float)
    run_idx = np.empty(n, dtype=int)
    job_id = np.empty(n, dtype=int)
    node_id = np.empty(n, dtype=int)
    app_id = np.empty(n, dtype=int)
    start_minute = np.empty(n, dtype=float)
    end_minute = np.empty(n, dtype=float)
    duration_minutes = np.empty(n, dtype=float)
    n_nodes = np.empty(n, dtype=int)
    gpu_core_hours = np.empty(n, dtype=float)
    for i, row in enumerate(rows):
        X[i] = row.features
        run_idx[i] = row.run_idx
        job_id[i] = row.job_id
        node_id[i] = row.node_id
        app_id[i] = row.app_id
        start_minute[i] = row.start_minute
        end_minute[i] = row.end_minute
        duration_minutes[i] = row.duration_minutes
        n_nodes[i] = row.n_nodes
        gpu_core_hours[i] = row.gpu_core_hours
    meta = {
        "run_idx": run_idx,
        "job_id": job_id,
        "node_id": node_id,
        "app_id": app_id,
        "start_minute": start_minute,
        "end_minute": end_minute,
        "duration_minutes": duration_minutes,
        "n_nodes": n_nodes,
        "gpu_core_hours": gpu_core_hours,
        "sbe_count": sbe_counts,
    }
    return FeatureMatrix(
        X=X,
        y=(sbe_counts > 0).astype(int),
        schema=schema,
        meta=meta,
    )
