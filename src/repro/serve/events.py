"""Telemetry event model for the online serving path.

An online collector sees the machine as a time-ordered stream: apruns
start, apruns complete (delivering the out-of-band sampler's run
statistics), and batch jobs resolve their nvidia-smi SBE deltas when the
last aprun finishes.  The streaming feature engine consumes exactly this
stream.

:func:`iter_trace_events` reconstructs the stream from a recorded
:class:`~repro.telemetry.trace.Trace` so a saved (or freshly simulated,
or fault-injected-then-sanitized) trace can be replayed through the
online path.  Ordering rules mirror the batch semantics bit-for-bit:

* events are sorted by minute;
* at equal minutes, run *starts* are delivered before completions and
  SBE observations — the batch history windows end-exclusive at the run
  start (``side="left"``), so an SBE stamped at exactly the start minute
  must not be visible to that run;
* remaining ties keep samples-table order (stable sort), which keeps the
  stream deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.history import dedupe_job_events
from repro.telemetry.trace import SAMPLE_TELEMETRY_COLUMNS, Trace

__all__ = [
    "RunStarted",
    "RunCompleted",
    "SbeObserved",
    "JobResolved",
    "ROW_COLUMNS",
    "iter_trace_events",
]

#: Per-row payload columns carried by :class:`RunCompleted`, in order.
#: Deliberately excludes ``sbe_count``: the label is not observable at
#: run completion; it arrives later via :class:`SbeObserved` /
#: :class:`JobResolved`.
ROW_COLUMNS: tuple[str, ...] = (
    "run_idx",
    "job_id",
    "node_id",
    "app_id",
    "prev_app_id",
    "start_minute",
    "end_minute",
    "duration_minutes",
    "n_nodes",
    "gpu_core_hours",
    "gpu_util",
    "max_mem_gb",
    "agg_mem_gb",
) + SAMPLE_TELEMETRY_COLUMNS


@dataclass(frozen=True)
class RunStarted:
    """An aprun was placed on the machine.

    Carries the per-sample-row node/app/start arrays, one entry per
    surviving samples-table row of the run.  The feature engine uses it
    to check that every completion has a start, and for the allocation
    history: the mean node history over *all* of the run's nodes, which
    a gateway shard completing only its own rows cannot see otherwise.
    History itself is evaluated at completion.
    """

    minute: float
    run_idx: int
    node_ids: np.ndarray
    app_ids: np.ndarray
    start_minutes: np.ndarray


@dataclass(frozen=True)
class RunCompleted:
    """An aprun finished; the sampler delivered its run statistics.

    ``rows`` maps each :data:`ROW_COLUMNS` name to a per-row array.
    """

    minute: float
    run_idx: int
    rows: dict[str, np.ndarray]


@dataclass(frozen=True)
class SbeObserved:
    """One resolved per-(job, node) SBE event (count > 0).

    Stamped at the last end minute of that (job, node) pair — the moment
    the batch job's nvidia-smi delta is attributed, i.e. the moment the
    count becomes observable.  These are exactly the events the batch
    :func:`~repro.features.history.dedupe_job_events` produces.
    """

    minute: float
    job_id: int
    node_id: int
    app_id: int
    count: int


@dataclass(frozen=True)
class JobResolved:
    """A batch job's SBE deltas are fully resolved (labels available).

    Carries counts for *every* node of the job, zeros included, so the
    serving layer can close out ground-truth labels for evaluation and
    periodic retraining.  The feature engine ignores this event; its
    history state is driven by :class:`SbeObserved` alone.
    """

    minute: float
    job_id: int
    node_ids: np.ndarray
    counts: np.ndarray


# Delivery order at equal minutes (see module docstring).
_PHASE = {RunStarted: 0, RunCompleted: 1, SbeObserved: 2, JobResolved: 3}


def event_phase(event) -> int:
    """Tie-break rank of an event at its minute (starts first)."""
    return _PHASE[type(event)]


def iter_trace_events(trace: Trace):
    """Yield the trace's telemetry events in delivery order.

    The reconstruction matches the batch feature builder's view of the
    same trace: per-run rows keep samples-table order, and SBE events are
    deduped per (job, node) with last-end-minute attribution exactly like
    :func:`~repro.features.history.dedupe_job_events`.
    """
    s = trace.samples
    if trace.num_samples == 0:
        return
    run_idx = np.asarray(s["run_idx"], dtype=int)
    node_id = np.asarray(s["node_id"], dtype=int)
    app_id = np.asarray(s["app_id"], dtype=int)
    job_id = np.asarray(s["job_id"], dtype=int)
    start = np.asarray(s["start_minute"], dtype=float)
    end = np.asarray(s["end_minute"], dtype=float)
    counts = np.asarray(s["sbe_count"], dtype=np.int64)

    events: list[tuple[float, int, int, object]] = []
    seq = 0

    def push(event) -> None:
        nonlocal seq
        events.append((event.minute, event_phase(event), seq, event))
        seq += 1

    # --- runs: one start + one completion per run_idx ------------------
    unique_runs, first_pos = np.unique(run_idx, return_index=True)
    for rid in unique_runs[np.argsort(first_pos, kind="stable")]:
        rows = np.nonzero(run_idx == rid)[0]
        push(
            RunStarted(
                minute=float(start[rows].min()),
                run_idx=int(rid),
                node_ids=node_id[rows],
                app_ids=app_id[rows],
                start_minutes=start[rows],
            )
        )
        push(
            RunCompleted(
                minute=float(end[rows].max()),
                run_idx=int(rid),
                rows={name: np.asarray(s[name])[rows] for name in ROW_COLUMNS},
            )
        )

    # --- per-(job, node) SBE events, deduped like the batch builder ----
    sbe = dedupe_job_events(job_id, node_id, end, counts, app_id)
    for j, nd, ap, minute, count in zip(
        sbe.job_ids.tolist(),
        sbe.node_ids.tolist(),
        sbe.app_ids.tolist(),
        sbe.minutes.tolist(),
        sbe.counts.tolist(),
    ):
        push(SbeObserved(minute=minute, job_id=j, node_id=nd, app_id=ap, count=count))

    # --- per-job label resolution (zeros included) ---------------------
    for jid in np.unique(job_id):
        rows = np.nonzero(job_id == jid)[0]
        # Keep one count per node: the row with the latest end minute,
        # later table row winning ties — same rule as the SBE events.
        per_node: dict[int, tuple[float, int]] = {}
        for r in rows:
            nd = int(node_id[r])
            best = per_node.get(nd)
            if best is None or end[r] >= best[0]:
                per_node[nd] = (float(end[r]), int(counts[r]))
        nodes_sorted = sorted(per_node)
        push(
            JobResolved(
                minute=float(end[rows].max()),
                job_id=int(jid),
                node_ids=np.asarray(nodes_sorted, dtype=int),
                counts=np.asarray(
                    [per_node[nd][1] for nd in nodes_sorted], dtype=np.int64
                ),
            )
        )

    events.sort(key=lambda item: item[:3])
    for _, _, _, event in events:
        yield event
