"""Builds the model-ready feature matrix from a trace.

One output row per (run, node) sample.  Telemetry statistics come straight
from the trace's samples table (the out-of-band sampler computed them
online); history features are computed here, causally, via
:class:`~repro.features.history.HistoryIndex`.  :class:`FeatureAssembler`
is the one definition of the columns: the batch, out-of-core and
streaming (:mod:`repro.serve.engine`) builders all assemble rows with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import SpanTracer, get_registry
from repro.features.history import HistoryIndex, dedupe_job_events
from repro.features.schema import (
    FeatureSchema,
    GROUP_APP,
    GROUP_HIST,
    GROUP_LOCATION,
    GROUP_TP,
)
from repro.telemetry.trace import PRE_WINDOWS_MINUTES, Trace
from repro.utils.errors import ValidationError

__all__ = [
    "FeatureAssembler",
    "FeatureMatrix",
    "SampleTableBuilder",
    "alloc_history",
    "build_features",
    "build_features_from_store",
    "compute_top_apps",
    "window_counts",
]

MINUTES_PER_DAY = 1440.0
_STAT_SUFFIXES = ("mean", "std", "dmean", "dstd")
_HISTORY_WINDOWS = ("today", "yesterday", "before")
#: Per-sample metadata columns and their dtypes.
_META_COLUMNS = {
    "run_idx": np.int64,
    "job_id": np.int64,
    "node_id": np.int64,
    "app_id": np.int64,
    "start_minute": float,
    "end_minute": float,
    "duration_minutes": float,
    "n_nodes": np.int64,
    "gpu_core_hours": float,
    "sbe_count": np.int64,
}


def compute_top_apps(app_ids: np.ndarray, top_k: int) -> np.ndarray:
    """The ``top_k`` most frequent app ids, most frequent first.

    This is the app vocabulary behind the ``app_is_topNN`` indicator
    columns.  The streaming engine (:mod:`repro.serve.engine`) must use
    the *same* ranking as the batch builder for its rows to be
    bit-identical, so both call this helper.
    """
    app_ids = np.asarray(app_ids, dtype=int)
    return np.argsort(np.bincount(app_ids))[::-1][: int(top_k)]


@dataclass
class FeatureMatrix:
    """Feature matrix plus labels, schema, and per-sample metadata."""

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    #: Per-sample metadata columns (ids, times, raw counts, run shape).
    meta: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValidationError("X and y disagree on sample count")
        if self.X.shape[1] != len(self.schema):
            raise ValidationError(
                f"X has {self.X.shape[1]} columns, schema has {len(self.schema)}"
            )

    @property
    def num_samples(self) -> int:
        """Number of rows."""
        return self.X.shape[0]

    def rows(self, mask: np.ndarray) -> "FeatureMatrix":
        """Row subset sharing the schema."""
        mask = np.asarray(mask)
        return FeatureMatrix(
            X=self.X[mask],
            y=self.y[mask],
            schema=self.schema,
            meta={k: v[mask] for k, v in self.meta.items()},
        )

    def columns(
        self,
        include: set[str] | None = None,
        exclude: set[str] | None = None,
    ) -> tuple[np.ndarray, list[str]]:
        """Column subset by tag selection; returns ``(X_subset, names)``."""
        indices = self.schema.select(include=include, exclude=exclude)
        return self.X[:, indices], self.schema.names_for(indices)


class SampleTableBuilder:
    """Assembles a :class:`FeatureMatrix` from a trace."""

    def __init__(self, trace: Trace, *, top_k_apps: int = 16) -> None:
        if trace.num_samples == 0:
            raise ValidationError("trace has no samples")
        self._trace = trace
        self._top_k_apps = int(top_k_apps)

    def build(self) -> FeatureMatrix:
        """Compute all features for every sample in the trace."""
        trace = self._trace
        s = trace.samples
        assembler = FeatureAssembler(
            trace.machine, compute_top_apps(s["app_id"], self._top_k_apps)
        )
        X, node_today = assembler.assemble(
            s,
            *_history_indices(
                s["job_id"], s["node_id"], s["end_minute"], s["sbe_count"], s["app_id"]
            ),
        )
        meta = {name: s[name].astype(dtype) for name, dtype in _META_COLUMNS.items()}
        X[:, -1] = alloc_history(meta["run_idx"], node_today)
        return FeatureMatrix(
            X=X,
            y=(s["sbe_count"] > 0).astype(int),
            schema=assembler.schema,
            meta=meta,
        )


class FeatureAssembler:
    """The feature columns, defined once, for any set of sample rows.

    The batch builder (all rows at once), the out-of-core builder (one
    store segment at a time) and the streaming engine (one completed run
    at a time) take their schema and their row values from here, which
    is what makes their outputs bit-identical.  Every column but the
    last is a per-row computation once the global inputs (the top-app
    vocabulary and the two causal history indices) are fixed; the last,
    ``hist_alloc_today``, is the mean of ``hist_node_today`` over the
    run's nodes, so callers fill it with :func:`alloc_history` once they
    hold every row of a run.
    """

    def __init__(self, machine, top_apps: np.ndarray) -> None:
        self._top_apps = np.asarray(top_apps, dtype=int)
        schema = FeatureSchema()
        # Application features (temporal, paper §V-A).
        schema.add("app_code", GROUP_APP)
        for rank in range(self._top_apps.size):
            schema.add(f"app_is_top{rank:02d}", GROUP_APP)
        schema.add("prev_app_code", GROUP_APP)
        schema.add("prev_app_same", GROUP_APP)
        # Sample columns copied as they are: the rest of the application
        # features, then temperature/power (current run, pre-windows,
        # CPU and slot neighbours).
        self._copied_at = len(schema)
        copied = [
            (name, (GROUP_APP,))
            for name in (
                "duration_minutes",
                "n_nodes",
                "gpu_core_hours",
                "gpu_util",
                "max_mem_gb",
                "agg_mem_gb",
            )
        ]
        copied += [
            (f"{quantity}_{suffix}", (GROUP_TP, "tp_cur"))
            for quantity in ("gpu_temp", "gpu_power")
            for suffix in _STAT_SUFFIXES
        ]
        copied += [
            (f"pre{window}_{quantity}_{suffix}", (GROUP_TP, "tp_prev"))
            for window in PRE_WINDOWS_MINUTES
            for quantity in ("temp", "power")
            for suffix in _STAT_SUFFIXES
        ]
        copied += [
            (f"{quantity}_{suffix}", (GROUP_TP, "tp_nei"))
            for quantity in ("cpu_temp", "nei_temp", "nei_power")
            for suffix in _STAT_SUFFIXES
        ]
        for name, tags in copied:
            schema.add(name, *tags)
        self._copied = [name for name, _ in copied]
        # Node location (spatial, paper §V-B), looked up per node.
        self._location_at = len(schema)
        for name in (
            "loc_cabinet_x",
            "loc_cabinet_y",
            "loc_cage",
            "loc_slot",
            "loc_node_in_slot",
            "loc_node_code",
        ):
            schema.add(name, GROUP_LOCATION)
        cfg = machine.config
        node = np.arange(machine.num_nodes)
        within = node % cfg.nodes_per_cabinet
        per_cage = cfg.slots_per_cage * cfg.nodes_per_slot
        self._location = np.column_stack(
            [
                machine.cabinet_x,
                machine.cabinet_y,
                within // per_cage,
                (within % per_cage) // cfg.nodes_per_slot,
                within % cfg.nodes_per_slot,
                node,
            ]
        ).astype(float)
        # SBE history (causal; log1p-compressed counts).
        self._history_at = len(schema)
        for length in _HISTORY_WINDOWS:
            schema.add(f"hist_node_{length}", GROUP_HIST, "hist_local", f"hist_{length}")
            schema.add(f"hist_app_{length}", GROUP_HIST, "hist_app", f"hist_{length}")
            schema.add(
                f"hist_machine_{length}", GROUP_HIST, "hist_global", f"hist_{length}"
            )
        schema.add("hist_alloc_today", GROUP_HIST, "hist_local", "hist_today")
        self.schema = schema

    def assemble(
        self,
        s: dict[str, np.ndarray],
        node_index: HistoryIndex,
        app_index: HistoryIndex,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows for the sample rows in ``s``.

        Returns ``(X, node_today)``: ``X`` with every column filled but
        the last, and each row's node SBE count over the day before its
        start, from which :func:`alloc_history` derives the last column.
        """
        node_id = s["node_id"].astype(int)
        app_id = s["app_id"].astype(int)
        prev_app = s["prev_app_id"].astype(int)
        X = np.empty((node_id.size, len(self.schema)))
        top = self._top_apps.size
        X[:, 0] = app_id
        X[:, 1 : 1 + top] = app_id[:, None] == self._top_apps
        X[:, 1 + top] = prev_app
        X[:, 2 + top] = prev_app == app_id
        for j, name in enumerate(self._copied, start=self._copied_at):
            X[:, j] = s[name]
        X[:, self._location_at : self._location_at + 6] = self._location[node_id]
        start = s["start_minute"].astype(float)
        windows = (
            window_counts(node_index, node_id, start),
            window_counts(app_index, app_id, start),
            window_counts(node_index, None, start),
        )
        j = self._history_at
        for w in range(len(_HISTORY_WINDOWS)):
            for counts in windows:
                X[:, j] = np.log1p(counts[w])
                j += 1
        return X, windows[0][0]


def window_counts(
    index: HistoryIndex, keys: np.ndarray | None, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SBE counts over the today / yesterday / before windows of each start.

    One "strictly before" query over the stacked window edges
    ``start - 2d``, ``start - 1d`` and ``start``; each window is the
    difference of two edge counts.  ``keys=None`` counts machine-wide.
    """
    n = start.size
    edges = np.concatenate([start - 2 * MINUTES_PER_DAY, start - MINUTES_PER_DAY, start])
    before = index.counts_before(
        None if keys is None else np.concatenate((keys, keys, keys)), edges
    )
    return (
        before[2 * n :] - before[n : 2 * n],
        before[n : 2 * n] - before[:n],
        before[:n],
    )


def alloc_history(run_idx: np.ndarray, node_today: np.ndarray) -> np.ndarray:
    """Mean node history over each run's nodes (needs *all* rows of a run)."""
    _, run_pos = np.unique(run_idx, return_inverse=True)
    sums = np.bincount(run_pos, weights=node_today.astype(float))
    counts = np.bincount(run_pos).astype(float)
    return np.log1p(sums[run_pos] / counts[run_pos])


def _history_indices(
    job_id: np.ndarray,
    node_id: np.ndarray,
    end_minute: np.ndarray,
    sbe_count: np.ndarray,
    app_id: np.ndarray,
) -> tuple[HistoryIndex, HistoryIndex]:
    """Node-keyed and app-keyed causal SBE indices from sample columns.

    Rows with ``sbe_count == 0`` never contribute an event, so callers
    may pass either the full table or just its positive rows (in global
    row order) — the out-of-core builder does the latter, which is what
    keeps its pass over a segmented store memory-bounded.
    """
    events = dedupe_job_events(job_id, node_id, end_minute, sbe_count, app_id)
    return (
        HistoryIndex(events.node_ids, events.minutes, events.counts),
        HistoryIndex(events.app_ids, events.minutes, events.counts),
    )


def build_features(
    trace: Trace, *, top_k_apps: int = 16, sanitize: bool = False
) -> FeatureMatrix:
    """Convenience wrapper around :class:`SampleTableBuilder`.

    With ``sanitize=True`` the trace first passes through
    :func:`repro.faults.sanitizer.sanitize_trace`, which repairs or
    quarantines degraded telemetry (and is an exact no-op on clean
    traces).  Use it whenever the trace did not come straight from the
    simulator.
    """
    if sanitize:
        from repro.faults.sanitizer import sanitize_trace

        trace, _ = sanitize_trace(trace)
    spans = SpanTracer()
    with spans.span("features_build"):
        matrix = SampleTableBuilder(trace, top_k_apps=top_k_apps).build()
    _record_feature_metrics("batch", matrix, spans)
    return matrix


def _record_feature_metrics(
    builder: str, matrix: FeatureMatrix, spans: SpanTracer
) -> None:
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_features_rows_total", "Feature rows built, per builder kind."
    ).inc(matrix.num_samples, builder=builder)
    registry.counter(
        "repro_features_builds_total", "Feature builds completed."
    ).inc(builder=builder)
    registry.counter(
        "repro_features_seconds_total",
        "Wall time spent building features.",
        wall=True,
    ).inc(spans.get("features_build"), builder=builder)
    seconds = spans.get("features_build")
    if seconds > 0:
        registry.gauge(
            "repro_features_rows_per_sec",
            "Feature rows per wall second (last build).",
            wall=True,
        ).set(matrix.num_samples / seconds, builder=builder)


def build_features_from_store(
    store, *, top_k_apps: int = 16, strict: bool = False
) -> FeatureMatrix:
    """Build the feature matrix from a segmented store, out of core.

    Reads the store (:class:`repro.store.SegmentedTraceStore`) one
    segment at a time — never the whole samples table — in two passes:

    1. accumulate the global app frequency table and collect the (rare)
       positive rows that seed the causal history indices;
    2. assemble every per-row feature chunk-by-chunk with the same
       :class:`FeatureAssembler` the batch builder uses, scattering rows
       into their global positions, then finish the allocation-history
       column on the full (scalar-per-row) scratch arrays.

    The result is **bit-identical** to
    ``build_features(store.load_trace())`` — the golden feature digests
    do not distinguish the two paths — while peak memory is one segment
    plus the output matrix.  Damaged segments heal first (or raise
    :class:`~repro.utils.errors.SegmentCorruptionError` under
    ``strict``).
    """
    from repro.topology.machine import Machine

    store.recover(strict=strict)
    spans = SpanTracer()
    spans.start("features_build")
    total, dests = store.row_layout()
    if total == 0:
        raise ValidationError("store has no samples")
    machine = Machine(store.config().machine)
    num_segments = store.num_segments

    # Pass 1: global app frequencies + positive rows in global row order.
    app_counts = np.zeros(0, dtype=np.int64)
    positive_parts: list[tuple[np.ndarray, ...]] = []
    for index in range(num_segments):
        s = store.segment_samples(index)
        seg_counts = np.bincount(s["app_id"].astype(int))
        if seg_counts.size > app_counts.size:
            app_counts = np.concatenate(
                [
                    app_counts,
                    np.zeros(seg_counts.size - app_counts.size, dtype=np.int64),
                ]
            )
        app_counts[: seg_counts.size] += seg_counts
        positive = np.asarray(s["sbe_count"], dtype=np.int64) > 0
        positive_parts.append(
            (
                dests[index][positive],
                s["job_id"][positive],
                s["node_id"][positive],
                s["end_minute"][positive],
                s["sbe_count"][positive],
                s["app_id"][positive],
            )
        )
    # Same array np.bincount would produce over the full table, so the
    # (tie-sensitive) argsort ranking matches the batch builder's.
    assembler = FeatureAssembler(
        machine, np.argsort(app_counts)[::-1][: int(top_k_apps)]
    )
    dest_p, job_p, node_p, end_p, sbe_p, app_p = (
        np.concatenate([part[i] for part in positive_parts])
        for i in range(6)
    )
    order = np.argsort(dest_p)
    node_index, app_index = _history_indices(
        job_p[order], node_p[order], end_p[order], sbe_p[order], app_p[order]
    )

    # Pass 2: per-row features chunk-by-chunk, scattered to global rows.
    X = np.empty((total, len(assembler.schema)))
    node_today = np.empty(total, dtype=np.int64)
    y = np.empty(total, dtype=np.int64)
    meta = {name: np.empty(total, dtype=dtype) for name, dtype in _META_COLUMNS.items()}
    for index in range(num_segments):
        s = store.segment_samples(index)
        d = dests[index]
        X[d], node_today[d] = assembler.assemble(s, node_index, app_index)
        y[d] = s["sbe_count"] > 0
        for name, column in meta.items():
            column[d] = s[name]
    X[:, -1] = alloc_history(meta["run_idx"], node_today)
    matrix = FeatureMatrix(X=X, y=y, schema=assembler.schema, meta=meta)
    spans.stop()
    _record_feature_metrics("store", matrix, spans)
    return matrix
