"""Causal SBE-history indices.

The paper's history features ("total error count over the preceding day at
the node level and for the whole machine", "SBE rate in the past 24 hours
of the given application and the nodes allocated to it") must be computed
*causally*: at a run's start time, only SBEs whose batch job had already
completed — and therefore had its nvidia-smi delta resolved — are
observable.  :class:`HistoryIndex` stores ``(key, minute, count)`` SBE
events (key = node id, app id) and answers one vectorized question:
how many SBEs, per key or machine-wide, happened strictly before a
minute.  Every window count is a difference of two such answers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.utils.errors import ValidationError

__all__ = ["HistoryIndex", "JobEvents", "dedupe_job_events"]

#: Keys are packed as ``key * _KEY_STRIDE + event_index`` into int64 codes,
#: which orders events by (key, time) and bounds both factors.
_KEY_STRIDE = 1 << 32
_KEY_LIMIT = 1 << 31


class JobEvents(NamedTuple):
    """Per-(job, node) SBE events, sorted by (job, node)."""

    job_ids: np.ndarray
    node_ids: np.ndarray
    #: App of each event: its (job, node)'s last samples-table occurrence.
    app_ids: np.ndarray
    minutes: np.ndarray
    counts: np.ndarray


def dedupe_job_events(
    job_ids: np.ndarray,
    node_ids: np.ndarray,
    end_minutes: np.ndarray,
    sbe_counts: np.ndarray,
    app_ids: np.ndarray,
) -> JobEvents:
    """Collapse per-(run, node) rows into per-(job, node) SBE events.

    A batch job's SBE delta is attributed to *every* aprun of the job (the
    paper's conservative assumption), so summing sample rows would double
    count errors for multi-aprun jobs.  This keeps one event per
    ``(job, node)`` with a positive count, at the latest end minute of
    that pair's positive rows (the later row wins ties).  The event's app
    is that of the pair's last row among the rows given.
    """
    job_ids = np.asarray(job_ids, dtype=int)
    node_ids = np.asarray(node_ids, dtype=int)
    end_minutes = np.asarray(end_minutes, dtype=float)
    sbe_counts = np.asarray(sbe_counts, dtype=np.int64)
    app_ids = np.asarray(app_ids, dtype=int)
    if not (
        job_ids.shape
        == node_ids.shape
        == end_minutes.shape
        == sbe_counts.shape
        == app_ids.shape
    ):
        raise ValidationError("event arrays must share one shape")
    positive = sbe_counts > 0
    if not positive.any():
        empty = np.empty(0, dtype=int)
        return JobEvents(empty, empty, empty, np.empty(0), np.empty(0, dtype=np.int64))
    # Sort by (job, node), zero rows first, then end minute; the stable
    # sort keeps table order among ties, so the last row of each pair is
    # its latest positive row.
    order = np.lexsort((end_minutes, positive, node_ids, job_ids))
    job_s, node_s = job_ids[order], node_ids[order]
    is_last = np.ones(order.size, dtype=bool)
    is_last[:-1] = (job_s[:-1] != job_s[1:]) | (node_s[:-1] != node_s[1:])
    first = np.flatnonzero(np.concatenate(([True], is_last[:-1])))
    last_row = np.maximum.reduceat(order, first)
    keep = order[is_last][positive[order][is_last]]
    return JobEvents(
        job_ids=job_ids[keep],
        node_ids=node_ids[keep],
        app_ids=app_ids[last_row[positive[order][is_last]]],
        minutes=end_minutes[keep],
        counts=sbe_counts[keep],
    )


def _check_keys(keys: np.ndarray) -> None:
    if keys.size and (keys.min() <= -_KEY_LIMIT or keys.max() >= _KEY_LIMIT):
        raise ValidationError("history keys must lie in (-2**31, 2**31)")


class HistoryIndex:
    """SBE events keyed by node or app, with causal window counts.

    Build one from event arrays in any order, or feed events one at a
    time with :meth:`add` in non-decreasing minute order (how an online
    collector sees them); both give the same answers.  An event counts
    toward ``[start, end)`` when ``start <= t < end``.
    """

    def __init__(
        self,
        keys: np.ndarray = (),
        minutes: np.ndarray = (),
        counts: np.ndarray = (),
    ) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        minutes = np.asarray(minutes, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        if not (keys.shape == minutes.shape == counts.shape):
            raise ValidationError("index arrays must share one shape")
        _check_keys(keys)
        order = np.argsort(minutes, kind="stable")
        self._keys = keys[order]
        self._minutes = minutes[order]
        self._counts = counts[order]
        self._added: list[tuple[int, float, int]] = []
        self._dirty = True

    def __len__(self) -> int:
        """Number of events held."""
        return self._minutes.size + len(self._added)

    @property
    def last_minute(self) -> float:
        """Minute of the latest event (``-inf`` when empty)."""
        if self._added:
            return self._added[-1][1]
        return float(self._minutes[-1]) if self._minutes.size else -np.inf

    def add(self, key: int, minute: float, count: int) -> None:
        """Append one SBE event; minutes must be non-decreasing."""
        minute = float(minute)
        if minute < self.last_minute:
            raise ValidationError(
                f"events must arrive in time order: {minute} after "
                f"{self.last_minute}"
            )
        _check_keys(np.asarray(key))
        self._added.append((int(key), minute, int(count)))
        self._dirty = True

    def _refresh(self) -> None:
        """Fold added events in and rebuild the (key, time) lookup."""
        if self._added:
            keys, minutes, counts = zip(*self._added)
            self._keys = np.concatenate([self._keys, np.asarray(keys, dtype=np.int64)])
            self._minutes = np.concatenate([self._minutes, minutes])
            self._counts = np.concatenate(
                [self._counts, np.asarray(counts, dtype=np.int64)]
            )
            self._added = []
        self._cums = np.concatenate(([0], np.cumsum(self._counts)))
        by_key = np.argsort(self._keys, kind="stable")
        self._codes = self._keys[by_key] * _KEY_STRIDE + by_key
        self._key_cums = np.concatenate(([0], np.cumsum(self._counts[by_key])))
        self._dirty = False

    def counts_before(self, keys: np.ndarray | None, minutes: np.ndarray) -> np.ndarray:
        """SBEs strictly before each minute: per key, or machine-wide.

        ``keys`` and ``minutes`` are parallel arrays; ``keys=None`` counts
        every key.  Events sit in time order, so the events before a
        minute are a prefix, and a key's share of that prefix is a range
        of its (key, time)-ordered codes.
        """
        if self._dirty:
            self._refresh()
        minutes = np.asarray(minutes, dtype=float)
        prefix = np.searchsorted(self._minutes, minutes, side="left")
        if keys is None:
            return self._cums[prefix]
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape != minutes.shape:
            raise ValidationError("batch query arrays must share one shape")
        _check_keys(keys)
        base = keys * _KEY_STRIDE
        hi = np.searchsorted(self._codes, base + prefix, side="left")
        lo = np.searchsorted(self._codes, base, side="left")
        return self._key_cums[hi] - self._key_cums[lo]

    def batch_between(
        self, keys: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """SBEs per key with event time in ``[start, end)``, vectorized."""
        keys = np.asarray(keys)
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if not (keys.shape == starts.shape == ends.shape):
            raise ValidationError("batch query arrays must share one shape")
        counts = self.counts_before(np.tile(keys, 2), np.concatenate([ends, starts]))
        return counts[: keys.size] - counts[keys.size :]

    def global_batch_between(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Machine-wide SBEs in ``[start, end)``, vectorized."""
        return self.counts_before(None, ends) - self.counts_before(None, starts)

    def count_between(self, key: int, start_minute: float, end_minute: float) -> int:
        """SBEs for ``key`` whose event time falls in ``[start, end)``."""
        return int(self.batch_between([key], [start_minute], [end_minute])[0])

    def count_before(self, key: int, minute: float) -> int:
        """SBEs for ``key`` strictly before ``minute``."""
        return int(self.counts_before([key], [minute])[0])

    def global_between(self, start_minute: float, end_minute: float) -> int:
        """Machine-wide SBEs in ``[start, end)``."""
        return int(self.global_batch_between([start_minute], [end_minute])[0])

    def global_before(self, minute: float) -> int:
        """Machine-wide SBEs strictly before ``minute``."""
        return int(self.counts_before(None, [minute])[0])

    def keys_before(self, minute: float) -> np.ndarray:
        """Keys with at least one SBE strictly before ``minute``.

        This is the paper's stage-1 predicate: "has this node seen an SBE
        before?" evaluated causally at prediction time.
        """
        if self._dirty:
            self._refresh()
        prefix = int(np.searchsorted(self._minutes, minute, side="left"))
        return np.unique(self._keys[:prefix]).astype(int)
