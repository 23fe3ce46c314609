"""Tests for causal SBE history indices."""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.history import HistoryIndex, dedupe_job_events
from repro.utils.errors import ValidationError


class TestDedupeJobEvents:
    def test_collapses_multi_aprun_jobs(self):
        # Job 1 has two apruns on node 5, both carrying the job delta 3.
        events = dedupe_job_events(
            job_ids=np.array([1, 1, 2]),
            node_ids=np.array([5, 5, 5]),
            end_minutes=np.array([100.0, 200.0, 300.0]),
            sbe_counts=np.array([3, 3, 1]),
            app_ids=np.array([0, 0, 0]),
        )
        assert events.node_ids.tolist() == [5, 5]
        assert events.minutes.tolist() == [200.0, 300.0]
        assert events.counts.tolist() == [3, 1]

    def test_drops_zero_counts(self):
        events = dedupe_job_events(
            np.array([1]), np.array([2]), np.array([50.0]), np.array([0]), np.array([0])
        )
        assert events.node_ids.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            dedupe_job_events(
                np.array([1]), np.array([1, 2]), np.array([1.0]), np.array([1]), np.array([0])
            )

    def test_job_ids_and_last_occurrence_app(self):
        # (job 7, node 2) appears three times; the last table row (app 9,
        # a zero-count row) names the event's app, the latest positive
        # row (minute 40) stamps it.
        events = dedupe_job_events(
            job_ids=np.array([7, 7, 3, 7]),
            node_ids=np.array([2, 2, 4, 2]),
            end_minutes=np.array([40.0, 10.0, 5.0, 50.0]),
            sbe_counts=np.array([2, 2, 1, 0]),
            app_ids=np.array([1, 5, 6, 9]),
        )
        assert events.job_ids.tolist() == [3, 7]
        assert events.node_ids.tolist() == [4, 2]
        assert events.app_ids.tolist() == [6, 9]
        assert events.minutes.tolist() == [5.0, 40.0]
        assert events.counts.tolist() == [1, 2]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.sampled_from([0.0, 10.0, 20.0, 30.0]),
                st.integers(0, 3),
                st.integers(0, 5),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sort_and_dict_oracle(self, rows):
        """The one vectorized helper equals the former per-caller copies:
        a positive-row lexsort dedupe plus a row-by-row app dict."""
        job, node, end, count, app = (
            np.array([r[i] for r in rows], dtype=float if i == 2 else int)
            for i in range(5)
        )
        events = dedupe_job_events(job, node, end, count, app)
        app_of = {}
        for j, nd, ap in zip(job.tolist(), node.tolist(), app.tolist()):
            app_of[(j, nd)] = ap
        positive = count > 0
        order = np.lexsort((end[positive], node[positive], job[positive]))
        j_s, n_s, e_s, c_s = (
            a[positive][order] for a in (job, node, end, count)
        )
        last = np.ones(j_s.size, dtype=bool)
        last[:-1] = (j_s[:-1] != j_s[1:]) | (n_s[:-1] != n_s[1:])
        assert events.job_ids.tolist() == j_s[last].tolist()
        assert events.node_ids.tolist() == n_s[last].tolist()
        assert events.minutes.tolist() == e_s[last].tolist()
        assert events.counts.tolist() == c_s[last].tolist()
        assert events.app_ids.tolist() == [
            app_of[key] for key in zip(j_s[last].tolist(), n_s[last].tolist())
        ]


class TestHistoryIndex:
    @pytest.fixture()
    def index(self):
        return HistoryIndex(
            keys=np.array([1, 1, 2, 1]),
            minutes=np.array([10.0, 50.0, 30.0, 90.0]),
            counts=np.array([2, 3, 7, 1]),
        )

    def test_count_between(self, index):
        assert index.count_between(1, 0.0, 100.0) == 6
        assert index.count_between(1, 10.0, 50.0) == 2  # [10, 50) excludes 50
        assert index.count_between(1, 50.0, 90.0) == 3
        assert index.count_between(2, 0.0, 100.0) == 7
        assert index.count_between(99, 0.0, 100.0) == 0

    def test_count_before(self, index):
        assert index.count_before(1, 50.0) == 2
        assert index.count_before(1, 50.1) == 5

    def test_global_counts(self, index):
        assert index.global_before(100.0) == 13
        assert index.global_between(20.0, 60.0) == 10

    def test_keys_before(self, index):
        assert index.keys_before(5.0).tolist() == []
        assert index.keys_before(15.0).tolist() == [1]
        assert index.keys_before(40.0).tolist() == [1, 2]

    def test_batch_matches_scalar(self, index):
        keys = np.array([1, 2, 1, 99])
        starts = np.array([0.0, 0.0, 40.0, 0.0])
        ends = np.array([100.0, 25.0, 95.0, 100.0])
        batch = index.batch_between(keys, starts, ends)
        scalar = [
            index.count_between(int(k), float(a), float(b))
            for k, a, b in zip(keys, starts, ends)
        ]
        assert batch.tolist() == scalar

    def test_global_batch(self, index):
        out = index.global_batch_between(np.array([0.0, 20.0]), np.array([100.0, 60.0]))
        assert out.tolist() == [13, 10]

    def test_batch_shape_mismatch(self, index):
        with pytest.raises(ValidationError):
            index.batch_between(np.array([1]), np.array([0.0, 1.0]), np.array([2.0]))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0, 1000, allow_nan=False),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(0, 1000, allow_nan=False),
        st.floats(0, 1000, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_matches_bruteforce(self, events, a, b):
        lo, hi = min(a, b), max(a, b)
        keys = np.array([e[0] for e in events])
        minutes = np.array([e[1] for e in events])
        counts = np.array([e[2] for e in events])
        index = HistoryIndex(keys, minutes, counts)
        for key in range(4):
            expected = sum(
                c for k, m, c in events if k == key and lo <= m < hi
            )
            assert index.count_between(key, lo, hi) == expected


class PerRowOracle:
    """The former event-at-a-time index: per-key lists and ``bisect``.

    Streaming history was answered with one :meth:`count_between` call
    per row and window; the vectorized :class:`HistoryIndex` must agree
    with it exactly.
    """

    def __init__(self, events):
        self.times: dict[int, list[float]] = {}
        self.cums: dict[int, list[int]] = {}
        self.all_times: list[float] = []
        self.all_cums: list[int] = []
        for key, minute, count in sorted(events, key=lambda e: e[1]):
            for times, cums in (
                (self.times.setdefault(key, []), self.cums.setdefault(key, [])),
                (self.all_times, self.all_cums),
            ):
                times.append(minute)
                cums.append((cums[-1] if cums else 0) + count)

    @staticmethod
    def _window(times, cums, start, end):
        hi, lo = bisect_left(times, end), bisect_left(times, start)
        return (cums[hi - 1] if hi else 0) - (cums[lo - 1] if lo else 0)

    def count_between(self, key, start, end):
        return self._window(
            self.times.get(key, []), self.cums.get(key, []), start, end
        )

    def global_between(self, start, end):
        return self._window(self.all_times, self.all_cums, start, end)


_events = st.lists(
    st.tuples(
        st.integers(0, 5),
        # Few distinct minutes, so ties are common.
        st.sampled_from([0.0, 1.0, 2.5, 10.0, 1440.0, 2880.0]),
        st.integers(1, 5),
    ),
    max_size=30,
)
_bounds = st.sampled_from([-np.inf, 0.0, 1.0, 2.5, 5.0, 10.0, 1440.0, 2880.0, 4000.0])


class TestVectorizedIndexDifferential:
    @given(_events, st.lists(st.tuples(st.integers(0, 7), _bounds, _bounds), max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_vectorized_equals_per_row_oracle(self, events, queries):
        # Keys 6 and 7 never hold an event; an empty event list is drawn too.
        oracle = PerRowOracle(events)
        index = HistoryIndex(
            np.array([e[0] for e in events], dtype=int),
            np.array([e[1] for e in events], dtype=float),
            np.array([e[2] for e in events], dtype=int),
        )
        keys = np.array([q[0] for q in queries], dtype=int)
        lo = np.array([min(q[1], q[2]) for q in queries], dtype=float)
        hi = np.array([max(q[1], q[2]) for q in queries], dtype=float)
        expected = [oracle.count_between(*q) for q in zip(keys.tolist(), lo, hi)]
        assert index.batch_between(keys, lo, hi).tolist() == expected
        assert index.global_batch_between(lo, hi).tolist() == [
            oracle.global_between(a, b) for a, b in zip(lo, hi)
        ]
        assert index.counts_before(keys, hi).tolist() == [
            oracle.count_between(k, -np.inf, b) for k, b in zip(keys.tolist(), hi)
        ]

    @given(_events, st.lists(st.tuples(st.integers(0, 7), _bounds), max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_array_built_equals_added(self, events, queries):
        events = sorted(events, key=lambda e: e[1])  # arrival order
        built = HistoryIndex(
            np.array([e[0] for e in events], dtype=int),
            np.array([e[1] for e in events], dtype=float),
            np.array([e[2] for e in events], dtype=int),
        )
        added = HistoryIndex()
        for i, (key, minute, count) in enumerate(events):
            added.add(key, minute, count)
            if i % 3 == 0:  # queries interleaved with adds
                added.counts_before(None, [minute])
        keys = np.array([q[0] for q in queries], dtype=int)
        minutes = np.array([q[1] for q in queries], dtype=float)
        assert len(added) == len(built) == len(events)
        assert added.last_minute == built.last_minute
        assert (
            added.counts_before(keys, minutes).tolist()
            == built.counts_before(keys, minutes).tolist()
        )
        assert (
            added.counts_before(None, minutes).tolist()
            == built.counts_before(None, minutes).tolist()
        )
        for minute in minutes.tolist():
            assert added.keys_before(minute).tolist() == built.keys_before(minute).tolist()

    def test_keys_outside_code_range_rejected(self):
        with pytest.raises(ValidationError):
            HistoryIndex(np.array([2**31]), np.array([0.0]), np.array([1]))
        with pytest.raises(ValidationError):
            HistoryIndex().counts_before(np.array([-(2**31)]), np.array([0.0]))


class TestIncrementalHistoryIndex:
    """:meth:`HistoryIndex.add` feeds events one at a time."""

    def test_requires_nondecreasing_minutes(self):
        index = HistoryIndex()
        index.add(1, 10.0, 2)
        index.add(2, 10.0, 1)  # equal minutes are fine
        with pytest.raises(ValidationError):
            index.add(1, 9.0, 1)

    def test_empty_index_counts_zero(self):
        index = HistoryIndex()
        assert len(index) == 0
        assert index.count_between(5, 0.0, 100.0) == 0
        assert index.global_before(1e9) == 0
        assert index.keys_before(1e9).tolist() == []

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0, 1000, allow_nan=False),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(0, 1000, allow_nan=False),
        st.floats(0, 1000, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_index_on_sorted_events(self, events, a, b):
        """Feeding the same events one at a time must reproduce the batch
        index's window semantics exactly (the streaming-parity substrate)."""
        lo, hi = min(a, b), max(a, b)
        events = sorted(events, key=lambda e: e[1])  # arrival order
        keys = np.array([e[0] for e in events])
        minutes = np.array([e[1] for e in events])
        counts = np.array([e[2] for e in events])
        batch = HistoryIndex(keys, minutes, counts)
        incremental = HistoryIndex()
        for key, minute, count in events:
            incremental.add(key, minute, count)
        assert len(incremental) == len(events)
        for key in range(4):
            assert incremental.count_between(key, lo, hi) == batch.count_between(
                key, lo, hi
            )
            assert incremental.count_before(key, hi) == batch.count_before(key, hi)
        assert incremental.global_between(lo, hi) == batch.global_between(lo, hi)
        assert incremental.global_before(hi) == batch.global_before(hi)
        assert incremental.keys_before(hi).tolist() == batch.keys_before(hi).tolist()
