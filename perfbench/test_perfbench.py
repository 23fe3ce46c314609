"""Unit tests for the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchstats import (  # noqa: E402
    backlog_grows,
    max_rate,
    open_loop_schedule,
    percentile,
    stretch_rates,
    summarize,
    tail_percentile,
)
from spantrace import Tracer, self_times  # noqa: E402


# ------------------------------------------------------- open-loop schedule
def test_schedule_hits_the_mean_rate():
    minutes = [0, 0, 1, 3, 3, 3, 7, 10, 12, 20]
    due = open_loop_schedule(minutes, rate=500.0)
    assert due[0] == 0.0
    assert len(minutes) / due[-1] == pytest.approx(500.0)


def test_schedule_gives_same_minute_events_one_due_time():
    minutes = [5, 5, 6, 6, 6, 9]
    due = open_loop_schedule(minutes, rate=100.0)
    assert due[0] == due[1]
    assert due[2] == due[3] == due[4]
    assert due[1] < due[2] < due[5]


def test_schedule_keeps_the_trace_s_spacing():
    due = open_loop_schedule([0, 1, 3], rate=3.0)
    assert due == pytest.approx([0.0, 1 / 3, 1.0])


def test_schedule_rejects_unordered_minutes_and_bad_rates():
    with pytest.raises(ValueError):
        open_loop_schedule([3, 1], rate=1.0)
    with pytest.raises(ValueError):
        open_loop_schedule([1, 2], rate=0.0)


# ------------------------------------------------- percentiles and counts
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(9) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(17_885) == 99.9
    assert tail_percentile(100_000) == 99.99
    for n in (100, 1000, 10_000, 100_000):
        p = tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 - 1e-9


def test_summarize_reports_count_median_and_tail():
    summary = summarize([float(v) for v in range(1000)])
    assert summary["n"] == 1000
    assert summary["median"] == pytest.approx(499.5)
    assert summary["tail_p"] == 99.0
    assert summary["tail"] == 989.0
    single = summarize([3.0])
    assert single == {"n": 1, "median": 3.0, "tail_p": None, "tail": None}


# ----------------------------------------------------------- span self time
def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap -> union 5;
    # child [9, 12] is clipped to [9, 10] -> 1.
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1:] == pytest.approx([3.0, 3.0, 3.0])


def test_self_time_counts_only_direct_children():
    starts, ends, parents = [0.0, 2.0, 3.0], [10.0, 8.0, 5.0], [-1, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([4.0, 4.0, 2.0])


def test_tracer_nests_spans_and_shares_event_ids():
    tracer = Tracer()
    with tracer.span("bench.root"):
        with tracer.span("gateway.ingest", event_id=7):
            with tracer.span("serve.engine"):
                pass
    assert tracer.parents == [-1, 0, 1]
    assert tracer.event_ids == [-1, 7, 7]
    table = tracer.layer_table()
    assert set(table["layers"]) == {"bench", "gateway", "serve"}
    assert sum(table["layers"].values()) == pytest.approx(table["wall_s"])


def test_tracer_awaits_coroutines_inside_the_span():
    class Service:
        async def work(self):
            await asyncio.sleep(0.02)

    original = Service.work
    tracer = Tracer()
    tracer.patch(Service, "work", "gateway.ingest")
    try:
        asyncio.run(Service().work())
    finally:
        tracer.restore()
    assert tracer.durations("gateway.ingest")[0] >= 0.015
    assert Service.work is original


def test_tracer_times_each_generator_item_and_restores():
    def produce():
        yield 1
        yield 2

    holder = types.SimpleNamespace(items=produce)
    tracer = Tracer()
    tracer.patch(holder, "items", "store.span_sim")
    assert list(holder.items()) == [1, 2]
    tracer.restore()
    assert tracer.count("store.span_sim") == 3  # two items plus the final stop
    assert holder.items is produce


# ------------------------------------------------------------ max-rate rule
def flat(n=200, level=0.005):
    return [level] * n


def test_backlog_growth_needs_a_clear_rise():
    assert not backlog_grows(flat())
    assert not backlog_grows([0.005] * 180 + [0.012] * 20)
    assert backlog_grows([0.005 + 0.001 * i for i in range(200)])


def test_max_rate_takes_the_highest_rate_meeting_both_rules():
    rising = [0.001 * i for i in range(200)]
    passes = {1000: flat(), 2000: flat(level=0.050), 4000: rising}
    assert max_rate(passes, limit_s=0.100) == 2000.0
    passes[2000] = flat(level=0.150)
    assert max_rate(passes, limit_s=0.100) == 1000.0
    assert max_rate({1000: flat(level=0.2)}, limit_s=0.100) == 0.0


def test_stretch_rates_count_completions_per_stretch():
    times = [0.0, 0.1, 0.2, 0.4, 0.6, 1.0, 1.4]
    assert stretch_rates(reversed(times), 2) == pytest.approx([10.0, 5.0, 2.5])
    assert stretch_rates(times[:2], 2) == []


# ---------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_METRICS
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["workloads"]) == set(workloads.WORKLOADS)
    for metric, effects in layers["predictions"].items():
        assert metric in workloads.LAYER_METRICS
        for effect in effects:
            assert effect["metric"] in workloads.E2E_UNITS
            assert effect["workload"] in workloads.WORKLOADS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -------------------------------------------------------------- speed probe
def test_speed_probe_samples_while_open_and_restores_the_handler():
    import signal
    import time

    from speedprobe import REFERENCE_S, SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        end = start + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert probe.slowdown() > 0
    first_at = probe.samples[0][0]
    assert probe.slowdown([(first_at, first_at)]) == probe.samples[0][1] / REFERENCE_S
    with pytest.raises(ValueError):
        probe.slowdown([(start - 2.0, start - 1.0)])
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
