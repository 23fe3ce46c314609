"""Summary statistics, the open-loop schedule, stretch rates and the max-rate rule.

Pure functions over plain lists, so the unit tests in
``test_perfbench.py`` can check them without running a workload.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles a timing may be summarised by, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(p * len(ordered) / 100.0 - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest tail percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        # The tolerance absorbs float error in 100 - p (e.g. 100 - 99.9).
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def summarize(values) -> dict:
    """Median plus the highest supported tail percentile, with the count."""
    values = list(values)
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": statistics.median(values),
        "tail_p": p,
        "tail": None if p is None else percentile(values, p),
    }


def format_summary(summary: dict, unit: str, scale: float = 1.0) -> str:
    """One-line rendering of :func:`summarize` output."""
    text = f"median {summary['median'] * scale:.4g} {unit}"
    if summary["tail_p"] is not None:
        text += f", p{summary['tail_p']:g} {summary['tail'] * scale:.4g} {unit}"
    return text + f" (n={summary['n']})"


def open_loop_schedule(minutes, rate: float) -> list[float]:
    """Due times in seconds for events at trace ``minutes``, at mean ``rate``/s.

    Event minutes are compressed linearly so the span from the first to
    the last event lasts ``len(minutes) / rate`` seconds: the mean rate is
    ``rate`` and the trace's own bursts are kept (events of one minute
    share a due time).
    """
    minutes = list(minutes)
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not minutes:
        return []
    first, last = minutes[0], minutes[-1]
    if last < first:
        raise ValueError("event minutes must be non-decreasing")
    if last == first:
        return [0.0] * len(minutes)
    scale = len(minutes) / rate / (last - first)
    return [(minute - first) * scale for minute in minutes]


def stretch_rates(times, stretch: int) -> list[float]:
    """Completions per second over consecutive stretches of ``stretch`` completions.

    ``times`` are completion times in seconds, in any order.  Stretch k
    runs from completion ``k * stretch`` to completion ``(k + 1) * stretch``;
    a short last stretch is dropped.  Their median is a throughput that a
    brief stall of the host moves far less than events / wall time does.
    """
    ordered = sorted(times)
    return [
        stretch / (ordered[k + stretch] - ordered[k])
        for k in range(0, len(ordered) - stretch, stretch)
    ]


def backlog_grows(latencies) -> bool:
    """True when the last tenth of events waits clearly longer than the first.

    "Clearly" means a median more than twice the first tenth's plus 10 ms,
    so a pass whose latency only jitters around a flat level never counts.
    """
    latencies = list(latencies)
    k = max(1, len(latencies) // 10)
    first = statistics.median(latencies[:k])
    last = statistics.median(latencies[-k:])
    return last > 2.0 * first + 0.010


def max_rate(passes, limit_s: float) -> float:
    """Highest offered rate whose p99 is within ``limit_s`` and whose backlog holds.

    ``passes`` maps a rate to that pass's per-event latencies in seconds,
    in send order.  Returns 0.0 when no rate qualifies.
    """
    best = 0.0
    for rate, latencies in passes.items():
        if percentile(latencies, 99.0) <= limit_s and not backlog_grows(latencies):
            best = max(best, float(rate))
    return best
