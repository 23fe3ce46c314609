"""A machine-speed probe that runs alongside a measured workload.

A shared 2-core host can drift in speed by 20% or more over minutes as
other tenants come and go, far more than a regression bound.  A
:class:`SpeedProbe` times a fixed summing loop on the workload's own
core every ``INTERVAL_S`` seconds (from a ``SIGALRM`` handler, so it
interleaves with the workload on the same thread) and reports how much
slower than the reference speed the core ran, over the whole run or over
the intervals a metric was measured in.  Run times divided by that
factor read as seconds at the reference speed, which keeps comparisons
between runs -- and between commits -- steady while the host drifts.

The probe costs about 2% of the run's time, the same on every run.
"""

from __future__ import annotations

import array
import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.1
#: Bytes the probe sums (about 1.5 ms at the reference speed).  Summing
#: bytes runs in C over cached small ints, so the probe allocates nothing.
_PROBE_BYTES = bytes(250_000)
#: Probe results kept, newest overwriting oldest (410 s at 10 per second).
CAPACITY = 4096
#: Probe time at the reference speed: a shared 2-core x86 host (2.1 GHz)
#: at quiet times.
REFERENCE_S = 0.0015


def probe_loop() -> float:
    """Time one run of the fixed probe loop."""
    started = time.perf_counter()
    sum(_PROBE_BYTES)
    return time.perf_counter() - started


class SpeedProbe:
    """Context manager sampling the probe loop on a timer while it is open."""

    def __init__(self) -> None:
        # Results go into preallocated C doubles.  A float object kept from
        # inside the handler would be allocated wherever the workload's
        # objects are, keep that allocator arena from being released, and
        # so raise the workload's peak RSS (by 60 MB on the study).
        self._times = array.array("d", bytes(8 * CAPACITY))
        self._buffer = array.array("d", bytes(8 * CAPACITY))
        self._count = array.array("q", [0])
        self._previous = None

    @property
    def samples(self) -> list[tuple[float, float]]:
        """``(perf_counter time, probe seconds)`` of the samples kept."""
        kept = min(self._count[0], CAPACITY)
        return list(zip(self._times[:kept].tolist(), self._buffer[:kept].tolist()))

    def __enter__(self) -> "SpeedProbe":
        times, buffer, count = self._times, self._buffer, self._count

        def on_alarm(signum, frame) -> None:
            slot = count[0] % CAPACITY
            times[slot] = time.perf_counter()
            buffer[slot] = probe_loop()
            count[0] += 1

        self._previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, windows=None) -> float:
        """Median probe time over the reference time (1.0 at reference speed).

        ``windows`` lists ``(start, end)`` perf_counter intervals; only
        samples taken inside one count, so a metric is rescaled by the
        host's speed while that metric was measured.  ``None`` takes
        every sample.
        """
        kept = [
            seconds for at, seconds in self.samples
            if windows is None or any(start <= at <= end for start, end in windows)
        ]
        if not kept:
            raise ValueError("no probe samples in the measured windows")
        return statistics.median(kept) / REFERENCE_S
