"""Span recording around calls into the program's layers.

A :class:`Tracer` keeps every span in memory -- name, start, end, parent
span and an event id shared by all spans of one fleet event -- and
writes them out once, when the benchmark ends.  Spans are recorded from
the benchmark's side only: :meth:`Tracer.patch` swaps a public function
or method of a layer for a timed wrapper and :meth:`Tracer.restore` puts
the original back, so no file of the program changes.

The program runs on one thread (the fleet's shards are asyncio tasks),
so one stack gives every span the span that was open when it started as
its parent.  A handle that runs while an ``ingest`` coroutine waits on a
full shard queue therefore nests inside that ingest, and a layer's self
time -- its duration minus the union of its children -- never counts
the same instant twice.
"""

from __future__ import annotations

import asyncio
import collections.abc
import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Layer name for the benchmark's own root spans.
HARNESS = "bench"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.event_ids: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str, event_id: int = -1) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if event_id < 0 and parent >= 0:
            event_id = self.event_ids[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.event_ids.append(event_id)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        # A coroutine span can outlive the task step that opened it (an
        # ingest suspended on a full queue), so it may not be on top.
        self._stack.remove(index)

    @contextmanager
    def span(self, name: str, event_id: int = -1):
        index = self.open(name, event_id)
        try:
            yield
        finally:
            self.close(index)

    # ---------------------------------------------------------- patches
    def patch(self, owner, attr: str, name: str, event_of=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        Coroutine functions are awaited inside the span, so the span
        covers the work and not just the creation of the coroutine;
        generator functions get one span per item produced.
        ``event_of(*args)`` returns the event id for the span, or -1.
        """
        original = getattr(owner, attr)
        tracer = self

        def event(args) -> int:
            return -1 if event_of is None else event_of(*args)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index = tracer.open(name, event(args))
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.close(index)

        elif inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                items = original(*args, **kwargs)
                while True:
                    index = tracer.open(name, event(args))
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    yield item

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.open(name, event(args))
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def task_factory(self, names: dict):
        """An asyncio task factory recording each step of a task as a span.

        ``names`` maps a substring of the task coroutine's qualified name
        to the span name; other tasks are left untimed.  A step runs from
        the task's resumption to its next suspension.
        """
        tracer = self

        def factory(loop, coro, **kwargs):
            qualname = getattr(coro, "__qualname__", "")
            for part, name in names.items():
                if part in qualname:
                    coro = _TimedCoroutine(coro, tracer, name)
                    break
            return asyncio.Task(coro, loop=loop, **kwargs)

        return factory

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- analysis
    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def layer_table(self) -> dict:
        """Self time per layer (the part of a span name before the first dot).

        Only spans under a root span of the benchmark's own layer count;
        the timed wall time is the sum of those roots.
        """
        own = self_times(self.starts, self.ends, self.parents)
        root = []
        for index, parent in enumerate(self.parents):
            root.append(index if parent < 0 else root[parent])
        layers: dict[str, float] = defaultdict(float)
        spans: dict[str, float] = defaultdict(float)
        wall = 0.0
        for index, (name, seconds) in enumerate(zip(self.names, own)):
            if not self.names[root[index]].startswith(HARNESS + "."):
                continue
            layers[name.split(".", 1)[0]] += seconds
            spans[name] += seconds
            if root[index] == index:
                wall += self.ends[index] - self.starts[index]
        return {"wall_s": wall, "layers": dict(layers), "spans": dict(spans)}

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tevent_id\n")
            for row in zip(
                self.names, self.starts, self.ends, self.parents, self.event_ids
            ):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % row)


class _TimedCoroutine(collections.abc.Coroutine):
    """Coroutine proxy that records every ``send``/``throw`` as a span."""

    def __init__(self, coro, tracer: Tracer, name: str) -> None:
        self._coro = coro
        self._tracer = tracer
        self._name = name
        self.__qualname__ = coro.__qualname__

    def _step(self, method, *args):
        index = self._tracer.open(self._name)
        try:
            return method(*args)
        finally:
            self._tracer.close(index)

    def send(self, value):
        return self._step(self._coro.send, value)

    def throw(self, *args):
        return self._step(self._coro.throw, *args)

    def close(self):
        self._coro.close()

    def __await__(self):
        return self._coro.__await__()


class NullTracer:
    """Stand-in for :class:`Tracer` in untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, event_id: int = -1):
        yield


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval before the union.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    own = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own.append((end - start) - covered)
    return own


def format_layer_table(table: dict, overhead_s: float | None = None) -> str:
    """Render :meth:`Tracer.layer_table` with shares of the timed wall time."""
    wall = table["wall_s"]
    lines = [f"{'layer / span':<26}{'self s':>10}{'share':>9}"]
    for layer, seconds in sorted(table["layers"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<26}{seconds:>10.3f}{seconds / wall:>9.1%}")
        for name, own in sorted(table["spans"].items(), key=lambda kv: -kv[1]):
            if name.split(".", 1)[0] == layer:
                lines.append(f"  {name:<24}{own:>10.3f}{own / wall:>9.1%}")
    harness = table["layers"].get(HARNESS, 0.0)
    lines.append(
        f"{'timed wall':<26}{wall:>10.3f}  layers other than {HARNESS!r} "
        f"account for {1 - harness / wall:.1%}"
    )
    if overhead_s is not None:
        lines.append(f"tracing overhead: {overhead_s:+.3f} s traced minus untraced")
    return "\n".join(lines)

