"""The benchmark's three workloads: ``study``, ``store`` and ``fleet``.

Each workload returns a :class:`Result`: the end-to-end metrics (every
workload reports the same names, see ``README.md`` for what each means
per workload), the per-layer metrics of a traced run, the outcome of its
correctness checks, and operations attempted and failed.

All three run on a trace simulated from a fixed seed (``--trace-seed``,
default 2018, the ``small`` preset's own seed): trace size moves with the
trace seed by about a quarter either way on the ``small`` machine, which
would swamp any regression bound.  The run seed (``--seed``) seeds the
fleet's served model, whose size is fixed (40 trees, no early stopping).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import PredictionPipeline
from repro.core.twostage import TwoStagePredictor
from repro.experiments.presets import preset_config, split_plan
from repro.features.builder import build_features, build_features_from_store
from repro.features.splits import make_paper_splits
from repro.gateway import Gateway, GatewayConfig, build_gateway
from repro.gateway.fleet import build_fleet
from repro.ml.metrics import f1_score
from repro.serve.engine import StreamingFeatureEngine, rows_to_matrix
from repro.serve.events import RunCompleted, RunStarted
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import SupervisedScorer
from repro.serve.scorer import MicroBatchScorer
from repro.serve.worker import ScorerWorker
from repro.store import SegmentedTraceStore, simulate_trace_to_store
from repro.telemetry.simulator import simulate_trace

import repro.gateway.core as gateway_core
import repro.store.pipeline as store_pipeline

from benchstats import format_summary, max_rate, percentile, stretch_rates, summarize
from benchstats import open_loop_schedule
from spantrace import HARNESS, NullTracer, Tracer, format_layer_table

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (stores, registries, span dumps).
WORK = ROOT / ".perfbench"

STORE_DAYS = 20.0
STORE_SEGMENTS = 8
#: Open-loop rates: their per-rate tails, generator lateness and the
#: highest rate meeting the latency limit are per-layer metrics.  The
#: end-to-end latency is read closed loop (one event at a time) and the
#: throughput flat out: an open-loop latency grows faster than the host
#: slows, as queueing adds to it, so the speed probe cannot take the
#: host's drift out of it.
FLEET_RATES = (1000, 2000, 4000)
#: Closed-loop passes send the events of the trace's first 35 days and
#: open-loop passes those of its first 7, which keeps a run within its
#: time budget; flood passes send every event.
CLOSED_DAYS = 35.0
OPEN_DAYS = 7.0
#: Completions per stretch of a flood pass's throughput (35 per pass).
FLOOD_STRETCH = 500
#: Events a flood pass keeps in the gateway, well below its queue bound.
FLOOD_IN_FLIGHT = 256
#: Closed-loop and flood passes per run, spread over the run so that one
#: slow spell of the host weighs less.
REPEATS = 3
#: One shard: with more, the gateway computes ``hist_alloc_today`` over
#: each shard's share of a run's nodes, unlike the batch builder, and the
#: alert-score check fails (see README.md, "Known defect").
FLEET_SHARDS = 1
FLEET_CLIENTS = 2
FLEET_BATCH = 64
LATENCY_LIMIT_S = 0.100
IMPORT_REPEATS = 3
#: The study's GBDT seed, as in the paper experiments.  Its early stopping
#: makes the tree count, and so fit time, move by about 15% with the seed,
#: so the study does not take the run seed.
STUDY_MODEL_SEED = 0

#: Per-layer metrics and units; every traced run reports all of them,
#: with 0 for a layer the workload does not call.
LAYER_METRICS = {
    "telemetry.simulate_s": "s",
    "telemetry.samples_per_s": "1/s",
    "store.span_sim_s": "s",
    "store.write_s": "s",
    "store.verify_s": "s",
    "store.bytes": "bytes",
    "store.segments": "count",
    "features.build_s": "s",
    "features.rows_per_s": "1/s",
    "features.from_store_s": "s",
    "core.fit_s": "s",
    "ml.trees": "count",
    "core.predict_s": "s",
    "core.predict_rows": "count",
    "serve.handle_s": "s",
    "serve.engine_s": "s",
    "serve.engine_calls": "count",
    "serve.rows_emitted": "count",
    "serve.engine_us_per_row": "us",
    "serve.scorer_s": "s",
    "serve.batches": "count",
    "serve.rows_per_batch": "ratio",
    "gateway.ingest_s": "s",
    "gateway.deliveries_per_event": "ratio",
    "gateway.queue_wait_ms.p99": "ms",
    "gateway.build_s": "s",
    "loadgen.late_ms.r1000": "ms",
    "loadgen.late_ms.r2000": "ms",
    "loadgen.late_ms.r4000": "ms",
    "fleet.p99_ms.r1000": "ms",
    "fleet.p99_ms.r2000": "ms",
    "fleet.p99_ms.r4000": "ms",
    "fleet.max_rate": "1/s",
    "bench.trace_overhead_s": "s",
    "bench.layer_coverage": "ratio",
}

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Result:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def finish_e2e(self, setup_s: float, setup_n: int, latencies_s, throughput: float,
                   throughput_n: int, windows: dict) -> None:
        """Record the end-to-end metrics, measured at the host's speed.

        ``windows`` maps each timed metric to the perf_counter intervals
        it was measured in, for :meth:`at_reference_speed`.
        """
        self.windows = windows
        self.counts = {
            "setup_s": setup_n,
            "latency_p50_ms": len(latencies_s),
            "throughput_per_s": throughput_n,
            "peak_rss_mb": 1,
        }
        self.e2e = {
            "setup_s": setup_s,
            "latency_p50_ms": statistics.median(latencies_s) * 1e3,
            "throughput_per_s": throughput,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def at_reference_speed(self, probe) -> None:
        """Rescale each timed metric to the reference speed.

        The factor is the speed probe's reading while that metric was
        measured (see ``speedprobe.SpeedProbe.slowdown``).
        """
        factors = {name: probe.slowdown(self.windows[name]) for name in self.windows}
        self.lines.append("machine speed (probe / reference time) and raw value: " + ", ".join(
            f"{name} {factors[name]:.3f}x {self.e2e[name]:.6g}" for name in factors))
        self.e2e["setup_s"] /= factors["setup_s"]
        self.e2e["latency_p50_ms"] /= factors["latency_p50_ms"]
        self.e2e["throughput_per_s"] *= factors["throughput_per_s"]


# ---------------------------------------------------------------- shared
def small_config(trace_seed: int, **changes):
    return dataclasses.replace(preset_config("small"), seed=trace_seed, **changes)


def small_splits(duration_days: float):
    plan = split_plan("small")
    return make_paper_splits(
        train_days=plan["train_days"],
        test_days=plan["test_days"],
        offsets_days=tuple(plan["offsets"]),
        duration_days=duration_days,
    )


def import_seconds(modules: list[str]) -> float:
    """Median wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def matrix_digest(matrix) -> str:
    """SHA-256 over a feature matrix's schema and arrays, bit for bit."""
    hasher = hashlib.sha256(repr(matrix.schema).encode())
    for name, array in [("X", matrix.X), ("y", matrix.y), *sorted(matrix.meta.items())]:
        array = np.ascontiguousarray(array)
        hasher.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def source_digest() -> str:
    """Digest of the program's source, so recorded digests follow the code."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def recorded_digest(key: str, digest: str) -> str:
    """Record ``digest`` under ``key``; return the first digest ever recorded."""
    path = WORK / "digests.json"
    WORK.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    first = known.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return first


def ratio_line(name: str, top: float, base: float, unit: str = "") -> str:
    value = top / base if base else 0.0
    return f"  {name}: {top:.6g} / {base:.6g} = {value:.6g}{(' ' + unit) if unit else ''}"


def batch_passes(run_pass, seconds: float, traced: bool, tracer: Tracer) -> list[dict]:
    """Untraced passes until ``seconds`` have passed (at least one).

    A traced run makes one untraced pass and then one traced pass.
    """
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(NullTracer()))
        if traced or time.perf_counter() - started >= seconds:
            break
    if traced:
        passes.append(run_pass(tracer))
    return passes


def finish_trace(result: Result, tracer: Tracer, workload: str, overhead_s: float):
    table = tracer.layer_table()
    harness = table["layers"].get(HARNESS, 0.0)
    coverage = 1.0 - harness / table["wall_s"]
    result.layers["bench.trace_overhead_s"] = overhead_s
    result.layers["bench.layer_coverage"] = coverage
    result.lines.append("per-layer self time (traced run):")
    result.lines.append(format_layer_table(table, overhead_s))
    result.check("layer table covers >= 95% of timed wall", coverage >= 0.95,
                 f"{coverage:.1%}")
    path = WORK / f"spans-{workload}.tsv"
    tracer.dump(path)
    result.lines.append(f"{len(tracer.names)} spans written to {path.relative_to(ROOT)}")


# ----------------------------------------------------------------- study
def study_pass(trace_seed: int, tracer) -> dict:
    """Config -> simulate -> features -> TwoStage GBDT fit on DS1 -> F1."""
    config = small_config(trace_seed)
    started = time.perf_counter()
    with tracer.span("bench.study"):
        with tracer.span("telemetry.simulate"):
            trace = simulate_trace(config)
        with tracer.span("features.build"):
            features = build_features(trace)
        with tracer.span("core.split"):
            pipeline = PredictionPipeline(features, small_splits(config.duration_days))
            train, test = pipeline.train_test("DS1")
        predictor = TwoStagePredictor("gbdt", random_state=STUDY_MODEL_SEED)
        with tracer.span("core.fit"):
            predictor.fit(train)
        with tracer.span("core.predict"):
            predicted = predictor.predict(test)
        f1 = f1_score(test.y, predicted)
    ended = time.perf_counter()
    return {
        "seconds": ended - started,
        "window": (started, ended),
        "samples": trace.num_samples,
        "rows": features.num_samples,
        "predictor": predictor,
        "test": test,
        "f1": f1,
    }


def run_study(trace_seed: int, run_seed: int, seconds: float, traced: bool) -> Result:
    result = Result()
    begun = time.perf_counter()
    setup_s = import_seconds(
        ["repro.telemetry.simulator", "repro.features.builder", "repro.core.twostage"]
    )
    setup_window = (begun, time.perf_counter())
    tracer = Tracer()
    passes = batch_passes(lambda t: study_pass(trace_seed, t), seconds, traced, tracer)
    result.attempted += 5 * len(passes)
    timed = passes[:1] if traced else passes

    digests = []
    for one in passes:
        scores = one["predictor"].decision_scores(one["test"])
        digests.append(hashlib.sha256(scores.tobytes()).hexdigest()[:16])
    last = passes[-1]
    key = f"study:{source_digest()}:{trace_seed}"
    first = recorded_digest(key, digests[0])
    result.check("test-score digest repeats across passes", len(set(digests)) == 1,
                 ", ".join(digests))
    result.check("test-score digest repeats across runs of this seed",
                 first == digests[0], f"recorded {first}, now {digests[0]}")
    result.check("F1 is a number in (0, 1]", 0.0 < last["f1"] <= 1.0, f"{last['f1']:.4f}")

    latencies = [one["seconds"] for one in timed]
    pass_windows = [one["window"] for one in timed]
    result.finish_e2e(setup_s, IMPORT_REPEATS, latencies,
                      last["samples"] / statistics.median(latencies), len(latencies), {
                          "setup_s": [setup_window],
                          "latency_p50_ms": pass_windows,
                          "throughput_per_s": pass_windows,
                      })
    result.lines += [
        f"study: trace seed {trace_seed}, model seed {STUDY_MODEL_SEED}, "
        f"{last['samples']} samples, DS1 test rows {last['test'].num_samples}",
        f"  DS1 F1 {last['f1']:.4f}, test-score digest {digests[0]}",
        f"  pass time {format_summary(summarize(latencies), 's')}",
        ratio_line("throughput (samples / s)", last["samples"],
                   statistics.median(latencies), "1/s"),
    ]
    if traced:
        simulate_s = tracer.total("telemetry.simulate")
        build_s = tracer.total("features.build")
        result.layers.update({
            "telemetry.simulate_s": simulate_s,
            "telemetry.samples_per_s": last["samples"] / simulate_s,
            "features.build_s": build_s,
            "features.rows_per_s": last["rows"] / build_s,
            "core.fit_s": tracer.total("core.fit"),
            "ml.trees": last["predictor"].kernel_stats()["n_trees"],
            "core.predict_s": tracer.total("core.predict"),
            "core.predict_rows": last["test"].num_samples,
        })
        finish_trace(result, tracer, "study", passes[-1]["seconds"] - passes[0]["seconds"])
    return result


# ----------------------------------------------------------------- store
def store_pass(config, root: Path, tracer) -> dict:
    """Config -> per-span simulation into segments -> verify -> features."""
    if isinstance(tracer, Tracer):
        tracer.patch(store_pipeline, "iter_shard_results", "store.span_sim")
        tracer.patch(store_pipeline, "write_segment", "store.write")
    started = time.perf_counter()
    try:
        with tracer.span("bench.store"):
            with tracer.span("store.simulate_to_store"):
                store = simulate_trace_to_store(config, root, segments=STORE_SEGMENTS)
            with tracer.span("store.verify"):
                statuses = store.verify()
            with tracer.span("features.from_store"):
                features = build_features_from_store(store)
    finally:
        if isinstance(tracer, Tracer):
            tracer.restore()
    ended = time.perf_counter()
    return {
        "seconds": ended - started,
        "window": (started, ended),
        "store": store,
        "statuses": statuses,
        "features": matrix_digest(features),
    }


def run_store(trace_seed: int, run_seed: int, seconds: float, traced: bool) -> Result:
    result = Result()
    begun = time.perf_counter()
    setup_s = import_seconds(["repro.store", "repro.features.builder"])
    setup_window = (begun, time.perf_counter())
    config = small_config(trace_seed, duration_days=STORE_DAYS)
    root = WORK / f"store-{os.getpid()}"
    tracer = Tracer()
    try:
        passes = batch_passes(lambda t: store_pass(config, root, t), seconds, traced, tracer)
        last = passes[-1]
        store = last["store"]
        for one in passes:
            result.attempted += 2 + len(one["statuses"])
            result.failed += sum(s.status != "ok" for s in one["statuses"])
        result.check("every segment verifies ok",
                     all(s.status == "ok" for one in passes for s in one["statuses"]),
                     ", ".join(str(s) for s in last["statuses"] if s.status != "ok"))
        reference = matrix_digest(build_features(SegmentedTraceStore(root).load_trace()))
        result.check("store matrix equals build_features(load_trace()) bit for bit",
                     all(one["features"] == reference for one in passes))
        store_bytes = sum(p.stat().st_size for p in root.glob("seg-*.npz"))
        samples = store.num_samples
    finally:
        shutil.rmtree(root, ignore_errors=True)

    timed = passes[:1] if traced else passes
    latencies = [one["seconds"] for one in timed]
    pass_windows = [one["window"] for one in timed]
    result.finish_e2e(setup_s, IMPORT_REPEATS, latencies,
                      samples / statistics.median(latencies), len(latencies), {
                          "setup_s": [setup_window],
                          "latency_p50_ms": pass_windows,
                          "throughput_per_s": pass_windows,
                      })
    result.lines += [
        f"store: trace seed {trace_seed}, {STORE_DAYS:g} days, {store.num_segments} "
        f"segments, {samples} samples, {store_bytes} bytes",
        f"  pass time {format_summary(summarize(latencies), 's')}",
        ratio_line("throughput (samples / s)", samples, statistics.median(latencies), "1/s"),
    ]
    if traced:
        result.layers.update({
            "store.span_sim_s": tracer.total("store.span_sim"),
            "store.write_s": tracer.total("store.write"),
            "store.verify_s": tracer.total("store.verify"),
            "store.bytes": store_bytes,
            "store.segments": store.num_segments,
            "features.from_store_s": tracer.total("features.from_store"),
        })
        finish_trace(result, tracer, "store", passes[-1]["seconds"] - passes[0]["seconds"])
    return result


# ----------------------------------------------------------------- fleet
def fleet_order(trace) -> list:
    """The fleet's events in arrival order, as the clients' scheduler merges them."""
    queued = [item for client in build_fleet(trace, clients=FLEET_CLIENTS)
              for item in client.queue]
    return [event for _, event in sorted(queued, key=lambda item: item[0])]


def event_key(event):
    """Identity shared by every shard delivery of one event.

    Run events split into per-shard copies that keep the run index;
    SBE and label events are broadcast as the same object.
    """
    if isinstance(event, (RunStarted, RunCompleted)):
        return (type(event).__name__, event.run_idx)
    return id(event)


def open_loop(rate: float):
    """Sender for events due on the open-loop schedule at ``rate``/s.

    The sender waits for each due time by spinning, yielding to the
    shard task, not by sleeping: a sleeping process wakes up to a
    millisecond late, and later still on a busy host, which would swamp
    the gateway's own sub-millisecond latency.
    """

    async def send(gateway, events):
        start = time.perf_counter()
        due = [start + at for at in open_loop_schedule([e.minute for e in events], rate)]
        late = []
        for at, event in zip(due, events):
            while time.perf_counter() < at:
                await asyncio.sleep(0)
            late.append(time.perf_counter() - at)
            await gateway.ingest(event)
        return due, late

    return send


async def flood(gateway, events):
    """Sender that keeps ``FLOOD_IN_FLIGHT`` events in the gateway at all times.

    The gateway runs flat out, but its queues never fill, so ``ingest``
    never waits on backpressure: a coroutine suspended inside a traced
    span would leave that span open across the other tasks' steps.
    """
    start = time.perf_counter()
    stats = gateway.stats
    for event in events:
        while stats.events_in - stats.events_scored - stats.events_dead_lettered >= FLOOD_IN_FLIGHT:
            await asyncio.sleep(0)
        await gateway.ingest(event)
    return [start] * len(events), []


async def closed_loop(gateway, events):
    """Sender that sends each event once the one before it is applied."""
    sent_at = []
    for event in events:
        sent_at.append(time.perf_counter())
        await gateway.ingest(event)
        await gateway.drain()
    return sent_at, []


def fleet_pass(gateway, events, index, send, tracer, label: str) -> dict:
    """Run one pass of ``send``; time each event to its last shard delivery.

    An event's latency runs from the time ``send`` gives for it (when it
    was due, or sent) until every shard it was delivered to applied it.
    """
    done = [0.0] * len(events)
    delivered = [0] * len(events)

    for worker in gateway.workers:
        handle = worker.handle_event

        def timed_handle(event, *, between=None, _handle=handle):
            alerts = _handle(event, between=between)
            i = index[event_key(event)]
            done[i] = time.perf_counter()
            delivered[i] += 1
            return alerts

        worker.handle_event = timed_handle

    async def drive():
        await gateway.start()
        start = time.perf_counter()
        since, late = await send(gateway, events)
        await gateway.drain()
        finished = time.perf_counter()
        await gateway.close()
        return start, since, late, finished

    loop = asyncio.new_event_loop()
    if isinstance(tracer, Tracer):
        loop.set_task_factory(tracer.task_factory({
            "Gateway.": "gateway.shard_loop", "drive": "loadgen.generator",
        }))
    try:
        with tracer.span("bench.fleet_pass"):
            start, since, late, finished = loop.run_until_complete(drive())
    finally:
        loop.close()
    return {
        "label": label,
        "latencies": [d - t for d, t in zip(done, since)],
        "done": done,
        "late": late,
        "wall": finished - start,
        "window": (start, finished),
        "sent": len(events),
        "completed_runs": {e.run_idx for e in events if isinstance(e, RunCompleted)},
        "delivered": delivered,
        "stats": gateway.stats,
    }


def check_fleet_pass(result: Result, one: dict, gateway, test):
    stats, label, sent = gateway.stats, one["label"], one["sent"]
    result.attempted += stats.events_in
    result.failed += stats.events_dead_lettered + stats.events_rejected
    result.check(f"{label}: zero-drop ledger holds with nothing dropped",
                 stats.zero_drop and stats.events_in == sent
                 and stats.events_scored == sent, str(stats.to_dict()))
    result.check(f"{label}: every delivery applied and timed",
                 min(one["delivered"]) >= 1 and sum(one["delivered"]) == stats.deliveries)
    alerts = gateway.scored_alerts
    expected_rows = int(np.isin(test.meta["run_idx"], list(one["completed_runs"])).sum())
    result.check(f"{label}: alert count equals DS1 test-window rows of the runs sent",
                 len(alerts) == expected_rows, f"{len(alerts)} vs {expected_rows}")
    served = gateway.workers[0].scorer.predictor
    batch = served.decision_scores(test)
    expected = {
        (int(r), int(n)): float(s)
        for r, n, s in zip(test.meta["run_idx"], test.meta["node_id"], batch)
    }
    mismatched = sum(
        expected.get((int(a.run_idx), int(a.node_id))) != a.score for a in alerts
    )
    result.check(f"{label}: every alert score equals the served model's batch score",
                 mismatched == 0,
                 f"{mismatched} mismatched" + (f"; {feature_mismatch(gateway, test)}"
                                               if mismatched else ""))


def feature_mismatch(gateway, test) -> str:
    """Which test rows the shards built differently from the batch builder."""
    streamed = {(r.run_idx, r.node_id): r for w in gateway.workers for r in w.history_rows}
    rows = [streamed[(int(r), int(n))]
            for r, n in zip(test.meta["run_idx"], test.meta["node_id"])]
    differs = rows_to_matrix(rows, gateway.workers[0].engine.schema).X != test.X
    columns = sorted({test.schema.names[j] for j in np.nonzero(differs)[1]})
    return (f"{int(differs.any(axis=1).sum())} of {test.num_samples} test rows have "
            f"streamed features unlike the batch builder's, in {', '.join(columns)}")


def patch_fleet_layers(tracer: Tracer, index) -> None:
    def of_event(_self, event, *rest):
        return index.get(event_key(event), -1)

    tracer.patch(gateway_core, "build_features", "features.build")
    tracer.patch(TwoStagePredictor, "fit", "core.fit")
    tracer.patch(TwoStagePredictor, "decision_scores", "core.predict")
    tracer.patch(ModelRegistry, "save_model", "serve.registry_save")
    tracer.patch(ModelRegistry, "load_model", "serve.registry_load")
    tracer.patch(Gateway, "ingest", "gateway.ingest", event_of=of_event)
    tracer.patch(ScorerWorker, "handle_event", "serve.handle", event_of=of_event)
    tracer.patch(StreamingFeatureEngine, "process", "serve.engine")
    for method in ("submit", "poll", "flush"):
        tracer.patch(MicroBatchScorer, method, "serve.scorer")
    tracer.patch(SupervisedScorer, "finalize", "serve.scorer")


def queue_wait_p99_ms(tracer: Tracer) -> float:
    """p99 over shard deliveries of (handle start - end of the event's ingest)."""
    ingest_end = {}
    for name, end, event in zip(tracer.names, tracer.ends, tracer.event_ids):
        if name == "gateway.ingest":
            ingest_end[event] = end
    waits = [
        max(0.0, start - ingest_end[event])
        for name, start, event in zip(tracer.names, tracer.starts, tracer.event_ids)
        if name == "serve.handle" and event in ingest_end
    ]
    return percentile(waits, 99.0) * 1e3 if waits else 0.0


def run_fleet(trace_seed: int, model_seed: int, seconds: float, traced: bool) -> Result:
    result = Result()
    begun = time.perf_counter()
    import_s = import_seconds(["repro.telemetry.simulator", "repro.gateway"])
    config = small_config(trace_seed)
    tracer = Tracer()
    root = WORK / f"fleet-{os.getpid()}"

    with tracer.span("bench.fleet_setup"):
        with tracer.span("telemetry.simulate"):
            trace = simulate_trace(config)
    simulate_s = tracer.total("bench.fleet_setup")
    setup_windows = [(begun, time.perf_counter())]
    splits = small_splits(config.duration_days)
    events = fleet_order(trace)
    index = {event_key(event): i for i, event in enumerate(events)}
    closed_events = [event for event in events if event.minute < CLOSED_DAYS * 1440.0]
    open_events = [event for event in events if event.minute < OPEN_DAYS * 1440.0]
    _, test = PredictionPipeline(build_features(trace), splits).train_test("DS1")

    build_times = []

    def build(registry: Path, span_tracer):
        begun = time.perf_counter()
        with span_tracer.span("bench.fleet_build"):
            with span_tracer.span("gateway.build"):
                gateway = build_gateway(
                    trace, registry, splits=splits,
                    config=GatewayConfig(shards=FLEET_SHARDS, batch_size=FLEET_BATCH),
                    random_state=model_seed, fast=True,
                )
        ended = time.perf_counter()
        if span_tracer is not tracer:
            build_times.append(ended - begun)
            setup_windows.append((begun, ended))
        return gateway

    plan = []
    for k in range(1, REPEATS + 1):
        plan += [(f"closed {k}", closed_events, closed_loop), (f"flood {k}", events, flood)]
        if k == 1:
            plan += [(f"r{rate}", open_events, open_loop(rate)) for rate in FLEET_RATES]
    passes = {}
    try:
        for label, sent, send in plan:
            gateway = build(root / label, NullTracer())
            gc.collect()
            passes[label] = fleet_pass(gateway, sent, index, send, NullTracer(), label)
            check_fleet_pass(result, passes[label], gateway, test)
            del gateway
        if traced:
            # One traced repeat of the flood pass: per-layer busy times,
            # and the overhead against its untraced twin.
            patch_fleet_layers(tracer, index)
            try:
                gateway = build(root / "traced", tracer)
                gc.collect()
                traced_pass = fleet_pass(gateway, events, index, flood, tracer, "traced flood")
            finally:
                tracer.restore()
            check_fleet_pass(result, traced_pass, gateway, test)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    setup_s = import_s + simulate_s + statistics.median(build_times)
    closed = [passes[f"closed {k}"] for k in range(1, REPEATS + 1)]
    floods = [passes[f"flood {k}"] for k in range(1, REPEATS + 1)]
    open_passes = {rate: passes[f"r{rate}"] for rate in FLEET_RATES}
    latencies = [t for one in closed for t in one["latencies"]]
    flood_rates = [r for one in floods for r in stretch_rates(one["done"], FLOOD_STRETCH)]
    result.finish_e2e(setup_s, len(build_times), latencies,
                      statistics.median(flood_rates), len(flood_rates), {
                          "setup_s": setup_windows,
                          "latency_p50_ms": [one["window"] for one in closed],
                          "throughput_per_s": [one["window"] for one in floods],
                      })
    limit = max_rate({r: p["latencies"] for r, p in open_passes.items()}, LATENCY_LIMIT_S)
    stats = floods[0]["stats"]
    result.lines += [
        f"fleet: trace seed {trace_seed}, model seed {model_seed}, {len(events)} events, "
        f"{FLEET_CLIENTS} clients, {FLEET_SHARDS} shard(s), batch {FLEET_BATCH}",
        f"  setup {setup_s:.3f} s = import {import_s:.3f} + simulate {simulate_s:.3f} "
        f"+ median gateway build {statistics.median(build_times):.3f} "
        f"(builds {', '.join(f'{b:.3f}' for b in build_times)})",
        f"  closed loop, {REPEATS} passes of {len(closed_events)} events: latency "
        f"{format_summary(summarize(latencies), 'ms', 1e3)}",
    ]
    for rate, one in open_passes.items():
        result.lines.append(
            f"  r{rate}: {one['sent']} events, latency "
            f"{format_summary(summarize(one['latencies']), 'ms', 1e3)}; "
            f"generator late at most {max(one['late']) * 1e3:.1f} ms"
        )
    result.lines += [
        f"  flood, {REPEATS} passes of {len(events)} events in "
        f"{', '.join(format(one['wall'], '.3f') for one in floods)} s; "
        f"events per second over {FLOOD_STRETCH}-event stretches: median "
        f"{statistics.median(flood_rates):.6g} (n={len(flood_rates)})",
        f"  max rate with p99 <= {LATENCY_LIMIT_S * 1e3:g} ms and a steady backlog: {limit:g}/s",
        ratio_line("deliveries per event (deliveries / events_in)",
                   stats.deliveries, stats.events_in),
    ]
    if traced:
        workers = gateway.workers
        engine_s = tracer.total("serve.engine")
        rows = sum(w.engine.rows_emitted for w in workers)
        batches = sum(w.scorer.counters.batches for w in workers)
        rows_scored = sum(w.scorer.counters.rows_scored for w in workers)
        build_s = tracer.total("features.build")
        result.lines += [
            ratio_line("engine us per row (engine s / rows emitted)", engine_s * 1e6, rows, "us"),
            ratio_line("rows per batch (rows scored / batches)", rows_scored, batches),
        ]
        result.layers.update({
            "telemetry.simulate_s": simulate_s,
            "telemetry.samples_per_s": trace.num_samples / simulate_s,
            "features.build_s": build_s,
            "features.rows_per_s": trace.num_samples / build_s,
            "core.fit_s": tracer.total("core.fit"),
            "ml.trees": workers[0].kernel_stats()["n_trees"],
            "core.predict_s": tracer.total("core.predict"),
            "core.predict_rows": rows_scored,
            "serve.handle_s": tracer.total("serve.handle"),
            "serve.engine_s": engine_s,
            "serve.engine_calls": tracer.count("serve.engine"),
            "serve.rows_emitted": rows,
            "serve.engine_us_per_row": engine_s * 1e6 / rows,
            "serve.scorer_s": tracer.total("serve.scorer"),
            "serve.batches": batches,
            "serve.rows_per_batch": rows_scored / batches,
            "gateway.ingest_s": tracer.total("gateway.ingest"),
            "gateway.deliveries_per_event": stats.deliveries / stats.events_in,
            "gateway.queue_wait_ms.p99": queue_wait_p99_ms(tracer),
            "gateway.build_s": statistics.median(build_times),
            "fleet.max_rate": limit,
        })
        for rate, one in open_passes.items():
            result.layers[f"loadgen.late_ms.r{rate}"] = max(one["late"]) * 1e3
            result.layers[f"fleet.p99_ms.r{rate}"] = percentile(one["latencies"], 99.0) * 1e3
        finish_trace(result, tracer, "fleet", traced_pass["wall"] - floods[0]["wall"])
    return result


WORKLOADS = {"study": run_study, "store": run_store, "fleet": run_fleet}
