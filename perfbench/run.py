"""The repository benchmark: SQL text in, checked rows out, on four
workloads, with an optional traced run that splits the wall by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload graph-batch --seed 1 --seconds 15 \\
        --trace 0 [--out report.json]

``--trace 0`` measures untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced rounds with rounds under the outside-in
tracer (``perfbench/tracer.py``), prints the per-layer metrics, and
writes the recorded spans to ``.perfbench/``.

Every line but the last is a detailed JSON report (per-kind latency
medians and tail percentiles with their sample counts, floors, inputs,
failures).  The last line is the summary the metric names in
``BENCHMARK.json`` refer to::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The engine is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import pathlib
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Setup runs at least SETUP_MIN times and until SETUP_MIN_S seconds
#: have passed (at most SETUP_MAX times); ``setup_s`` is the median.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 2000, 1.0
#: Percentiles tried, highest first, for a kind's tail latency: the
#: highest one with at least ``TAIL_BEYOND`` samples above it is reported.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

#: Per-layer metric -> (unit, span name, what).  ``self`` is self time,
#: ``wall`` inclusive time, ``calls`` the call count; all per operation.
LAYER_METRICS = {
    "core.context.ms": ("ms/op", "core.context", "self"),
    "core.parser.ms": ("ms/op", "core.parser", "self"),
    "core.analyzer.ms": ("ms/op", "core.analyzer", "self"),
    "core.optimizer.ms": ("ms/op", "core.optimizer", "self"),
    "core.planner.ms": ("ms/op", "core.planner", "self"),
    "core.codegen.ms": ("ms/op", "core.codegen", "self"),
    "core.codegen.calls": ("calls/op", "core.codegen", "calls"),
    "core.fixpoint.ms": ("ms/op", "core.fixpoint", "self"),
    "core.executor.ms": ("ms/op", "core.executor", "self"),
    "core.streaming.insert_ms": ("ms/op", "core.streaming.insert", "self"),
    "engine.cluster.run_stage_ms": ("ms/op", "engine.cluster.run_stage",
                                    "self"),
    "engine.cluster.exchange_ms": ("ms/op", "engine.cluster.exchange", "self"),
    "engine.cluster.broadcast_ms": ("ms/op", "engine.cluster.broadcast",
                                    "self"),
    "engine.joins.build_ms": ("ms/op", "engine.joins.build", "self"),
    "engine.setrdd.merge_ms": ("ms/op", "engine.setrdd.merge", "self"),
    "engine.setrdd.merge_calls": ("calls/op", "engine.setrdd.merge", "calls"),
    "engine.setrdd.union_ms": ("ms/op", "engine.setrdd.union", "self"),
    "engine.serialization.rows_size_ms": (
        "ms/op", "engine.serialization.rows_size", "self"),
    "engine.serialization.rows_size_calls": (
        "calls/op", "engine.serialization.rows_size", "calls"),
    "engine.columnar.encode_ms": ("ms/op", "engine.columnar.encode", "self"),
    "engine.columnar.decode_ms": ("ms/op", "engine.columnar.decode", "self"),
    "engine.backend.run_batch_ms": ("ms/op", "engine.backend.run_batch",
                                    "wall"),
    "engine.backend.wait_ms": ("ms/op", "engine.backend.run_batch", "self"),
    "engine.backend.install_ms": ("ms/op", "engine.backend.install", "self"),
    "engine.backend.collect_ms": ("ms/op", "engine.backend.collect", "self"),
    "serving.service.ms": ("ms/op", "serving.service", "self"),
    "serving.views.read_ms": ("ms/op", "serving.views.read", "self"),
}
#: Spans of the entry points every timed operation goes through.  Their
#: self time is engine work that no named layer explains, so it counts as
#: unattributed, with the benchmark's own root spans.
CATCH_ALL_SPANS = ("bench.op", "core.context", "serving.service")
#: Per-layer metric -> engine counter, reported as a per-operation delta.
COUNTER_METRICS = {
    "engine.cluster.shuffle_bytes": "shuffle_bytes",
    "engine.cluster.shuffle_records": "shuffle_records",
    "engine.cluster.stages": "stages",
    "engine.cluster.tasks": "tasks",
    "engine.cluster.iterations": "iterations",
    "engine.backend.payload_bytes": "process_payload_bytes",
    "engine.backend.install_bytes": "process_install_bytes",
    "engine.backend.task_messages": "process_task_messages",
    "engine.backend.tasks_shipped": "process_tasks_shipped",
    "engine.backend.heartbeats_missed": "process_heartbeats_missed",
}
COUNTER_UNIT = "count/op"
#: Per-layer metrics computed from the whole traced window.
DERIVED_METRICS = {
    "core.fixpoint.pre_stage_ms": "ms/op",
    "bench.unattributed_ms": "ms/op",
    "serving.cache.plan_hit_rate": "ratio",
    "serving.cache.result_hit_rate": "ratio",
    "serving.views.snapshot_hit_rate": "ratio",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_geomean_ms": "ms",
    "setup_s": "s",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    units.update({name: COUNTER_UNIT for name in COUNTER_METRICS})
    units.update(DERIVED_METRICS)
    return units


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def kind_stats(samples: list[float]) -> dict:
    """Median and the highest percentile with enough samples beyond it."""
    stats = {"count": len(samples),
             "p50_ms": statistics.median(samples) * 1000.0,
             "mean_ms": statistics.fmean(samples) * 1000.0}
    for pct in TAIL_CANDIDATES:
        beyond = len(samples) - math.ceil(pct / 100.0 * len(samples))
        if beyond >= TAIL_BEYOND:
            stats["tail_pct"] = pct
            stats["tail_ms"] = percentile(samples, pct) * 1000.0
            break
    return stats


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(workload, rec) -> dict:
    """Per-kind latency statistics and the two latency-derived metrics.

    ``latency_geomean_ms`` is the geometric mean over operation kinds of
    each kind's mean latency: every kind weighs the same however cheap it
    is, and means, unlike medians, stay put when a kind's latencies are
    bimodal (a serving request waits either before or after its burst's
    one expensive request, and the median falls on that cliff)."""
    kinds = {kind: kind_stats(rec.latencies[kind]) for kind in workload.kinds
             if rec.latencies[kind]}
    missing = [kind for kind in workload.kinds if kind not in kinds]
    if missing:
        raise RuntimeError(f"no successful sample of: {', '.join(missing)}")
    return {
        "kinds": kinds,
        "ops": rec.ops,
        "busy_s": rec.busy_s,
        "ops_per_s": rec.ops / rec.busy_s,
        "latency_geomean_ms": geomean(k["mean_ms"] for k in kinds.values()),
    }


def floor_report(workload, engine: dict) -> dict | None:
    """``floor_ratio`` with both of its bases (the graph workloads)."""
    floors = getattr(workload, "floor_latencies", None)
    if not floors:
        return None
    floor_ms = {q: statistics.median(v) * 1000.0 for q, v in floors.items()}
    engine_ms = {q: engine["kinds"][q]["p50_ms"] for q in floor_ms}
    return {
        "floor_p50_ms": floor_ms,
        "engine_p50_ms": engine_ms,
        "engine_sum_ms": sum(engine_ms.values()),
        "floor_sum_ms": sum(floor_ms.values()),
        "floor_ratio": sum(engine_ms.values()) / sum(floor_ms.values()),
        "per_query_ratio": {q: engine_ms[q] / floor_ms[q] for q in floor_ms},
        "floor_samples": {q: len(v) for q, v in floors.items()},
    }


def layer_metrics(tracer, workload, rec, deltas: dict, untraced: dict,
                  traced: dict) -> dict[str, float]:
    """Per-operation per-layer figures of a traced window."""
    totals = tracer.layer_totals()
    ops = rec.ops
    zero = {"self_s": 0.0, "wall_s": 0.0, "calls": 0}
    out: dict[str, float] = {}
    for metric, (_, span, what) in LAYER_METRICS.items():
        entry = totals.get(span, zero)
        # Calls made on another thread (the process backend's senders
        # pickle, and so encode, column batches) are added as-is.
        other = totals.get(span + "@thread", zero)
        if what == "calls":
            out[metric] = (entry["calls"] + other["calls"]) / ops
        else:
            seconds = entry[f"{what}_s"] + other[f"{what}_s"]
            out[metric] = seconds * 1000.0 / ops
    out["core.fixpoint.pre_stage_ms"] = tracer.pre_stage_s() * 1000.0 / ops
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = deltas.get(counter, 0) / ops
    out.update({"serving.cache.plan_hit_rate": 0.0,
                "serving.cache.result_hit_rate": 0.0,
                "serving.views.snapshot_hit_rate": 0.0})
    out.update(workload.layer_extras(deltas))
    wall = totals.get("bench.op", zero)["wall_s"]
    unattributed = sum(totals.get(span, zero)["self_s"]
                       for span in CATCH_ALL_SPANS)
    out["bench.unattributed_ms"] = unattributed * 1000.0 / ops
    out["trace.coverage_pct"] = (100.0 * (1.0 - unattributed / wall)
                                 if wall else 0.0)
    out["trace.overhead_pct"] = 100.0 * (
        traced["latency_geomean_ms"]
        / untraced["latency_geomean_ms"] - 1.0)
    return out


def stop_child_processes() -> None:
    """Stop and reap every process this run started.

    The engine's pool shuts down in ``teardown``; any worker still alive
    is killed here.  Spawning the first worker also starts
    multiprocessing's resource-tracker helper, which is never waited for
    and would outlive the benchmark; it exits once no process holds its
    pipe, so it is stopped last."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> tuple[dict, dict]:
    """Set up, measure, check; returns ``(report, summary)``."""
    from tracer import Tracer
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    setup_times = []
    # Inputs and oracle answers are the benchmark's, not the engine's:
    # move them out of the collector's reach, so the collections that fall
    # inside timed regions scan the engine's objects only.  Those
    # collections are left where they fall: they are part of the engine's
    # cost.
    gc.collect()
    gc.freeze()
    try:
        while (len(setup_times) < SETUP_MIN
               or (sum(setup_times) < SETUP_MIN_S
                   and len(setup_times) < SETUP_MAX)):
            workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        warm_rec = Recorder()
        workload.warm(warm_rec)
        rec = Recorder()
        if not args.trace:
            workload.measure(args.seconds, rec)
            stats = summarize(workload, rec)
            traced_rec = None
        else:
            # Untraced and traced rounds alternate, so machine drift hits
            # both sides of the tracing-overhead comparison alike.
            traced_rec = Recorder()
            tracer = Tracer()
            deltas = defaultdict(float)  # engine counters, traced rounds
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline:
                workload.round(rec)
                start = workload.counters()
                tracer.install()
                try:
                    workload.round(traced_rec, tracer)
                finally:
                    tracer.remove()
                for name, value in workload.counters().items():
                    deltas[name] += value - start.get(name, 0)
            stats = summarize(workload, rec)
            traced = summarize(workload, traced_rec)
            layers = layer_metrics(tracer, workload, traced_rec, deltas,
                                   stats, traced)
            spans_dir = ROOT / ".perfbench"
            spans_dir.mkdir(exist_ok=True)
            spans_path = spans_dir / f"spans-{args.workload}-{args.seed}.json"
            tracer.dump(spans_path)
            report["traced"] = traced
            report["layers"] = layers
            report["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                               "count": len(tracer.spans)}
        workload.final_check(rec)
    finally:
        try:
            workload.teardown()
        finally:
            gc.unfreeze()
            stop_child_processes()

    recs = [r for r in (warm_rec, rec, traced_rec) if r is not None]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    report.update(workload.details)
    report["setup_s_samples"] = setup_times
    report["untraced" if args.trace else "measured"] = stats
    floor = floor_report(workload, stats)
    if floor:
        report["floor"] = floor
    report["attempted"] = attempted
    report["failed"] = failed
    report["error_rate"] = failed / attempted
    report["failures"] = [why for r in recs for why in r.failures]
    report["peak_rss_mb"] = peak_rss_mb()

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in layer_metric_units().items()}
    else:
        values = {"ops_per_s": stats["ops_per_s"],
                  "latency_geomean_ms": stats["latency_geomean_ms"],
                  "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    return report, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write the detailed report here")
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one, so its cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    report, summary = run(args)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
