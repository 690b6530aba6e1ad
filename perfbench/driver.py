"""The benchmark's passes, metrics and report (see ``run.py`` for usage).

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), then runs one closed-loop pass of ``--seconds`` with nothing
traced and reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced pass, then sets up afresh with the same seed and runs a traced
pass of the same length, and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import statistics
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import layers
from tracing import OP, Tracer
from workloads import READ_KINDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")

SETUP_REPEATS = 3

#: every end-to-end metric, in the order the report prints them
END_TO_END_ALL = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "error_rate": "fraction",
    "peak_rss_mb": "MB",
}
#: the ones in the JSON line, which BENCHMARK.json bounds.  The rest are
#: printed only: a workload without writes has no write latencies, a
#: healthy run has an error rate of 0, and the 99th percentiles swing with
#: two-session lock waits (p99_ms spread 0.25 of its median over ten seeds
#: on oltp_session_disk), too far to bound.
END_TO_END = {
    name: END_TO_END_ALL[name]
    for name in ("setup_s", "ops_per_s", "p50_ms", "peak_rss_mb")
}
PER_LAYER = {
    "forms.refresh_ms": "ms",
    "forms.refreshes_per_action": "calls/op",
    "forms.save_ms": "ms",
    "forms.self_ms": "ms/op",
    "windows.render_ms": "ms",
    "windows.cells_per_key": "cells/key",
    "windows.self_ms": "ms/op",
    "session.self_ms": "ms/op",
    "session.lock_wait_ms": "ms/op",
    "session.lock_wait_max_ms": "ms",
    "session.lock_waits_per_kstmt": "waits/kstmt",
    "socket.self_ms": "ms/op",
    "socket.bytes_per_op": "bytes/op",
    "sql.parse_ms": "ms",
    "sql.parses_per_stmt": "calls/stmt",
    "sql.tokenize_per_stmt": "calls/stmt",
    "sql.self_ms": "ms/op",
    "plancache.hit_ratio": "ratio",
    "plancache.self_ms": "ms/op",
    "planner.plan_ms": "ms",
    "planner.plans_per_stmt": "calls/stmt",
    "planner.self_ms": "ms/op",
    "exprcompile.compile_ms": "ms",
    "exprcompile.compiles_per_stmt": "calls/stmt",
    "exprcompile.self_ms": "ms/op",
    "executor.rows_examined_per_row": "rows/row",
    "database.self_ms": "ms/op",
    "pager.hit_ratio": "ratio",
    "pager.misses_per_op": "misses/op",
    "pager.pread_ms": "ms",
    "pager.self_ms": "ms/op",
    "segments.hit_ratio": "ratio",
    "btree.node_visits_per_lookup": "nodes/lookup",
    "wal.commit_ms": "ms",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_commit": "fsyncs/commit",
    "wal.bytes_per_user_byte": "bytes/byte",
    "wal.self_ms": "ms/op",
    "unattributed_ms": "ms/op",
    "unattributed_share": "fraction",
    "trace.overhead": "ratio",
}
#: layer self times that get their own per-layer metric
SELF_METRIC_LAYERS = (
    "forms", "windows", "sql", "plancache", "planner", "exprcompile", "pager", "wal",
)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of sorted *values* (0 when empty)."""
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * fraction // 1))
    return values[int(rank) - 1]


class PassResult:
    """What one closed-loop pass measured."""

    def __init__(self) -> None:
        #: (kind, latency in seconds, result was right) per operation
        self.records: List[Tuple[str, float, bool]] = []
        #: tracebacks of the first operations that raised, and how many did
        self.errors: List[str] = []
        self.error_count = 0
        #: wrong results the workload's check found after the pass
        self.problems: List[str] = []
        self.elapsed = 0.0
        #: counter snapshots "before" and "after" the counted window
        self.window: Optional[Dict[str, Dict[str, float]]] = None

    def latencies(self, read: Optional[bool] = None) -> List[float]:
        return sorted(
            latency
            for kind, latency, _ok in self.records
            if read is None or (kind in READ_KINDS) == read
        )

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        """Operations that raised or returned a wrong result."""
        failed = sum(1 for _kind, _latency, ok in self.records if not ok)
        return min(self.attempted, failed + len(self.problems))

    @property
    def wrong(self) -> int:
        return self.failed - self.error_count

    @property
    def ops_per_s(self) -> float:
        """Operations that succeeded per second of the pass."""
        return (self.attempted - self.failed) / self.elapsed if self.elapsed else 0.0


def run_pass(workload: Any, seconds: float, tracer: Any = None) -> PassResult:
    """Drive every client of *workload* closed loop for *seconds*.

    A traced pass also snapshots the counters when the first
    ``workload.window_ops`` operations have completed, and runs on until
    they have even if that takes longer than *seconds*.
    """
    result = PassResult()
    clients = workload.clients()
    renderer = workload.renderer()
    window_end = workload.window_ops - 1
    ops = itertools.count()
    lock = threading.Lock()
    before: Dict[str, float] = {}
    if tracer is not None:
        before = layers.snapshot(workload.db, tracer, renderer)
        before["user_bytes"] = workload.written_bytes()
    started = time.perf_counter()
    deadline = started + seconds

    def loop(client: Any) -> None:
        records = []
        while time.perf_counter() < deadline or (
            tracer is not None and result.window is None
        ):
            with lock:
                op = next(ops)
            kind, run = client.next_op()
            root = tracer.start_op(op) if tracer is not None else None
            begin = time.perf_counter()
            try:
                ok = bool(run())
            except Exception:  # a refused or failed operation, reported
                ok = False
                with lock:
                    result.error_count += 1
                    if len(result.errors) < 5:
                        result.errors.append(traceback.format_exc())
            latency = time.perf_counter() - begin
            if root is not None:
                tracer.end(root)
            records.append((kind, latency, ok))
            if op == window_end and tracer is not None:
                after = layers.snapshot(workload.db, tracer, renderer)
                after["user_bytes"] = workload.written_bytes()
                result.window = {"before": before, "after": after}
        with lock:
            result.records.extend(records)

    if len(clients) == 1:
        loop(clients[0])
    else:
        threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.elapsed = time.perf_counter() - started
    return result


def end_to_end(
    result: PassResult, setups: List[float]
) -> Dict[str, Tuple[float, Optional[int]]]:
    """Metric name -> (value, samples behind it)."""
    every = result.latencies()
    reads = result.latencies(read=True)
    writes = result.latencies(read=False)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (result.ops_per_s, result.attempted),
        "p50_ms": (1000 * percentile(every, 0.50), len(every)),
        "p99_ms": (1000 * percentile(every, 0.99), len(every)),
        "read_p50_ms": (1000 * percentile(reads, 0.50), len(reads)),
        "read_p99_ms": (1000 * percentile(reads, 0.99), len(reads)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None),
        "error_rate": (result.failed / result.attempted if result.attempted else 0.0, result.attempted),
    }
    if writes:
        metrics["write_p50_ms"] = (1000 * percentile(writes, 0.50), len(writes))
        metrics["write_p99_ms"] = (1000 * percentile(writes, 0.99), len(writes))
    return metrics


def per_layer(
    workload: Any, result: PassResult, tracer: Any, untraced: PassResult
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of a traced pass, and each layer's self ms/op."""
    window = result.window
    spans = [span for span in tracer.spans() if span[OP] is not None]
    calls = layers.window_calls(spans, workload.window_ops)
    before, after = window["before"], window["after"]
    metrics = layers.count_metrics(
        before, after, calls, workload.window_ops,
        after["user_bytes"] - before["user_bytes"],
    )
    end = layers.snapshot(workload.db, tracer, workload.renderer())
    timed, layer_self = layers.span_metrics(
        spans, result.attempted, end["wal.commits"] - before["wal.commits"]
    )
    metrics.update(timed)
    for layer in SELF_METRIC_LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self[layer]
    metrics["trace.overhead"] = (
        result.ops_per_s / untraced.ops_per_s if untraced.ops_per_s else 0.0
    )
    return metrics, layer_self


def build(cls: Any, seed: int, workdir: str, io: Any = None) -> Tuple[Any, float]:
    """Set the workload up once; returns it and the seconds it took."""
    gc.collect()
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    workload = cls(seed, workdir, io)
    return workload, time.perf_counter() - started


def finish(workload: Any, result: PassResult) -> float:
    """Check the pass's results after its timed window, then tear down.

    Returns the seconds the teardown took (the socket server's stop is
    slow; it is reported, never timed in a pass).
    """
    result.problems = workload.check()
    started = time.perf_counter()
    workload.close()
    return time.perf_counter() - started


def measure(cls: Any, args: Any, workdir: str) -> Dict[str, Any]:
    """Every pass of one invocation; the report ends in ``line``."""
    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    durations = []
    for repeat in range(SETUP_REPEATS if args.trace == 0 else 1):
        if durations:
            workload.close()  # the same seed set up again, for the median
        workload, seconds = build(cls, args.seed, os.path.join(workdir, str(repeat)))
        durations.append(seconds)
    report["setup_runs_s"] = durations
    report["facts"] = workload.facts()
    workload.start_serving()
    untraced = run_pass(workload, args.seconds)
    report["teardown_s"] = finish(workload, untraced)
    passes = [untraced]
    report["end_to_end"] = {
        name: {"value": value, "samples": samples}
        for name, (value, samples) in end_to_end(untraced, durations).items()
    }
    if args.trace == 1:
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            workload, _seconds = build(
                cls, args.seed, os.path.join(workdir, "traced"),
                layers.TimingIO(tracer),
            )
            workload.start_serving()
            tracer.enabled = True
            traced = run_pass(workload, args.seconds, tracer)
            tracer.enabled = False
            metrics, layer_self = per_layer(workload, traced, tracer, untraced)
            finish(workload, traced)
        finally:
            tracer.uninstall()
        passes.append(traced)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        span_path = os.path.join(
            RESULTS_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"
        )
        report["spans"] = {
            "path": os.path.relpath(span_path, ROOT),
            "count": tracer.write_spans(span_path),
        }
        report["per_layer"] = metrics
        report["layer_self_ms"] = layer_self
        report["traced_ops"] = traced.attempted
    report["problems"] = [x for p in passes for x in p.problems][:20]
    report["errors"] = [x for p in passes for x in p.errors][:5]
    if args.trace == 0:
        line_metrics = {
            name: {"value": report["end_to_end"][name]["value"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        line_metrics = {
            name: {"value": report["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    report["line"] = {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": line_metrics,
    }
    return report


def print_report(report: Dict[str, Any]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']:g}  trace {report['trace']}")
    for key, value in report["facts"].items():
        print(f"  {key}: {json.dumps(value)}")
    print("end to end (untraced pass):")
    for name, unit in END_TO_END_ALL.items():
        entry = report["end_to_end"].get(name)
        if entry is None:
            print(f"  {name:<14} {'-':>12} {unit:<8} (no such operations)")
            continue
        samples = "" if entry["samples"] is None else f"n={entry['samples']}"
        print(f"  {name:<14} {entry['value']:12.4f} {unit:<8} {samples}")
    print(f"  teardown_s     {report['teardown_s']:12.4f} s        (outside every timed window)")
    if "per_layer" in report:
        print(f"per layer ({report['workload']}, traced pass of "
              f"{report['traced_ops']} ops):")
        print("  self time per op:")
        for layer, value in report["layer_self_ms"].items():
            print(f"    {layer:<12} {value:10.4f} ms")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30} {report['per_layer'][name]:12.4f} {unit}")
        print(f"  spans: {report['spans']['count']} -> {report['spans']['path']}")
    for problem in report["problems"]:
        print(f"WRONG: {problem}")
    for error in report["errors"]:
        print(f"FAILED: {error.rstrip()}")




def write_report(report: Dict[str, Any]) -> str:
    """Save the full report under ``perfbench/results``; returns its path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(
        RESULTS_DIR,
        f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json",
    )
    with open(path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=True)
    return os.path.relpath(path, ROOT)
