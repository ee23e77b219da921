"""Per-layer metrics: ``/metrics`` counter diffs and span self times.

``CATALOGUE`` lists every per-layer metric with its unit, the end-to-end
metric it should move and the workload where that shows; ``run.py``
prints it next to the values, and ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: name -> (unit, better, moves, workload)
CATALOGUE: Dict[str, Tuple[str, str, str, str]] = {
    # counters, from a /metrics scrape diff around the timed window
    "serve.http.requests": ("count", "higher", "throughput_rps", "all"),
    "serve.http.edge_p50_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.http.wire_gap_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.scheduler.batches": ("count", "lower", "latency_p50_ms", "predict-small"),
    "serve.scheduler.rows_per_batch": ("rows", "higher", "latency_p50_ms", "predict-small"),
    "serve.scheduler.wait_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.cluster.shm_segments": ("count", "lower", "study_s", "study-sweep"),
    "serve.cluster.shm_bytes": ("bytes", "lower", "study_s", "study-sweep"),
    "serve.cluster.routed_imbalance": ("ratio", "lower", "throughput_rps", "predict-small"),
    "serve.cluster.failovers": ("count", "lower", "error_rate", "all"),
    "serve.cluster.worker_restarts": ("count", "lower", "error_rate", "all"),
    "serve.service.ensemble_cache_hit_ratio": ("ratio", "higher", "study_s", "study-sweep"),
    "serve.service.ensemble_lookups": ("count", "higher", "study_s", "study-sweep"),
    "serve.service.ensemble_ms": ("ms", "lower", "study_s", "study-sweep"),
    "serve.jobs.cells": ("count", "higher", "study_s", "study-sweep"),
    "serve.jobs.checkpoint_writes": ("count", "lower", "study_s", "study-sweep"),
    "serve.jobs.cell_retries": ("count", "lower", "study_s", "study-sweep"),
    "api.connections_opened": ("count", "lower", "latency_p50_ms", "predict-small"),
    "api.connections_reused": ("count", "higher", "latency_p50_ms", "predict-small"),
    "api.retries": ("count", "lower", "latency_p50_ms", "predict-small"),
    "error_rate": ("ratio", "lower", "error_rate", "all"),
    # the study client's submit-to-done time, untraced half of the run
    "study_s": ("s", "lower", "study_s", "study-sweep"),
    # busy time from the traced run: mean per predict over the requests
    # whose client latency sits at the p50 (see blocking_path)
    "api.client_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "api.encode_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "api.decode_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.wire.encode_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.wire.decode_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.shm.offload_ms": ("ms", "lower", "study_s", "study-sweep"),
    "serve.shm.restore_ms": ("ms", "lower", "study_s", "study-sweep"),
    "serve.http.wire_request_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.http.wire_response_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.http.handle_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.cluster.roundtrip_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.service.predict_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.scheduler.queue_wait_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "serve.scheduler.execute_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.run_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.op.conv_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.op.dense_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.op.pool_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.op.activation_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.op.flatten_ms": ("ms", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.gemm_mflop": ("MFLOP-computed", "lower", "latency_p50_ms", "predict-small"),
    "runtime.plan.bytes_moved": ("bytes-computed", "lower", "latency_p50_ms", "predict-small"),
    # per call, from the traced run
    "runtime.montecarlo.sample_ms": ("ms", "lower", "study_s", "study-sweep"),
    "runtime.montecarlo.run_ms": ("ms", "lower", "study_s", "study-sweep"),
    "serve.jobs.cell_ms": ("ms", "lower", "study_s", "study-sweep"),
    "serve.jobs.checkpoint_ms": ("ms", "lower", "study_s", "study-sweep"),
    "serve.jobs.checkpoint_bytes": ("bytes", "lower", "study_s", "study-sweep"),
    "serve.registry.get_ms": ("ms", "lower", "setup_s", "all"),
    "serve.registry.loads": ("count", "lower", "setup_s", "all"),
    # the traced run itself
    "trace.accounted_ms": ("ms", "lower", "latency_p50_ms", "all"),
    "trace.accounted_ratio": ("ratio", "lower", "latency_p50_ms", "all"),
    "trace.overhead_ms": ("ms", "lower", "latency_p50_ms", "all"),
    "trace.linked_ratio": ("ratio", "higher", "latency_p50_ms", "all"),
    "trace.spans": ("count", "lower", "latency_p50_ms", "all"),
}

#: Self-time buckets of one predict's blocking path, in path order; they
#: sum to the client-side latency of that request.
PATH = (
    "api.client", "api.encode", "runtime.wire.encode",
    "serve.http.wire_request", "serve.http.handle", "api.decode", "runtime.wire.decode",
    "serve.shm.offload", "serve.cluster.roundtrip", "serve.shm.restore",
    "serve.service.predict", "serve.scheduler.queue_wait",
    "serve.scheduler.execute", "runtime.plan.run", "runtime.plan.op.conv",
    "runtime.plan.op.dense", "runtime.plan.op.pool",
    "runtime.plan.op.activation", "runtime.plan.op.flatten",
    "serve.http.wire_response",
)


# ---------------------------------------------------------------------- #
# Counters
# ---------------------------------------------------------------------- #
def _samples(families: dict, family: str, sample: Optional[str] = None,
             **match: str) -> List[Tuple[dict, float]]:
    sample = sample or family
    found = families.get(family)
    if found is None:
        return []
    return [(item.labels, item.value) for item in found.samples
            if item.name == sample
            and all(item.labels.get(key) == value for key, value in match.items())]


def _total(families: dict, family: str, sample: Optional[str] = None,
           **match: str) -> float:
    return sum(value for _, value in _samples(families, family, sample, **match))


def _delta(before: dict, after: dict, family: str, sample: Optional[str] = None,
           **match: str) -> float:
    return _total(after, family, sample, **match) - _total(before, family, sample, **match)


def _histogram_p50(before: dict, after: dict, family: str, **match: str) -> float:
    """Median of a histogram's observations between two scrapes (ms).

    Linear interpolation inside the bucket that holds the median, as
    Prometheus' ``histogram_quantile`` does.
    """
    def buckets(families: dict) -> Dict[float, float]:
        counts: Dict[float, float] = defaultdict(float)
        for labels, value in _samples(families, family, f"{family}_bucket", **match):
            counts[float(labels["le"])] += value
        return counts

    start, end = buckets(before), buckets(after)
    edges = sorted(end)
    cumulative = [end[edge] - start.get(edge, 0.0) for edge in edges]
    if not cumulative or cumulative[-1] <= 0:
        return 0.0
    rank = cumulative[-1] / 2.0
    lower_edge, lower_count = 0.0, 0.0
    for edge, count in zip(edges, cumulative):
        if count >= rank:
            if edge == float("inf"):
                return lower_edge * 1000.0
            share = (rank - lower_count) / max(count - lower_count, 1e-12)
            return (lower_edge + (edge - lower_edge) * share) * 1000.0
        lower_edge, lower_count = edge, count
    return lower_edge * 1000.0


def counter_metrics(before: dict, after: dict, client_p50_ms: float,
                    client_stats: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Counter-derived per-layer metrics for one timed window."""
    def mean_ms(family: str, **match: str) -> float:
        count = _delta(before, after, family, f"{family}_count", **match)
        total = _delta(before, after, family, f"{family}_sum", **match)
        return total / count * 1000.0 if count else 0.0

    edge_p50 = _histogram_p50(before, after, "repro_http_request_latency_seconds",
                              route="/v1/predict")
    batches = _delta(before, after, "repro_scheduler_batches_total")
    rows = _delta(before, after, "repro_scheduler_batch_rows",
                  "repro_scheduler_batch_rows_sum")
    routed: Dict[str, float] = defaultdict(float)
    for family_set, sign in ((after, 1.0), (before, -1.0)):
        for labels, value in _samples(family_set, "repro_ring_routed_total"):
            routed[labels.get("worker", "")] += sign * value
    per_worker = list(routed.values())
    hits = _delta(before, after, "repro_ensemble_cache_hits_total")
    misses = _delta(before, after, "repro_ensemble_cache_misses_total")
    return {
        "serve.http.requests": _delta(before, after, "repro_http_requests_total"),
        "serve.http.edge_p50_ms": edge_p50,
        "serve.http.wire_gap_ms": client_p50_ms - edge_p50,
        "serve.scheduler.batches": batches,
        "serve.scheduler.rows_per_batch": rows / batches if batches else 0.0,
        "serve.scheduler.wait_ms": mean_ms("repro_scheduler_batch_wait_seconds"),
        "serve.cluster.shm_segments": (
            _delta(before, after, "repro_cluster_shm_segments_total", event="created")
            + _delta(before, after, "repro_cluster_shm_segments_total", event="consumed")),
        "serve.cluster.shm_bytes": _delta(before, after, "repro_cluster_shm_bytes_total"),
        "serve.cluster.routed_imbalance": (
            max(per_worker) / max(min(per_worker), 1.0) if per_worker else 0.0),
        "serve.cluster.failovers": _delta(before, after, "repro_ring_failover_total"),
        "serve.cluster.worker_restarts": _delta(
            before, after, "repro_cluster_worker_restarts_total"),
        "serve.service.ensemble_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0),
        "serve.service.ensemble_lookups": hits + misses,
        "serve.service.ensemble_ms": mean_ms("repro_request_latency_seconds",
                                             lane="ensemble"),
        "serve.jobs.cells": _delta(before, after, "repro_study_cells_total",
                                   outcome="ok"),
        "serve.jobs.checkpoint_writes": _delta(
            before, after, "repro_study_checkpoint_writes_total"),
        "serve.jobs.cell_retries": _delta(before, after,
                                          "repro_study_cell_retries_total"),
        "api.connections_opened": float(sum(s["connections_opened"] for s in client_stats)),
        "api.connections_reused": float(sum(s["connections_reused"] for s in client_stats)),
        "api.retries": float(sum(s["retries"] for s in client_stats)),
    }


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Span:
    """One recorded call; ``child_ns`` sums its same-thread children."""

    __slots__ = ("name", "start", "end", "id", "parent", "rid", "extra",
                 "pid", "child_ns")

    def __init__(self, pid: int, row: Sequence) -> None:
        (self.name, self.start, self.end, self.id, self.parent, self.rid,
         self.extra) = row
        self.pid = pid
        self.child_ns = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration - self.child_ns


def load_spans(client_pid: int, client_rows: Iterable[Sequence],
               trace_dir: Path) -> List[Span]:
    """Every span of the traced run: the client's and each server process's."""
    spans = [Span(client_pid, row) for row in client_rows]
    for path in sorted(trace_dir.glob("spans-*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(Span(document["pid"], row) for row in document["spans"])
    by_key = {(span.pid, span.id): span for span in spans}
    for span in spans:
        parent = by_key.get((span.pid, span.parent))
        if parent is not None:
            parent.child_ns += span.duration
    return spans


def _children_by_parent(spans: List[Span]) -> Dict[Tuple[int, int], List[Span]]:
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.pid, span.parent)].append(span)
    return children


def blocking_path(spans: List[Span], client_pid: int) -> List[Tuple[float, Dict[str, float], bool]]:
    """Per traced predict: (client ms, self ms per PATH bucket, fully linked).

    Self time is a span's duration minus the spans it directly contains on
    the same thread.  Three links cross threads or processes, by request
    id: the edge's handle span sits inside the client's exchange (the
    rest of the exchange is ``serve.http.wire_*``), the worker's spans sit
    inside the edge's cluster call (the rest is ``serve.cluster.roundtrip``),
    and the scheduler batch that served the request sits inside the
    worker's service call (the gap before it is the queue wait).
    """
    children = _children_by_parent(spans)
    by_rid: Dict[str, List[Span]] = defaultdict(list)
    executes: Dict[str, Tuple[Span, int]] = {}
    for span in spans:
        if span.rid is not None:
            by_rid[span.rid].append(span)
        if span.name == "serve.scheduler.execute" and span.extra:
            for rid, submitted, _rows in span.extra:
                if rid is not None:
                    executes[rid] = (span, submitted)

    def subtree(span: Span, into: Dict[str, float]) -> None:
        for child in children.get((span.pid, span.id), ()):
            into[child.name] += child.self_ns / 1e6
            subtree(child, into)

    results = []
    for rid, group in by_rid.items():
        roots = [span for span in group if span.name == "api.predict"
                 and span.pid == client_pid]
        if len(roots) != 1:
            continue
        root = roots[0]
        path: Dict[str, float] = defaultdict(float)
        path["api.client"] += root.self_ns / 1e6
        subtree(root, path)
        exchange = sum(s.self_ns for s in group if s.name == "api.exchange") / 1e6
        path.pop("api.exchange", None)
        handle = [s for s in group if s.name == "serve.http.handle"]
        call = [s for s in group if s.name == "serve.cluster.call"]
        service = [s for s in group if s.name == "serve.service.predict"]
        linked = len(handle) == 1 and len(call) == 1 and len(service) == 1 \
            and rid in executes
        if not linked:
            results.append((root.duration / 1e6, dict(path), False))
            continue
        handle, call, service = handle[0], call[0], service[0]
        # Clocks are system-wide, so the gap splits into the way out (client
        # send to edge dispatch) and the way back.
        sent = min(s.start for s in group if s.name == "api.exchange")
        path["serve.http.wire_request"] += (handle.start - sent) / 1e6
        path["serve.http.wire_response"] += (
            exchange - handle.duration / 1e6 - (handle.start - sent) / 1e6)
        path["serve.http.handle"] += handle.self_ns / 1e6
        subtree(handle, path)
        # The edge's call minus everything the worker did for this request.
        worker_roots = [s for s in group if s.pid == service.pid and not s.parent]
        path["serve.cluster.roundtrip"] += (
            call.self_ns - sum(s.duration for s in worker_roots)) / 1e6
        path.pop("serve.cluster.call", None)
        for span in worker_roots:
            if span is not service:
                path[span.name] += span.self_ns / 1e6
                subtree(span, path)
        execute, submitted = executes[rid]
        path["serve.scheduler.queue_wait"] += (execute.start - submitted) / 1e6
        path["serve.service.predict"] += (
            service.duration - (execute.end - submitted)) / 1e6
        path["serve.scheduler.execute"] += execute.self_ns / 1e6
        subtree(execute, path)
        path.pop("serve.scheduler.submit", None)
        results.append((root.duration / 1e6, dict(path), True))
    return results


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Path buckets reported as ``<bucket>_ms`` (mean over the p50 band).
BAND_METRICS = tuple(bucket for bucket in PATH if bucket not in (
    "serve.scheduler.execute", "runtime.plan.run", "serve.shm.offload",
    "serve.shm.restore"))
#: Span names reported as ``<name>_ms``: the median duration of one call.
CALL_METRICS = ("serve.scheduler.execute", "runtime.plan.run",
                "runtime.montecarlo.sample", "runtime.montecarlo.run",
                "serve.jobs.cell", "serve.jobs.checkpoint", "serve.registry.get")


def span_metrics(spans: List[Span], client_pid: int, untraced_p50_ms: float
                 ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
    """Traced per-layer metrics, their sample counts, and the p50 breakdown.

    The breakdown averages each PATH bucket over the p50 band, the fifth
    of traced predicts whose client latency is closest to the median, so
    its buckets add up to that latency.
    """
    paths = sorted(blocking_path(spans, client_pid), key=lambda item: item[0])
    low = int(len(paths) * 0.4)
    band = paths[low:max(int(len(paths) * 0.6), low + 1)] if paths else []
    breakdown: Dict[str, float] = {bucket: 0.0 for bucket in PATH}
    for _, path, _ in band:
        for bucket, value in path.items():
            breakdown[bucket] = breakdown.get(bucket, 0.0) + value / len(band)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    server_pids = {span.pid for span in spans if span.pid != client_pid}
    for span in spans:
        if span.pid in server_pids:
            by_name[span.name].append(span)
    checkpoint_bytes = [float(s.extra) for s in by_name["serve.jobs.checkpoint"] if s.extra]
    accounted = sum(breakdown.values())
    metrics: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for bucket in BAND_METRICS:
        metrics[f"{bucket}_ms"] = breakdown[bucket]
        counts[f"{bucket}_ms"] = len(band)
    for name in CALL_METRICS:
        metrics[f"{name}_ms"] = _median([s.duration / 1e6 for s in by_name[name]])
        counts[f"{name}_ms"] = len(by_name[name])
    # Shared memory: only the calls that actually moved a segment.
    for name in ("serve.shm.offload", "serve.shm.restore"):
        moved = [s.duration / 1e6 for s in by_name[name] if s.extra]
        metrics[f"{name}_ms"] = _median(moved)
        counts[f"{name}_ms"] = len(moved)
    metrics["serve.jobs.checkpoint_bytes"] = _median(checkpoint_bytes)
    counts["serve.jobs.checkpoint_bytes"] = len(checkpoint_bytes)
    metrics["serve.registry.loads"] = float(len(by_name["runtime.plan.load"]))
    metrics.update({
        "trace.accounted_ms": accounted,
        "trace.accounted_ratio": accounted / untraced_p50_ms if untraced_p50_ms else 0.0,
        "trace.overhead_ms": _median([total for total, _, _ in paths]) - untraced_p50_ms,
        "trace.linked_ratio": (sum(1 for _, _, ok in paths if ok) / len(paths)
                               if paths else 0.0),
        "trace.spans": float(len(spans)),
    })
    for name in ("serve.registry.loads", "trace.spans"):
        counts[name] = 1
    for name in ("trace.accounted_ms", "trace.accounted_ratio"):
        counts[name] = len(band)
    for name in ("trace.overhead_ms", "trace.linked_ratio"):
        counts[name] = len(paths)
    return metrics, counts, breakdown
