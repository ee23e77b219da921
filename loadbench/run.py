"""Out-of-process serving benchmark for ``repro.serve``.

    python3 loadbench/run.py --workload predict-small --seed 1 --seconds 40 --trace 0

Generates seeded plans and inputs, computes every reference answer, then
spawns the stock server (``python -m repro.serve ... --workers 2``) as its
own process and drives it over HTTP from two closed-loop client threads.
Every answer is checked.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload for half the seconds against the stock
server and half against the same server with spans around each layer, and
prints the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "predict-small": "1-image predicts over pooled keep-alive clients: the "
                     "edge, codec, pipe transport and scheduler window carry "
                     "the time, plan compute is ~0.2 ms",
    "study-sweep": "the Fig. 6 study back to back beside one predict-small "
                   "reader: Monte-Carlo sampling, the ensemble lane and "
                   "checkpoint writes contend with plain reads",
}
CLIENTS = 2
SETUP_REPEATS = 3
#: Servers a ``--trace 0`` run measures, one after another, each for an
#: equal share of ``--seconds``; their samples are pooled and their peak
#: RSS is the median over them.  A server keeps the placement it started
#: with (its processes on the cores, the clients' connections and the
#: study cells on its workers) for its whole life, and predict-small's
#: latencies and study-sweep's peak RSS shift with that from one start to
#: the next by more than a bound allows, so one server per run would
#: measure one draw of it.  study-sweep has fewer: each window must hold
#: whole studies (4-11 s each at this commit).
SERVERS = {"predict-small": 4, "study-sweep": 3}
WARMUP_REQUESTS = 10
#: Distinct study seeds with precomputed references: more studies than a
#: window starts at this commit (about 6 in 40 s); a faster server that
#: needs more reuses them round-robin.
STUDY_REFERENCES = 8
END_TO_END = {
    "setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
class Blas:
    """numpy's bundled OpenBLAS, reached through ctypes."""

    def __init__(self) -> None:
        import numpy

        pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                               "numpy.libs", "libscipy_openblas64_*.so")
        found = sorted(glob.glob(pattern))
        self.lib = ctypes.CDLL(found[0]) if found else None
        self.path = os.path.basename(found[0]) if found else None
        if self.lib is not None:
            self.lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            self.lib.scipy_openblas_get_num_threads64_.argtypes = []
            self.lib.scipy_openblas_set_num_threads64_.restype = None
            self.lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            self.lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            self.lib.scipy_openblas_get_config64_.argtypes = []

    def threads(self) -> Optional[int]:
        return None if self.lib is None else int(self.lib.scipy_openblas_get_num_threads64_())

    def set_threads(self, count: int) -> None:
        if self.lib is not None:
            self.lib.scipy_openblas_set_num_threads64_(count)

    def config(self) -> Optional[str]:
        if self.lib is None:
            return None
        return self.lib.scipy_openblas_get_config64_().decode("ascii", "replace").strip()


def environment(blas: Blas, seed: int, server_argv: List[str]) -> Dict[str, object]:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_library": blas.path,
        "blas_config": blas.config(),
        # Read before this process lowers its own count; the server
        # inherits this environment unchanged, so this is its count too.
        "blas_threads": blas.threads(),
        "server_argv": ["python"] + server_argv,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------- #
# Phases
# ---------------------------------------------------------------------- #
def set_up(argv: List[str], data):
    """Spawn a server; time until healthy and every plan answered once."""
    from repro.api import PredictRequest, connect

    import inputs as inp
    import server as srv

    instance = srv.Server(argv)
    spawned = instance.start()
    try:
        instance.wait_healthy()
        client = connect(instance.url)
        try:
            for model, mapping, bits in inp.PLANS:
                client.predict(PredictRequest(images=data.small_images[:1], model=model,
                                              bits=bits, mapping=mapping))
        finally:
            client.close()
    except BaseException:
        instance.kill()
        raise
    return instance, time.monotonic() - spawned


class Window:
    """One timed window of a workload against a running server."""

    def __init__(self, workload: str, seconds: float, stream: str) -> None:
        import load

        self.workload = workload
        self.seconds = seconds
        self.stream = stream
        self.tally = load.Tally()
        self.elapsed = 0.0
        self.before: dict = {}
        self.after: dict = {}
        self.client_stats: List[Dict[str, int]] = []
        self.rss_mb = 0.0

    def run(self, instance, data, validator) -> "Window":
        from repro.api import connect

        import inputs as inp
        import load

        studies = self.workload == "study-sweep"
        # Predict clients pool keep-alive connections; the study client
        # dials a fresh one per call (see warm_up_studies).
        clients = [connect(instance.url, pool_size=0 if studies and index == 0 else 8)
                   for index in range(CLIENTS)]
        try:
            # Warm-up (not timed): each client's pool, each worker's plans.
            warm = load.Tally()
            for index, client in enumerate(clients):
                load.predict_loop(client, data, index * 1000, float("inf"), warm,
                                  limit=WARMUP_REQUESTS)
            self.tally.merge(warm, timings=False)
            stats_before = [client.client_stats() for client in clients]
            self.before = instance.scrape(validator)
            started = time.monotonic()
            deadline = started + self.seconds
            thinks = [random.Random(f"{self.stream}/{index}") for index in range(CLIENTS)]
            if studies:
                targets = [
                    lambda: load.study_loop(clients[0], data, deadline, self.tally),
                    lambda: load.predict_loop(clients[1], data, 0, deadline, self.tally,
                                              think=thinks[1]),
                ]
            else:
                # The clients start half a pool apart, so they send different rows.
                targets = [
                    (lambda c=client, first=index * inp.SMALL_POOL // CLIENTS, t=think:
                     load.predict_loop(c, data, first, deadline, self.tally, think=t))
                    for index, (client, think) in enumerate(zip(clients, thinks))
                ]
            load.run_clients(targets)
            self.elapsed = time.monotonic() - started
            self.after = instance.scrape(validator)
            self.client_stats = [
                {key: after[key] - before.get(key, 0) for key in after}
                for before, after in zip(stats_before, (c.client_stats() for c in clients))
            ]
            self.rss_mb = instance.peak_rss_mb()
        finally:
            for client in clients:
                client.close()
        return self

    def pool(self, other: "Window") -> None:
        """Add ``other``'s samples, counts and window time to this one."""
        self.tally.merge(other.tally)
        self.elapsed += other.elapsed

    def latency(self, q: float) -> float:
        values = sorted(self.tally.latencies_ms)
        if not values:
            return 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
            if len(values) > 1 else values[0]

    @property
    def p50(self) -> float:
        values = self.tally.latencies_ms
        return statistics.median(values) if values else 0.0


def warm_up_studies(instance, data, tally) -> None:
    """One untimed two-cell study: the first ensemble a worker serves runs cold.

    Study clients dial a fresh connection per call: a status poll over a
    reused connection stalls ~40 ms on the client's delayed ACK.
    """
    from repro.api import connect

    import inputs as inp
    import load

    client = connect(instance.url, pool_size=0)
    try:
        load.run_study(client, inp.study_spec_for(data, "warm", data.warm_seed),
                       data.study_refs[data.warm_seed], tally, 0.05)
    finally:
        client.close()


def plan_cost(plan_dir: Path, rows: int = 1) -> Tuple[float, float]:
    """GEMM MFLOP and bytes moved of one predict, computed from shapes."""
    import numpy as np
    from repro.runtime import InferencePlan
    from repro.runtime.plan import ConvOp, DenseOp
    from repro.serve.registry import PlanKey

    import inputs as inp

    model, mapping, bits = inp.PREDICT_MODELS[0]
    plan = InferencePlan.load(plan_dir / f"{PlanKey(model, bits, mapping).canonical()}.npz")
    slots = {0: tuple(plan.input_shape)}
    flops = moved = 0
    for op, out in zip(plan.ops, plan.output_shapes()):
        source = slots[op.inputs[0]]
        if isinstance(op, (ConvOp, DenseOp)):
            outputs, inner = op.weight.shape
            positions = rows * (out[1] * out[2] if isinstance(op, ConvOp) else 1)
            flops += 2 * positions * inner * outputs
            moved += 8 * (positions * inner + inner * outputs + positions * outputs)
        else:
            moved += 8 * rows * (int(np.prod(source)) + int(np.prod(out)))
        slots[op.output] = tuple(out)
    return flops / 1e6, float(moved)


# ---------------------------------------------------------------------- #
def serve(argv: List[str], data, workload: str, seconds: float, stream: str, validator):
    """Start a server, run one window against it, stop it.

    Returns ``(window, set-up seconds)``.  ``stream`` seeds the clients'
    think times.  study-sweep first runs an untimed two-cell warm-up study:
    the first ensemble a worker serves runs cold.
    """
    import load

    instance, setup = set_up(argv, data)
    try:
        early = load.Tally()
        if workload == "study-sweep":
            warm_up_studies(instance, data, early)
        window = Window(workload, seconds, stream).run(instance, data, validator)
        window.tally.merge(early, timings=False)
    except BaseException:
        instance.kill()
        raise
    instance.stop()
    return window, setup


def measure(args, run_dir: Path, env_out: Dict[str, object], blas: Blas):
    """One benchmark run; returns ``(metrics, counts, tally, report lines)``."""
    import inputs as inp
    import layers
    import server as srv

    plan_dir, jobs_dir = run_dir / "plans", run_dir / "jobs"
    workload, seed = args.workload, args.seed
    argv = srv.stock_argv(plan_dir, jobs_dir)
    env_out.update(environment(blas, seed, argv))
    # This process only generates load and checks answers; one BLAS thread
    # keeps it from spinning on the cores the server needs.
    blas.set_threads(1)
    validator = srv.load_validator()

    studies = workload == "study-sweep"
    data = inp.generate(seed, STUDY_REFERENCES if studies else 0)
    inp.publish(data, plan_dir)
    inp.compute_references(data, plan_dir, run_dir / "reference-jobs", with_studies=studies)
    lines: List[str] = []

    if not args.trace:
        setups = []
        servers = SERVERS[workload]
        for _ in range(SETUP_REPEATS - servers):
            instance, setup = set_up(argv, data)
            setups.append(setup)
            instance.stop()
        window = Window(workload, args.seconds, str(seed))
        rss = []
        for index in range(servers):
            part, setup = serve(argv, data, workload, args.seconds / servers,
                                f"{seed}/{index}", validator)
            setups.append(setup)
            window.pool(part)
            rss.append(part.rss_mb)
        tally = window.tally
        predicts = len(tally.latencies_ms)
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_rps": predicts / window.elapsed,
            "latency_p50_ms": window.p50,
            "latency_p99_ms": window.latency(99),
            "peak_rss_mb": statistics.median(rss),
        }
        counts = {"setup_s": len(setups), "throughput_rps": predicts,
                  "latency_p50_ms": predicts, "latency_p99_ms": predicts,
                  "peak_rss_mb": len(rss)}
        beyond = sum(1 for value in tally.latencies_ms if value > metrics["latency_p99_ms"])
        lines.append(f"p99 has {beyond} samples beyond it; {servers} server(s), "
                     f"windows {window.elapsed:.2f} s in all")
        lines.append("peak RSS MB per server " + " ".join(f"{value:.1f}" for value in rss))
        lines.append("latency ms at p10 p25 p50 p75 p90: " + " ".join(
            f"{window.latency(q):.2f}" for q in (10, 25, 50, 75, 90)))
        lines.append("set-up seconds " + " ".join(f"{value:.3f}" for value in setups))
        if studies:
            lines.append("study seconds " + " ".join(
                f"{value:.3f}" for value in tally.study_seconds))
        error_rate = tally.failed / tally.attempted if tally.attempted else 0.0
        lines.append(f"error_rate {error_rate:.6g} ratio ({tally.failed}/{tally.attempted}"
                     f" operations failed: {tally.errors or 'none'})")
        return metrics, counts, tally, lines

    # --trace 1: half the window against the stock server, half traced.
    import tracing

    half = args.seconds / 2.0
    plain, _ = serve(argv, data, workload, half, f"{seed}/plain", validator)
    trace_dir = run_dir / "spans"
    trace_dir.mkdir()
    recorder = tracing.Recorder()
    tracing.instrument(recorder)
    traced, _ = serve(srv.traced_argv(plan_dir, jobs_dir, trace_dir), data, workload,
                      half, f"{seed}/traced", validator)
    tally = plain.tally
    tally.merge(traced.tally)
    metrics = layers.counter_metrics(plain.before, plain.after, plain.p50,
                                     plain.client_stats)
    counts = {name: len(plain.tally.latencies_ms) for name in metrics}
    spans = layers.load_spans(os.getpid(), recorder.spans, trace_dir)
    span_metrics, span_counts, breakdown = layers.span_metrics(spans, os.getpid(), plain.p50)
    metrics.update(span_metrics)
    counts.update(span_counts)
    metrics["runtime.plan.gemm_mflop"], metrics["runtime.plan.bytes_moved"] = plan_cost(plan_dir)
    study_seconds = plain.tally.study_seconds
    metrics["study_s"] = statistics.median(study_seconds) if study_seconds else 0.0
    counts["study_s"] = len(study_seconds)
    metrics["error_rate"] = tally.failed / tally.attempted if tally.attempted else 0.0
    counts["runtime.plan.gemm_mflop"] = counts["runtime.plan.bytes_moved"] = 1
    counts["error_rate"] = tally.attempted
    lines.append(f"untraced p50 {plain.p50:.3f} ms (n={len(plain.tally.latencies_ms)}), "
                 f"traced p50 {traced.p50:.3f} ms (n={len(traced.tally.latencies_ms)})")
    lines.append("blocking path of the p50 predict (mean self time, ms):")
    for bucket, value in breakdown.items():
        lines.append(f"  {bucket:32s} {value:10.4f}")
    return metrics, counts, tally, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in (SRC / "repro", ROOT / "tests" / "prometheus.py")
               if not path.exists()]
    if missing:
        print(f"loadbench: run from a repository checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers

    run_dir = ROOT / ".loadbench-run" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env: Dict[str, object] = {}
    try:
        metrics, counts, tally, lines = measure(args, run_dir, env, Blas())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    wrong = sum(count for kind, count in tally.errors.items() if kind.startswith("wrong"))
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    for line in lines:
        print(line)
    units = END_TO_END if not args.trace else {
        name: entry[0] for name, entry in layers.CATALOGUE.items()}
    for name, unit in units.items():
        note = ""
        if args.trace:
            _, _, moves, where = layers.CATALOGUE[name]
            note = f"  moves {moves} on {where}"
        print(f"{name:40s} {metrics[name]:14.6g} {unit:15s} n={counts.get(name, 0)}{note}")
    result = {
        "correct": wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
