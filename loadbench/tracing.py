"""Spans around the public calls of each layer, recorded from outside ``src/``.

:func:`instrument` replaces functions and methods of the ``repro`` package
with wrappers that record one span per call: name, start, end, parent (the
enclosing span on the same thread) and the request's ``X-Request-Id`` when
the call carries one.  Wrappers are installed by rebinding every name that
refers to the original function in the already-imported ``repro`` modules,
so ``from module import function`` bindings are covered too.

Spans stay in memory and are written to ``<trace_dir>/spans-<pid>.json``
when the process exits (:func:`install`).  Clocks are ``CLOCK_MONOTONIC``
nanoseconds, which on Linux are comparable across processes.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple


class Recorder:
    """Per-process span store; ``spans`` holds one tuple per finished call."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Scheduler futures -> (request id, submit time): links a coalesced
        # batch, executed on the scheduler thread, to the requests it serves.
        self.future_rids: "weakref.WeakKeyDictionary[Any, Tuple[Optional[str], int]]" = (
            weakref.WeakKeyDictionary()
        )

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        rid_of: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        note: Optional[Callable[[tuple, dict, Any, Optional[str], int], Any]] = None,
        sticky: bool = False,
    ) -> Callable[..., Any]:
        """``func`` wrapped to record a span named ``name``.

        ``rid_of(args, kwargs)`` extracts an explicit request id; otherwise
        the parent's is inherited (or, with ``sticky``, the id of the last
        rid-carrying root span on this thread — the worker's reply path).
        ``note(args, kwargs, result, rid, start)`` returns extra data
        stored with the span.
        """
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.monotonic_ns

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rid = None
            if rid_of is not None:
                rid = rid_of(args, kwargs)
                if parent is None:
                    local.last_rid = rid
            if rid is None:
                if parent is not None:
                    rid = parent[1]
                elif sticky:
                    rid = getattr(local, "last_rid", None)
            span_id = next(ids)
            stack.append((span_id, rid))
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = None
                if note is not None:
                    try:
                        extra = note(args, kwargs, result, rid, start)
                    except Exception:  # noqa: BLE001 - tracing never fails a call
                        extra = None
                spans.append((name, start, end, span_id,
                              parent[0] if parent is not None else 0, rid, extra))

        return traced

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        payload = {"pid": os.getpid(), "spans": list(self.spans)}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# ---------------------------------------------------------------------- #
# Request-id extractors and notes
# ---------------------------------------------------------------------- #
def _rid_attr(index: int) -> Callable[[tuple, dict], Optional[str]]:
    def extract(args: tuple, kwargs: dict) -> Optional[str]:
        return getattr(args[index], "request_id", None) if len(args) > index else None
    return extract


def _rid_kwarg(args: tuple, kwargs: dict) -> Optional[str]:
    return kwargs.get("request_id")


def _rid_header(args: tuple, kwargs: dict) -> Optional[str]:
    return args[0].headers.get("X-Request-Id")


def _rid_payload(args: tuple, kwargs: dict) -> Optional[str]:
    payload = args[0] if args else None
    return payload.get("request_id") if isinstance(payload, dict) else None


def _rid_cell(args: tuple, kwargs: dict) -> Optional[str]:
    job, index = args[1], args[2]
    return f"{job.job_id}-c{index}"


def _checkpoint_bytes(args: tuple, kwargs: dict, result: Any,
                      rid: Optional[str], start: int) -> Any:
    manager, job = args[0], args[1]
    if manager.checkpoint_dir is None:
        return None
    return os.path.getsize(manager.checkpoint_dir / f"{job.job_id}.json")


def _segments_created(args: tuple, kwargs: dict, result: Any,
                      rid: Optional[str], start: int) -> Any:
    return len(result[1]) if result is not None else 0


def _restored(args: tuple, kwargs: dict, result: Any,
              rid: Optional[str], start: int) -> Any:
    return result is not None and result is not args[0]


# ---------------------------------------------------------------------- #
# What gets wrapped
# ---------------------------------------------------------------------- #
def _targets(recorder: Recorder) -> List[Tuple[Any, str, str, Dict[str, Any]]]:
    """(owner, attribute, span name, wrap options) for every traced call."""
    from repro.api import codec, http_client
    from repro.runtime import montecarlo, plan, wire
    from repro.serve import cluster, http, jobs, registry, scheduler, service, shm

    def remember_future(args: tuple, kwargs: dict, result: Any,
                        rid: Optional[str], start: int) -> Any:
        if result is not None:
            recorder.future_rids[result] = (rid, start)
        return None

    def batch_rids(args: tuple, kwargs: dict, result: Any,
                   rid: Optional[str], start: int) -> Any:
        batch = args[1]
        linked = []
        for array, future in batch:
            entry = recorder.future_rids.get(future)
            if entry is not None:
                linked.append([entry[0], entry[1], int(array.shape[0])])
        return linked

    return [
        # api: client, codec, pool
        (http_client.HttpClient, "predict", "api.predict", {"rid_of": _rid_attr(1)}),
        (http_client.HttpClient, "_exchange", "api.exchange", {}),
        (http_client, "parse_json_body", "api.decode", {}),
        (codec, "encode_predict_request", "api.encode", {}),
        (codec, "encode_predict_result", "api.encode", {}),
        (codec, "decode_predict_request", "api.decode", {}),
        (codec, "decode_predict_result", "api.decode", {}),
        # runtime.wire
        (wire, "encode_array", "runtime.wire.encode", {}),
        (wire, "decode_array", "runtime.wire.decode", {}),
        # serve.http (edge): the whole exchange after the request line
        (http._Handler, "_dispatch", "serve.http.handle", {"rid_of": _rid_header}),
        # serve.cluster: one routed call, edge side
        (cluster.PlanCluster, "predict_request", "serve.cluster.call",
         {"rid_of": _rid_attr(1)}),
        (cluster.PlanCluster, "ensemble_request", "serve.cluster.call",
         {"rid_of": _rid_attr(1)}),
        # serve.shm
        (shm, "offload_payload", "serve.shm.offload",
         {"rid_of": _rid_payload, "sticky": True, "note": _segments_created}),
        (shm, "restore_payload", "serve.shm.restore",
         {"rid_of": _rid_payload, "note": _restored}),
        # serve.service: lanes
        (service.InferenceService, "predict", "serve.service.predict",
         {"rid_of": _rid_kwarg}),
        (service.InferenceService, "predict_under_variation",
         "serve.service.ensemble", {"rid_of": _rid_kwarg}),
        # serve.scheduler
        (scheduler.MicroBatchScheduler, "submit", "serve.scheduler.submit",
         {"note": remember_future}),
        (scheduler.MicroBatchScheduler, "_execute", "serve.scheduler.execute",
         {"note": batch_rids}),
        # serve.registry
        (registry.PlanRegistry, "get", "serve.registry.get", {}),
        (plan.InferencePlan, "load", "runtime.plan.load", {}),
        # serve.jobs
        (jobs.JobManager, "_run_cell", "serve.jobs.cell", {"rid_of": _rid_cell}),
        (jobs.JobManager, "_checkpoint", "serve.jobs.checkpoint",
         {"note": _checkpoint_bytes}),
        # runtime.plan: the program and its ops by kind
        (plan.InferencePlan, "run", "runtime.plan.run", {}),
        (plan.ConvOp, "run", "runtime.plan.op.conv", {}),
        (plan.DenseOp, "run", "runtime.plan.op.dense", {}),
        (plan.MaxPoolOp, "run", "runtime.plan.op.pool", {}),
        (plan.AvgPoolOp, "run", "runtime.plan.op.pool", {}),
        (plan.ActivationOp, "run", "runtime.plan.op.activation", {}),
        (plan.FlattenOp, "run", "runtime.plan.op.flatten", {}),
        # runtime.montecarlo
        (montecarlo, "sample_crossbar_weights", "runtime.montecarlo.sample", {}),
        (montecarlo, "run_plan_samples", "runtime.montecarlo.run", {}),
    ]


def instrument(recorder: Recorder) -> None:
    """Install every wrapper, once per process."""
    for owner, attribute, name, options in _targets(recorder):
        raw = owner.__dict__[attribute]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        traced = recorder.wrap(name, original, **options)
        setattr(owner, attribute, classmethod(traced) if is_classmethod else traced)
        if isinstance(owner, type):
            continue
        # Module-level function: rebind ``from owner import attribute``
        # copies held by other repro modules.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def install(trace_dir: str) -> Recorder:
    """Instrument this process and dump its spans into ``trace_dir`` at exit."""
    recorder = Recorder()
    instrument(recorder)
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    atexit.register(recorder.dump, path)
    return recorder
