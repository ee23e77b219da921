"""Plan-serving subsystem: registry, micro-batching, HTTP, and sharding.

This package is the request/response layer on top of the compiled runtime —
the step from "a trained model can be frozen into a serialisable
:class:`~repro.runtime.plan.InferencePlan`" to "a deployment serves many
such plans to concurrent clients over the network":

* :class:`PlanRegistry` (:mod:`repro.serve.registry`) — a directory of plan
  artifacts indexed by ``(model, bits, mapping)``, loaded lazily, kept
  resident in a bounded LRU cache, and addressable by content digest.
* :class:`MicroBatchScheduler` (:mod:`repro.serve.scheduler`) — dynamic
  micro-batching: concurrent requests coalesce (up to ``max_batch`` rows /
  ``max_wait_ms``) into single stacked plan executions whose rows scatter
  back onto per-request futures.
* :class:`InferenceService` (:mod:`repro.serve.service`) — the in-process
  façade: deterministic ``predict`` (bit-equivalent to the evaluation
  helpers) and seeded ``predict_under_variation`` Monte-Carlo ensembles
  whose sampled weight stacks are cached per (plan, sigma, samples, seed).
* :class:`PlanServer` (:mod:`repro.serve.http`) — the stdlib HTTP/JSON
  front-end: ``POST /v1/predict``, ``POST /v1/predict_under_variation``,
  ``GET /v1/models``, ``GET /v1/stats``, ``GET /healthz``, with arrays
  carried base64-packed or as nested lists and failures mapped to 4xx.
* :class:`PlanCluster` (:mod:`repro.serve.cluster`) — cross-process
  sharding: N worker processes over one registry directory, models
  partitioned by a stable key hash (:func:`shard_index`), each worker
  running its own schedulers so independent models serve in true parallel.
  Large arrays cross the process boundary over shared memory
  (:mod:`repro.serve.shm`), and ``auto_restart=True`` makes the cluster
  self-healing: dead workers respawn with backoff behind a crash-loop
  circuit breaker.
* :func:`run_variation_study_parallel` (:mod:`repro.serve.pool`) — the
  Fig. 6 study fanned out over a process pool, one worker per independent
  (bits, mapping) training cell.
* :class:`JobManager` (:mod:`repro.serve.jobs`) — asynchronous study jobs:
  a typed sweep spec decomposed into idempotent cells, executed through
  any typed backend, checkpointed to disk after every cell
  (write-rename), and resumed after a worker or manager death with zero
  lost cells.
* Versioned rollout (:mod:`repro.serve.registry`) — ``__vN`` plan
  artifacts published alongside v1, a deterministic per-request-id canary
  split (:func:`canary_bucket`), and atomic promote/rollback without a
  restart.

``python -m repro.serve --plan-dir DIR [--workers N]`` starts the HTTP
endpoint over either backend (:mod:`repro.serve.__main__`).

Consumers should not usually code against these classes directly:
:mod:`repro.api` is the typed, transport-agnostic facade —
``repro.api.connect("local:DIR" | "http://host:port" |
"cluster:DIR?workers=N")`` returns interchangeable clients speaking the
shared request/response dataclasses, and both backends here implement its
typed entry points (``predict_request`` / ``ensemble_request``) natively.
"""

from repro.serve.registry import (
    PlanArtifactError,
    PlanEntry,
    PlanKey,
    PlanRegistry,
    RolloutEntry,
    canary_bucket,
    parse_bits,
)
from repro.serve.scheduler import (
    AUTO_MAX_BATCH,
    AdaptiveMaxBatch,
    MicroBatchScheduler,
    SchedulerStats,
)
from repro.serve.service import InferenceService, VariationPrediction
from repro.serve.http import PlanServer, RequestError
from repro.serve.cluster import PlanCluster, shard_index
from repro.serve.shm import DEFAULT_SHM_THRESHOLD, ShmRef
from repro.serve.jobs import JobManager
from repro.serve.pool import StudyCell, run_study_cell, run_variation_study_parallel

__all__ = [
    "AUTO_MAX_BATCH",
    "AdaptiveMaxBatch",
    "DEFAULT_SHM_THRESHOLD",
    "InferenceService",
    "JobManager",
    "MicroBatchScheduler",
    "PlanArtifactError",
    "PlanCluster",
    "PlanEntry",
    "PlanKey",
    "PlanRegistry",
    "PlanServer",
    "RequestError",
    "RolloutEntry",
    "SchedulerStats",
    "ShmRef",
    "StudyCell",
    "VariationPrediction",
    "canary_bucket",
    "parse_bits",
    "run_study_cell",
    "run_variation_study_parallel",
    "shard_index",
]
