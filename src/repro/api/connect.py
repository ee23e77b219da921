"""``connect(target)``: one entry point, three interchangeable backends.

The target string picks the transport; everything after it is backend
configuration.  Query parameters and keyword options merge (keyword wins),
so the same target string can be stored in config and tuned at the call
site:

``local:plans/``  or  ``local:plans/?capacity=8&max_batch=32``
    Build a :class:`~repro.serve.registry.PlanRegistry` over the directory
    plus an in-process :class:`~repro.serve.service.InferenceService`;
    returns a :class:`~repro.api.client.LocalClient` that owns both.
    ``precision=int8`` (or ``int16``/``float32``) serves every plan through
    :meth:`~repro.runtime.plan.InferencePlan.with_precision` — grid-exact
    weight ops run on the integer kernels.  ``max_batch=auto`` turns on the
    adaptive micro-batch cap; ``jobs_dir=PATH`` makes study jobs
    (``client.submit_study``) checkpoint and resume there.
``http://host:port``  (or ``https://``)
    Return an :class:`~repro.api.http_client.HttpClient` for a running
    :class:`~repro.serve.http.PlanServer` (options: ``token``,
    ``timeout``, ``retries``, ``retry_backoff``, ``encoding``,
    ``pool_size`` / ``keepalive_timeout`` for the keep-alive connection
    pool; for ``https://``: ``cafile`` to pin a CA bundle,
    ``insecure=true`` to skip verification in test rigs).
``cluster:plans/?workers=4&replicas=2``
    Spawn a replicated :class:`~repro.serve.cluster.PlanCluster` over the
    directory; returns a :class:`~repro.api.client.ClusterClient` that
    owns it.  ``replicas`` is the consistent-hash ring's replication
    factor R (default 2, capped by ``workers``; ``replicas=1`` restores
    single-owner sharding) and ``vnodes`` its virtual nodes per worker.
    Self-healing and transport knobs ride along:
    ``auto_restart=true`` (supervised respawn of dead workers, with
    ``max_restarts`` / ``restart_backoff`` / ``stability_window``
    shaping the crash-loop circuit breaker), ``shm_threshold=BYTES``
    (shared-memory array transport; ``off`` disables), and
    ``worker_died_retries`` / ``worker_died_backoff`` for the client's
    transparent retry of requests a dying worker stranded.
    ``log_dir=PATH`` writes one logfmt file per worker
    (``worker-N.log``) carrying every request's trace id.
    ``precision=int8`` lowers plans inside every worker, exactly like the
    ``local:`` knob.

Example — the same script against any backend::

    with repro.api.connect(target) as client:
        result = client.predict(PredictRequest(images, "lenet", "acm", bits=4))
"""

from __future__ import annotations

import urllib.parse
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.api.client import Client, ClusterClient, LocalClient
from repro.api.http_client import HttpClient
from repro.serve.cluster import PlanCluster
from repro.serve.registry import PlanRegistry
from repro.serve.service import InferenceService

def _parse_max_batch(text: str) -> Any:
    """``max_batch`` query value: an int cap, or ``auto`` for the adaptive
    probe-don't-tune cap (:class:`~repro.serve.scheduler.AdaptiveMaxBatch`)."""
    if text.strip().lower() == "auto":
        return "auto"
    return int(text)


def _parse_bool(text: str) -> bool:
    """Parse a query-string boolean (``auto_restart=true`` and friends)."""
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_shm_threshold(text: str) -> Any:
    """``shm_threshold`` query value: bytes, or a negative value / ``off``
    to disable the shared-memory transport."""
    if text.strip().lower() in ("off", "none"):
        return None
    value = int(text)
    return None if value < 0 else value


#: Query parameters each directory-backed scheme understands, with the
#: parser applied to the (string) query value.
_LOCAL_PARAMS: Dict[str, Callable[[str], Any]] = {
    "capacity": int,
    "max_batch": _parse_max_batch,
    "max_wait_ms": float,
    "max_queue_depth": int,
    "max_concurrent_ensembles": int,
    "ensemble_cache_size": int,
    "precision": str,
    "timeout": float,
    "jobs_dir": str,
}
_CLUSTER_PARAMS: Dict[str, Callable[[str], Any]] = {
    "workers": int,
    "replicas": int,
    "vnodes": int,
    "capacity": int,
    "max_batch": _parse_max_batch,
    "max_wait_ms": float,
    "max_queue_depth": int,
    "max_concurrent_ensembles": int,
    "handler_threads": int,
    "start_method": str,
    "precision": str,
    "timeout": float,
    "ensemble_timeout": float,
    "shm_threshold": _parse_shm_threshold,
    "auto_restart": _parse_bool,
    "max_restarts": int,
    "restart_backoff": float,
    "max_restart_backoff": float,
    "stability_window": float,
    "worker_died_retries": int,
    "worker_died_backoff": float,
    "worker_died_backoff_cap": float,
    "log_dir": str,
    "jobs_dir": str,
}
_HTTP_PARAMS: Dict[str, Callable[[str], Any]] = {
    "token": str,
    "timeout": float,
    "retries": int,
    "retry_backoff": float,
    "encoding": str,
    "cafile": str,
    "insecure": _parse_bool,
    "pool_size": int,
    "keepalive_timeout": float,
}


def _merge_params(
    scheme: str, query: str, params: Mapping[str, Callable[[str], Any]],
    options: Mapping[str, Any],
) -> Dict[str, Any]:
    """Parse a query string against ``params`` and fold ``options`` over it.

    Unknown keys — in the query *or* the keyword options — raise
    ``ValueError`` so a typo'd target string fails loudly instead of
    silently serving defaults.
    """
    merged: Dict[str, Any] = {}
    for key, values in urllib.parse.parse_qs(query, keep_blank_values=True).items():
        parser = params.get(key)
        if parser is None:
            raise ValueError(
                f"unknown {scheme} parameter {key!r}; expected one of "
                f"{sorted(params)}"
            )
        merged[key] = parser(values[-1])
    # Explicit keyword options win over the query string.
    for key, value in options.items():
        if key not in params:
            raise ValueError(
                f"unknown {scheme} option {key!r}; expected one of "
                f"{sorted(params)}"
            )
        merged[key] = value
    return merged


def _parse_directory_target(
    target: str, scheme: str, params: Mapping[str, Callable[[str], Any]],
    options: Dict[str, Any],
) -> Tuple[str, Dict[str, Any]]:
    """Split ``scheme:path?query`` and fold the query into ``options``."""
    rest = target[len(scheme) + 1:]
    path, _, query = rest.partition("?")
    if not path:
        raise ValueError(
            f"{scheme}: target needs a plan directory, e.g. "
            f"'{scheme}:plans/' (got {target!r})"
        )
    return path, _merge_params(f"{scheme}:", query, params, options)


def connect(target: str, **options: Any) -> Client:
    """Open a typed client for ``target`` (see module docstring for schemes).

    Directory-backed schemes build and *own* their backend — closing the
    client (or leaving its ``with`` block) drains and closes it.  Unknown
    schemes and parameters raise ``ValueError`` immediately; everything
    after construction speaks typed :class:`~repro.api.errors.ApiError`.
    """
    if target.startswith(("http://", "https://")):
        base_url, _, query = target.partition("?")
        params = _merge_params("http(s)://", query, _HTTP_PARAMS, options)
        return HttpClient(base_url, **params)

    scheme = target.partition(":")[0]
    if scheme == "local":
        path, params = _parse_directory_target(
            target, "local", _LOCAL_PARAMS, options
        )
        timeout = params.pop("timeout", 60.0)
        capacity = params.pop("capacity", 4)
        jobs_dir = params.pop("jobs_dir", None)
        registry = PlanRegistry(path, capacity=capacity)
        service = InferenceService(registry, **params)
        return LocalClient(service, own_backend=True, timeout=timeout,
                           jobs_dir=jobs_dir)

    if scheme == "cluster":
        path, params = _parse_directory_target(
            target, "cluster", _CLUSTER_PARAMS, options
        )
        timeout = params.pop("timeout", 60.0)
        ensemble_timeout = params.pop("ensemble_timeout", 120.0)
        jobs_dir = params.pop("jobs_dir", None)
        client_options = {
            key: params.pop(key)
            for key in ("worker_died_retries", "worker_died_backoff",
                        "worker_died_backoff_cap")
            if key in params
        }
        params["num_workers"] = params.pop("workers", 2)
        cluster = PlanCluster(path, **params)
        return ClusterClient(cluster, own_backend=True, timeout=timeout,
                             ensemble_timeout=ensemble_timeout,
                             jobs_dir=jobs_dir, **client_options)

    raise ValueError(
        f"unrecognised connect target {target!r}; expected 'local:DIR', "
        f"'cluster:DIR?workers=N', or 'http://HOST:PORT'"
    )

