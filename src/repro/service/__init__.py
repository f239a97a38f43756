"""Query-serving subsystem: registries, caches, parallel execution, metrics.

The one-shot engine in :mod:`repro.core` pays graph load and ``prepare()``
on every call; this package amortizes both across a query stream — the
deployment shape of real temporal-matching systems.  Entry points:

* :class:`TCSMService` — the embeddable façade (see docs/SERVICE.md).
* :func:`serve_stdio` — a JSONL request/response loop over text streams,
  exposed on the command line as ``repro serve`` / ``repro submit``.

The building blocks (graph registry, plan/result caches, partitioned
executor, metrics registry) are public for direct embedding and tests.
"""

from .cache import ResultCache, ResultKey
from .executor import ExecutionOutcome, ProcessSpec, QueryExecutor
from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from .plans import (
    CachedPlan,
    PlanCache,
    PlanKey,
    match_options_fingerprint,
    options_fingerprint,
    pattern_fingerprint,
)
from .async_front import AsyncFrontConfig, AsyncFrontDoor, serve_stdio_async
from .registry import GraphHandle, GraphRegistry
from .server import (
    PendingRequest,
    ServiceConfig,
    ServiceResult,
    TCSMService,
    serve_stdio,
)
from .tracing import TraceSampler, TraceStore

__all__ = [
    "AsyncFrontConfig",
    "AsyncFrontDoor",
    "CachedPlan",
    "DEFAULT_LATENCY_BUCKETS",
    "ExecutionOutcome",
    "GraphHandle",
    "GraphRegistry",
    "Histogram",
    "MetricsRegistry",
    "PendingRequest",
    "PlanCache",
    "PlanKey",
    "ProcessSpec",
    "QueryExecutor",
    "ResultCache",
    "ResultKey",
    "ServiceConfig",
    "ServiceResult",
    "TCSMService",
    "TraceSampler",
    "TraceStore",
    "match_options_fingerprint",
    "options_fingerprint",
    "pattern_fingerprint",
    "serve_stdio",
    "serve_stdio_async",
]
