"""Batched inference serving for BlurNet defended classifiers.

This package turns the repo's defended classifiers into a servable
workload:

* :class:`~repro.serve.registry.ModelRegistry` -- trains-or-loads named
  variants and persists their weights;
* :class:`~repro.serve.batching.MicroBatcher` -- coalesces single-image
  requests into micro-batches with busy-driven dispatch (an idle worker
  runs a request at once; what queues while it is busy forms the next
  batch);
* :class:`~repro.serve.cache.PredictionCache` -- content-addressed LRU
  cache of probability vectors, with
  :class:`~repro.serve.admission.TinyLFUCache` as the spam-resistant
  alternative behind every server's ``cache_policy="tinylfu"`` knob;
* :class:`~repro.serve.autotune.BatchTuner` -- online hill-climbing of
  ``max_batch_size`` from per-batch latency (every server's
  ``autotune=True`` knob);
* :class:`~repro.serve.server.BatchedServer` -- the one replica core
  wiring the three together behind submit/predict calls: validate, probe
  the cache, queue in the batcher, run each batch through one forward;
* :class:`~repro.serve.procshard.ProcessReplica` -- the same core with
  its forward moved into a worker *process* compiled from the registry's
  :class:`~repro.serve.registry.ModelSnapshot` (one pipe round trip per
  batch, true parallel forwards, no shared GIL);
* :class:`~repro.serve.shard.ShardedServer` -- multi-model sharding:
  per-variant shard replicas (each a pinned :class:`BatchedServer` or,
  with ``mode="process"``, a :class:`ProcessReplica`), replicas, and
  pluggable round-robin / least-loaded routing;
* :class:`~repro.serve.frontend.SocketFrontend` -- non-blocking asyncio
  socket front-end speaking length-prefixed JSON / ``.npy`` frames, with
  :class:`~repro.serve.frontend.SocketClient` as the matching client;
* :class:`~repro.serve.http.HttpFrontend` -- stdlib asyncio HTTP/1.1
  gateway for browsers and plain HTTP tooling (``POST /v1/predict``,
  ``GET /v1/models`` / ``/healthz`` / ``/metrics``), with
  :class:`~repro.serve.http.HttpClient` as the matching blocking client;
* :mod:`repro.serve.traffic` -- synthetic single- and multi-model traffic
  generation and load measurement;
* ``python -m repro.serve`` -- the command-line front end.

Quickstart::

    from repro.serve import ModelRegistry, ShardedServer, SocketFrontend

    registry = ModelRegistry("runs/serve_registry")
    models = ["baseline", "feature_filter_3x3", "input_filter_3x3"]
    with ShardedServer(registry, models, replicas=2) as server:
        response = server.predict(image, model="baseline")
        print(response.class_name, response.confidence, response.shard_id)

See ``docs/serving.md`` for the request lifecycle and ``docs/architecture.md``
for how the pieces fit the rest of the repo.
"""

from .admission import FrequencySketch, TinyLFUCache
from .autotune import BatchTuner
from .batching import MicroBatcher, QueuedRequest
from .cache import CACHE_POLICIES, PredictionCache, image_fingerprint, make_prediction_cache
from .frontend import SocketClient, SocketFrontend
from .http import HttpClient, HttpFrontend
from .procshard import ProcessReplica
from .registry import ModelRegistry, ModelSnapshot, classifier_from_snapshot
from .server import BatchedServer
from .shard import (
    LeastLoadedPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    ShardedServer,
    ShardReplica,
)
from .traffic import (
    ThroughputReport,
    coresident_interpreter_load,
    generate_adversarial_requests,
    generate_mixed_requests,
    generate_requests,
    replay_requests,
    run_load,
    run_naive_loop,
    summarize_adversarial_responses,
    synthetic_image_pool,
)
from .types import (
    PredictRequest,
    PredictResponse,
    ServerStats,
    UnknownModelError,
)

__all__ = [
    "ModelRegistry",
    "ModelSnapshot",
    "classifier_from_snapshot",
    "BatchedServer",
    "ShardedServer",
    "ShardReplica",
    "ProcessReplica",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "SocketFrontend",
    "SocketClient",
    "HttpFrontend",
    "HttpClient",
    "MicroBatcher",
    "QueuedRequest",
    "BatchTuner",
    "PredictionCache",
    "TinyLFUCache",
    "FrequencySketch",
    "make_prediction_cache",
    "CACHE_POLICIES",
    "image_fingerprint",
    "PredictRequest",
    "PredictResponse",
    "ServerStats",
    "UnknownModelError",
    "ThroughputReport",
    "generate_requests",
    "generate_mixed_requests",
    "generate_adversarial_requests",
    "summarize_adversarial_responses",
    "synthetic_image_pool",
    "run_load",
    "replay_requests",
    "run_naive_loop",
    "coresident_interpreter_load",
]
