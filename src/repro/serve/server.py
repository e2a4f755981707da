"""The replica core of the serving layer: registry + prediction cache + micro-batcher.

:class:`BatchedServer` is the one request path of the serving subsystem:

1. **Validation** -- the model name is checked against ``allowed_models``
   (or, unpinned, against what the registry can serve).
2. **Cache probe** -- the content hash of the (model, image) pair is looked
   up in the :class:`~repro.serve.cache.PredictionCache`; a hit is
   answered at once.  A miss carries its key to the batch, so the answer
   is inserted without hashing the image again.
3. **Micro-batching** -- misses queue in the
   :class:`~repro.serve.batching.MicroBatcher`, whose busy-driven worker
   runs each request at once together with whatever queued behind the
   previous batch (up to ``max_batch_size`` images).
4. **Batched forward** -- each batch runs through one method,
   :meth:`BatchedServer._forward`: here the variant's compiled
   :class:`~repro.nn.inference.InferenceEngine` (or the Monte-Carlo vote
   of a randomized-smoothing variant); in
   :class:`~repro.serve.procshard.ProcessReplica` a pipe round trip to a
   worker process.

Standalone, a :class:`BatchedServer` is the *single-queue* server shared by
every model it is asked for.  :class:`~repro.serve.shard.ShardedServer`
embeds one per shard replica, pinned to a variant via ``allowed_models``
and stamped with a ``shard_id``.

Thread-safety: ``submit`` may be called from any number of threads; the
cache, the scheduler queue and the stats are internally locked.
``restart`` and ``stop`` are owner operations and must not race each other.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import List, Optional, Sequence

import numpy as np

from ..data.signs import SIGN_CLASSES
from .autotune import BatchTuner
from .batching import MicroBatcher, QueuedRequest
from .cache import cache_metrics, image_fingerprint, make_prediction_cache
from .registry import ModelRegistry
from .types import PredictRequest, PredictResponse, ServerStats, UnknownModelError

__all__ = ["BatchedServer"]


class BatchedServer:
    """Batched, cached inference over a registry of defended classifiers.

    Parameters
    ----------
    registry:
        Source of named model variants (trained or loaded on first use);
        ``None`` in a :class:`~repro.serve.procshard.ProcessReplica`,
        whose worker process holds the weights.
    max_batch_size:
        Upper bound on images per batched forward pass.
    cache_size:
        Prediction-cache capacity; 0 disables caching.
    cache_policy:
        ``"lru"`` (recency-only admission, the default) or ``"tinylfu"``
        (frequency-gated admission that survives adversarial unique-image
        spam -- see :mod:`repro.serve.admission`).
    mode:
        ``"thread"`` for the busy-driven background-worker scheduler,
        ``"sync"`` for the deterministic in-process scheduler.
    autotune:
        When True, a per-server :class:`~repro.serve.autotune.BatchTuner`
        adjusts ``max_batch_size`` online from per-batch latency (the
        constructor value becomes the tuner's starting point).  The tuner
        -- exposed as ``self.tuner`` -- survives :meth:`restart`, so a
        revived scheduler resumes from the tuned settings instead of
        relearning.
    tuner:
        A pre-configured :class:`~repro.serve.autotune.BatchTuner` to use
        instead of the default one ``autotune=True`` would build -- for
        callers that need non-default controller constants (epoch sizing,
        dead band, hold length).  Supplying a tuner implies autotuning;
        its own initial batch size wins over ``max_batch_size``.
    class_names:
        Human-readable class labels; defaults to the 18 LISA sign classes.
    allowed_models:
        When given, requests for any other variant are rejected with
        :class:`~repro.serve.types.UnknownModelError` at submit time.  A
        shard replica pins itself to one variant this way; ``None`` (the
        default) serves every variant the registry can resolve.
    shard_id:
        Identifier stamped on every response this server produces;
        ``None`` for standalone (non-sharded) servers.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry],
        *,
        max_batch_size: int = 32,
        cache_size: int = 1024,
        cache_policy: str = "lru",
        mode: str = "thread",
        autotune: bool = False,
        tuner: Optional[BatchTuner] = None,
        class_names: Optional[Sequence[str]] = None,
        allowed_models: Optional[Sequence[str]] = None,
        shard_id: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.cache = make_prediction_cache(cache_policy, cache_size)
        self.class_names = list(class_names) if class_names is not None else list(SIGN_CLASSES)
        self.allowed_models = frozenset(allowed_models) if allowed_models is not None else None
        self.shard_id = shard_id
        self.stats = ServerStats()
        # The constructor value is the tuner's *starting point*, so the
        # ladder widens to include it when it sits outside the default
        # bounds -- autotune must never silently clamp an explicit
        # configuration.  An injected tuner is used as given.
        if tuner is None and autotune:
            tuner = BatchTuner(
                initial_batch_size=max_batch_size,
                min_batch_size=min(2, max_batch_size),
                max_batch_size=max(64, max_batch_size),
            )
        self.tuner = tuner
        self._batcher_settings = {
            "max_batch_size": max_batch_size,
            "mode": mode,
            "tuner": self.tuner,
        }
        self.batcher = MicroBatcher(self._run_batch, **self._batcher_settings)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Scheduler mode, ``"thread"`` or ``"sync"``."""

        return self.batcher.mode

    @property
    def max_batch_size(self) -> int:
        """The scheduler's current batch cap (follows the tuner when autotuning)."""

        return self.batcher.max_batch_size

    @property
    def alive(self) -> bool:
        """Whether the server can accept work right now.

        Sync-mode servers are always alive.  A thread-mode server is alive
        between :meth:`start` and :meth:`stop` while its worker thread is
        running; a crashed (or never-started) worker reports ``False``.
        """

        return self.batcher.alive

    def start(self) -> "BatchedServer":
        """Start the scheduler (no-op in sync mode).  Returns ``self``."""

        self.batcher.start()
        return self

    def stop(self) -> None:
        """Gracefully drain pending requests, then stop the scheduler.

        Every request submitted before ``stop`` resolves its future (the
        shutdown sentinel makes the worker run the backlog before
        exiting); requests submitted after raise ``RuntimeError``.
        """

        self.batcher.stop()

    def restart(self) -> "BatchedServer":
        """Replace a dead scheduler with a fresh one and start it.

        Used by :class:`~repro.serve.shard.ShardedServer` to revive a
        crashed shard replica.  The registry, cache and counters survive;
        only the queue/worker is rebuilt (``stats.restarts`` is
        incremented), and any requests still waiting in the dead scheduler
        are re-adopted by the new one so their futures eventually resolve.
        Must not be called concurrently with :meth:`submit` racing on the
        *same* dead batcher from another owner.
        """

        try:
            self.batcher.stop()
        except Exception:  # a half-dead worker must not block revival
            pass
        stranded = self.batcher.take_pending()
        self.batcher = MicroBatcher(self._run_batch, **self._batcher_settings)
        self.stats.add("restarts")
        self.start()
        if stranded:
            self.batcher.adopt(stranded)
        return self

    def flush(self) -> None:
        """Run every pending request now (sync mode; no-op in thread mode)."""

        self.batcher.flush()

    def __enter__(self) -> "BatchedServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def metrics(self) -> dict:
        """Live serving metrics of this queue (JSON-friendly).

        One envelope per queue: the lifetime :class:`ServerStats` counters
        (including per-model request counts and the batch-size histogram),
        the prediction cache's counters/hit rate, and -- when autotuning --
        the tuner's snapshot with its current and best-known rungs.  This
        is what the HTTP gateway's ``GET /metrics`` serves.
        """

        return {
            "mode": self.mode,
            "alive": self.alive,
            "shard_id": self.shard_id,
            "stats": self.stats.as_dict(),
            "cache": cache_metrics(self.cache),
            "autotune": self.tuner.as_dict() if self.tuner is not None else None,
        }

    def warm(self, model: str = "baseline") -> None:
        """Materialize a variant (and its compiled engine) ahead of traffic.

        Smoothing variants are served through their Monte-Carlo vote, not
        the engine, so only the classifier itself is materialized for them.
        """

        classifier = self.registry.get(model)
        if classifier.smoother is None:
            self.registry.engine(model)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> "Future[PredictResponse]":
        """Submit one request; returns a ``Future[PredictResponse]``.

        Cache hits resolve the future immediately; misses resolve when the
        micro-batch containing the request completes.  Raises
        :class:`~repro.serve.types.UnknownModelError` when the server is
        pinned to other variants -- or, unpinned, when the registry can
        neither resolve nor train the requested name -- and
        ``RuntimeError`` when a thread-mode scheduler is not running.
        Safe to call from any thread.
        """

        if self.allowed_models is not None:
            if request.model not in self.allowed_models:
                self.stats.add("rejected")
                raise UnknownModelError(request.model, self.allowed_models)
        elif not self.registry.can_serve(request.model):
            # Validating here fails only the offending request (not its
            # whole micro-batch at forward time), keeps the wire fronts'
            # 404 mapping honest, and stops client-controlled garbage
            # names from growing the per-model stats without bound.
            self.stats.add("rejected")
            raise UnknownModelError(
                request.model,
                set(self.registry.loaded()) | self.registry.catalog_names(),
            )
        self.stats.record_request(request.model)
        started = time.perf_counter()
        key = None
        if self.cache.enabled:
            key = image_fingerprint(request.model, request.image)
            probabilities = self.cache.get(key)
            if probabilities is not None:
                self.stats.add("cache_hits")
                future: "Future[PredictResponse]" = Future()
                future.set_result(
                    self._build_response(
                        request,
                        probabilities,
                        latency_ms=(time.perf_counter() - started) * 1000.0,
                        cache_hit=True,
                        batch_size=1,
                    )
                )
                return future
        return self.batcher.submit(request, cache_key=key)

    def predict(self, image: np.ndarray, model: str = "baseline") -> PredictResponse:
        """Synchronous convenience: submit one image and wait for the answer."""

        future = self.submit(PredictRequest(image=image, model=model))
        self.flush()
        return future.result()

    def predict_many(
        self, images: np.ndarray, model: str = "baseline"
    ) -> List[PredictResponse]:
        """Submit a stack of images and wait for all responses (in order)."""

        futures = [self.submit(PredictRequest(image=image, model=model)) for image in images]
        self.flush()
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Batch execution (called by the scheduler)
    # ------------------------------------------------------------------
    def _forward(self, model_name: str, images: np.ndarray) -> np.ndarray:
        """Class probabilities of one ``(N, C, H, W)`` batch, one row per image.

        The executor of this replica: the variant's compiled engine in the
        calling thread, or the Monte-Carlo vote for smoothing variants.
        Subclasses override it to run the forward elsewhere.
        """

        classifier = self.registry.get(model_name)
        if classifier.smoother is not None:
            # The Monte-Carlo vote is not a single forward pass; serve it
            # through the classifier's own (chunked) probability path.
            return classifier.predict_proba(images)
        return self.registry.engine(model_name).predict_proba(images, batch_size=len(images))

    def _run_batch(
        self, model_name: str, items: Sequence[QueuedRequest]
    ) -> List[PredictResponse]:
        probabilities = self._forward(
            model_name, np.stack([item.request.image for item in items])
        )
        now = time.perf_counter()
        self.stats.record_batch(len(items))
        responses: List[PredictResponse] = []
        for item, probability_row in zip(items, probabilities):
            responses.append(
                self._build_response(
                    item.request,
                    probability_row,
                    latency_ms=(now - item.submitted_at) * 1000.0,
                    cache_hit=False,
                    batch_size=len(items),
                )
            )
            if item.cache_key is not None:
                self.cache.put(item.cache_key, probability_row)
        return responses

    def _build_response(
        self,
        request: PredictRequest,
        probabilities: np.ndarray,
        latency_ms: float,
        cache_hit: bool,
        batch_size: int,
    ) -> PredictResponse:
        class_index = int(np.argmax(probabilities))
        class_name = (
            self.class_names[class_index]
            if 0 <= class_index < len(self.class_names)
            else str(class_index)
        )
        return PredictResponse(
            request_id=request.request_id,
            model=request.model,
            class_index=class_index,
            class_name=class_name,
            probabilities=np.asarray(probabilities),
            latency_ms=latency_ms,
            cache_hit=cache_hit,
            batch_size=batch_size,
            shard_id=self.shard_id,
        )
