"""Typed request/response layer of the serving subsystem.

A :class:`PredictRequest` wraps one image destined for one named model; the
server answers with a :class:`PredictResponse` carrying the decision, the
full probability vector and the serving metadata (latency, whether the
answer came from the prediction cache, the size of the micro-batch the
request rode in and, under sharded serving, which shard replica produced
it).  :class:`ServerStats` aggregates counters over one server's lifetime;
:meth:`ServerStats.aggregate` merges the per-shard counters of a
:class:`~repro.serve.shard.ShardedServer` into one fleet-wide view.

Thread-safety: request/response objects are plain value carriers and are
never mutated by the serving layer after construction; they may be shared
freely across threads.  ``ServerStats`` counters are bumped from whichever
thread performs the event (submitters bump ``requests`` / ``cache_hits`` /
``rejected``, the scheduler worker bumps the batch counters); every update
and every read in :meth:`ServerStats.as_dict` / :meth:`ServerStats.aggregate`
holds the instance's lock, so the counts are exact and each snapshot is
consistent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = ["UnknownModelError", "PredictRequest", "PredictResponse", "ServerStats"]


class UnknownModelError(KeyError):
    """Raised when a request names a model the server does not serve.

    Subclasses :class:`KeyError` so existing ``except KeyError`` call sites
    (e.g. the CLI) keep working.  Raised synchronously by ``submit`` --
    routing failures never consume queue capacity.
    """

    def __init__(self, model: str, known: Iterable[str]) -> None:
        super().__init__(
            f"unknown model {model!r}; served models: {', '.join(sorted(known)) or '(none)'}"
        )
        self.model = model

    def __str__(self) -> str:
        return self.args[0]


@dataclass
class PredictRequest:
    """One inference request.

    Attributes
    ----------
    image:
        ``(3, H, W)`` float array in ``[0, 1]``.
    model:
        Registry name of the model variant to query.
    request_id:
        Caller-chosen identifier echoed back on the response.
    """

    image: np.ndarray
    model: str = "baseline"
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image)
        if self.image.ndim != 3:
            raise ValueError(
                f"request image must be (C, H, W); got shape {self.image.shape}"
            )


@dataclass
class PredictResponse:
    """The server's answer to one :class:`PredictRequest`.

    Attributes
    ----------
    request_id, model:
        Echoed from the request.
    class_index, class_name:
        Arg-max decision and its human-readable sign-class label.
    probabilities:
        Full ``(num_classes,)`` probability vector.
    latency_ms:
        Wall-clock time from submission to completion.
    cache_hit:
        True when the answer was produced by the prediction cache without
        running the model.
    batch_size:
        Size of the micro-batch this request was folded into (1 for cache
        hits and the naive path).
    shard_id:
        Identifier of the shard replica that produced the answer (``None``
        when served by a plain single-queue server).
    """

    request_id: Optional[str]
    model: str
    class_index: int
    class_name: str
    probabilities: np.ndarray
    latency_ms: float
    cache_hit: bool = False
    batch_size: int = 1
    shard_id: Optional[str] = None

    @property
    def confidence(self) -> float:
        """Probability assigned to the predicted class."""

        return float(self.probabilities[self.class_index])

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (probabilities as a plain list)."""

        return {
            "request_id": self.request_id,
            "model": self.model,
            "class_index": int(self.class_index),
            "class_name": self.class_name,
            "confidence": self.confidence,
            "latency_ms": float(self.latency_ms),
            "cache_hit": bool(self.cache_hit),
            "batch_size": int(self.batch_size),
            "shard_id": self.shard_id,
        }


#: The scalar counters of :class:`ServerStats`, summed by :meth:`ServerStats.aggregate`.
_COUNTERS = ("requests", "cache_hits", "batches", "batched_images", "rejected", "restarts")


@dataclass
class ServerStats:
    """Lifetime counters of one serving queue.

    Each :class:`~repro.serve.server.BatchedServer` (standalone, embedded
    as a shard replica, or as a process replica) owns one instance;
    sharded deployments merge the per-replica instances with
    :meth:`aggregate`.  Update the counters only through the ``record_*``
    methods and :meth:`add`, which hold the instance's lock.
    """

    requests: int = 0
    cache_hits: int = 0
    batches: int = 0
    batched_images: int = 0
    rejected: int = 0
    restarts: int = 0
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    per_model: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_request(self, model: str) -> None:
        """Record one accepted request for ``model`` (feeds the per-model counts)."""

        with self._lock:
            self.requests += 1
            self.per_model[model] = self.per_model.get(model, 0) + 1

    def record_batch(self, size: int) -> None:
        """Record one executed micro-batch of ``size`` images."""

        with self._lock:
            self.batches += 1
            self.batched_images += size
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def add(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to one scalar counter, e.g. ``"cache_hits"`` or ``"restarts"``."""

        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the cache."""

        with self._lock:
            return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of images per executed micro-batch."""

        with self._lock:
            return self.batched_images / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary, read from one consistent snapshot."""

        snapshot = self.aggregate([self])
        return {
            "requests": snapshot.requests,
            "cache_hits": snapshot.cache_hits,
            "cache_hit_rate": snapshot.cache_hit_rate,
            "batches": snapshot.batches,
            "batched_images": snapshot.batched_images,
            "mean_batch_size": snapshot.mean_batch_size,
            "rejected": snapshot.rejected,
            "restarts": snapshot.restarts,
            "per_model_requests": snapshot.per_model,
            "batch_size_histogram": {
                str(size): count for size, count in sorted(snapshot.batch_sizes.items())
            },
        }

    @classmethod
    def aggregate(cls, parts: Iterable["ServerStats"]) -> "ServerStats":
        """Merge several per-queue counter sets into one combined view.

        Returns a new instance; the inputs are not modified.  Each input is
        read under its own lock.  Used by
        :class:`~repro.serve.shard.ShardedServer` to expose fleet-wide
        stats over its replicas.
        """

        total = cls()
        for part in parts:
            with part._lock:
                for name in _COUNTERS:
                    setattr(total, name, getattr(total, name) + getattr(part, name))
                for size, count in part.batch_sizes.items():
                    total.batch_sizes[size] = total.batch_sizes.get(size, 0) + count
                for model, count in part.per_model.items():
                    total.per_model[model] = total.per_model.get(model, 0) + count
        return total
