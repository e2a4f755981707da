"""In-memory span tracing around the program's public entry points.

The wrappers live here, in the benchmark, and are installed by replacing
attributes on the program's classes and modules at start-up; nothing under
``src/`` is edited.  A span is ``(id, name, start, end, parent, request_id,
tag)``: ``parent`` is the span open on the same thread when it started (0
for none), ``tag`` carries a small per-call attribute such as the variant
name, a batch size or whether a cache lookup hit.  Spans are appended to a
list (no lock: ``list.append`` is atomic, and a lock held across a fork
would deadlock the process-shard workers) and written out once, at exit.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from stats import summarize

Span = Tuple[int, str, float, float, int, Optional[str], object]


class Tracer:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, request_id=None, tag=None) -> None:
        """Add a span that was measured elsewhere (e.g. a queue wait)."""

        stack = self._stack()
        self.spans.append(
            (next(self._ids), name, start, end, stack[-1] if stack else 0, request_id, tag)
        )

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        request_id: Optional[Callable[..., object]] = None,
        tag: Optional[Callable[..., object]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``request_id(*args)`` and ``tag(result, *args)`` extract the span's
        request id and tag from the call.
        """

        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent,
                        request_id(*args) if request_id is not None else None,
                        tag(result, *args) if tag is not None else None,
                    )
                )

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""

        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def load(path: str) -> Tuple[List[Span], Dict[str, object]]:
    """Read a document written by :meth:`Tracer.dump`."""

    with open(path) as handle:
        document = json.load(handle)
    return [tuple(span) for span in document["spans"]], document["counters"]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover (s)."""

    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4]:
            children[span[4]].append((span[2], span[3]))
    result: Dict[int, float] = {}
    for span_id, _name, start, end, _parent, _rid, _tag in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def durations_ms(spans: Iterable[Span], name: str, tag=None) -> List[float]:
    """Durations (ms) of the spans called ``name`` (and tagged ``tag``, if given)."""

    return [
        (span[3] - span[2]) * 1000.0
        for span in spans
        if span[1] == name and (tag is None or span[6] == tag)
    ]


def span_table(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Per span name: count, total and self time, and the duration median."""

    selfs = self_times(spans)
    groups: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        groups[span[1]].append(span)
    rows = []
    for name in sorted(groups):
        group = groups[name]
        durations = [(span[3] - span[2]) * 1000.0 for span in group]
        rows.append(
            {
                "span": name,
                "count": len(group),
                "total_ms": sum(durations),
                "self_ms": sum(selfs[span[0]] for span in group) * 1000.0,
                "p50_ms": summarize(durations)["p50"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Wrapper sets
# ----------------------------------------------------------------------
def _request_id(_self, request, *_rest):
    return getattr(request, "request_id", None)


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving layers' entry points inside a server process."""

    from repro.nn.inference import InferenceEngine
    from repro.serve import procshard, server
    from repro.serve.batching import MicroBatcher
    from repro.serve.cache import PredictionCache
    from repro.serve.registry import ModelRegistry
    from repro.serve.shard import ShardedServer

    tracer.wrap(server.BatchedServer, "submit", "server.submit", request_id=_request_id)
    for module in (server, procshard):
        tracer.wrap(module, "image_fingerprint", "cache.fingerprint")
    tracer.wrap(PredictionCache, "get", "cache.get", tag=lambda result, *_: result is not None)
    tracer.wrap(PredictionCache, "put", "cache.put")
    tracer.wrap(ModelRegistry, "get", "registry.get", tag=lambda _result, _self, name: name)
    tracer.wrap(ModelRegistry, "snapshot", "registry.snapshot")
    tracer.wrap(InferenceEngine, "forward", "engine.forward", tag=lambda _r, _s, x: len(x))

    original_init = MicroBatcher.__init__

    def batcher_init(self, batch_runner, *args, **kwargs):
        def run_batch(model_name, items):
            started = time.perf_counter()
            for item in items:
                tracer.record(
                    "batching.queue_wait", item.submitted_at, started, item.request.request_id
                )
            return batch_runner(model_name, items)

        original_init(self, run_batch, *args, **kwargs)
        tracer.wrap(self, "batch_runner", "batching.run", tag=lambda _r, _m, items: len(items))

    MicroBatcher.__init__ = batcher_init

    original_submit = procshard.ProcessReplica.submit

    def replica_submit(self, request):
        submitted = time.perf_counter()
        future = original_submit(self, request)
        if not future.done():  # a miss: time it until the worker's answer lands
            future.add_done_callback(
                lambda _f: tracer.record(
                    "procshard.resolve",
                    submitted,
                    time.perf_counter(),
                    request.request_id,
                    request.model,
                )
            )
        return future

    procshard.ProcessReplica.submit = replica_submit

    original_stop = ShardedServer.stop

    def sharded_stop(self):
        for shard_id, stats in self.per_shard_stats().items():
            tracer.counters[f"shard:{shard_id}"] = {
                "models": dict(stats.per_model),
                "requests": stats.requests,
                "batches": stats.batches,
                "mean_batch_size": stats.mean_batch_size,
                "restarts": stats.restarts,
            }
        return original_stop(self)

    ShardedServer.stop = sharded_stop


def install_research(tracer: Tracer) -> None:
    """Wrap the autodiff, regularizer and attack layers in a research process."""

    from repro.attacks import rp2
    from repro.core.regularizers import FeatureMapRegularizer
    from repro.nn.layers import AvgPool2D, Conv2D, Dense, DepthwiseConv2D, MaxPool2D
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    for cls, kind in (
        (Conv2D, "conv2d"),
        (DepthwiseConv2D, "depthwise"),
        (MaxPool2D, "pool"),
        (AvgPool2D, "pool"),
        (Dense, "dense"),
    ):
        tracer.wrap(cls, "forward", f"autodiff.forward.{kind}")
    tracer.wrap(Tensor, "backward", "autodiff.backward")
    tracer.wrap(Adam, "step", "optim.adam_step")
    tracer.wrap(
        FeatureMapRegularizer,
        "scaled_penalty",
        "regularizer.penalty",
        tag=lambda _result, regularizer, *_: type(regularizer).__name__,
    )
    tracer.wrap(rp2, "non_printability_score", "nps.score")
