"""Property-based tests (hypothesis) for the serving scheduler invariants.

Whatever the arrival pattern, the batching layer must uphold three
contracts that every downstream piece (servers, shards, the socket
front-end) silently relies on:

1. **no request lost or duplicated** -- every accepted submission resolves
   its future exactly once, with the response echoing its request id;
2. **batches never exceed ``max_batch_size``** -- the scheduler's one hard
   resource bound;
3. **per-model FIFO order** -- requests of one model are executed in
   submission order (batches may interleave models, but never reorder
   within one model).

The invariants are driven with randomized arrival patterns against all
three scheduler modes: the ``sync`` and ``thread`` modes of
:class:`~repro.serve.batching.MicroBatcher` (checked directly, with a
recording batch runner -- no model needed), and ``process`` mode via a
real :class:`~repro.serve.procshard.ProcessReplica` worker (shared across
examples; each example replays one randomized stream through it).
"""

from __future__ import annotations

import threading
import time
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import MicroBatcher, ModelRegistry, PredictRequest, ProcessReplica
from repro.serve.batching import QueuedRequest
from repro.serve.types import PredictResponse

IMAGE_SIZE = 16

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: One shared dummy image -- scheduler invariants do not depend on pixels.
IMAGE = np.zeros((3, 2, 2))

MODELS = ("alpha", "beta", "gamma")

# An arrival pattern: each element is (model_index, stall) where ``stall``
# asks the submitter to briefly yield before submitting -- which, in thread
# mode, lets the worker drain mid-stream so batch boundaries move around.
arrival_patterns = st.lists(
    st.tuples(st.integers(0, len(MODELS) - 1), st.booleans()),
    min_size=1,
    max_size=60,
)

batch_caps = st.integers(min_value=1, max_value=7)


class RecordingRunner:
    """Batch runner that records every executed batch and echoes responses."""

    def __init__(self) -> None:
        self.batches: List[Tuple[str, List[str]]] = []
        self._lock = threading.Lock()

    def __call__(
        self, model_name: str, items: Sequence[QueuedRequest]
    ) -> List[PredictResponse]:
        with self._lock:
            self.batches.append(
                (model_name, [item.request.request_id for item in items])
            )
        return [
            PredictResponse(
                request_id=item.request.request_id,
                model=model_name,
                class_index=0,
                class_name="stop",
                probabilities=np.array([1.0]),
                latency_ms=0.0,
            )
            for item in items
        ]


def _submit_pattern(batcher: MicroBatcher, pattern) -> List:
    futures = []
    for position, (model_index, stall) in enumerate(pattern):
        if stall and batcher.mode == "thread":
            time.sleep(0.001)  # let the worker drain mid-stream
        request = PredictRequest(
            image=IMAGE, model=MODELS[model_index], request_id=f"req-{position:04d}"
        )
        futures.append(batcher.submit(request))
    return futures


def _check_invariants(pattern, futures, runner: RecordingRunner, cap: int) -> None:
    # 1. No request lost or duplicated: every future resolved, ids echoed,
    #    and the executed batches cover each id exactly once.
    assert all(future.done() for future in futures)
    expected_ids = [f"req-{i:04d}" for i in range(len(pattern))]
    assert [future.result().request_id for future in futures] == expected_ids
    executed = [rid for _model, ids in runner.batches for rid in ids]
    assert sorted(executed) == expected_ids
    # 2. Batches respect the cap and are single-model.
    for model_name, ids in runner.batches:
        assert 1 <= len(ids) <= cap
        for rid in ids:
            assert MODELS[pattern[int(rid.split("-")[1])][0]] == model_name
    # 3. Per-model FIFO: execution order of one model's requests equals
    #    their submission order.
    for model_index, model_name in enumerate(MODELS):
        submitted = [
            f"req-{i:04d}" for i, (m, _s) in enumerate(pattern) if m == model_index
        ]
        ran = [rid for name, ids in runner.batches for rid in ids if name == model_name]
        assert ran == submitted


class TestSchedulerProperties:
    @SETTINGS
    @given(pattern=arrival_patterns, cap=batch_caps, flush_every=st.integers(1, 9))
    def test_sync_mode_invariants(self, pattern, cap, flush_every):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch_size=cap, mode="sync")
        futures = []
        for position, (model_index, _stall) in enumerate(pattern):
            request = PredictRequest(
                image=IMAGE, model=MODELS[model_index], request_id=f"req-{position:04d}"
            )
            futures.append(batcher.submit(request))
            if position % flush_every == 0:
                batcher.flush()  # randomized flush points move batch edges
        batcher.flush()
        _check_invariants(pattern, futures, runner, cap)

    @SETTINGS
    @given(pattern=arrival_patterns, cap=batch_caps)
    def test_thread_mode_invariants(self, pattern, cap):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch_size=cap, mode="thread")
        with batcher:
            futures = _submit_pattern(batcher, pattern)
        # stop() drained: every accepted request has resolved.
        _check_invariants(pattern, futures, runner, cap)

    @SETTINGS
    @given(pattern=arrival_patterns, cap=batch_caps)
    def test_thread_mode_invariants_with_slow_runner(self, pattern, cap):
        """A runner slower than the arrival rate forces full queue backlogs."""

        class SlowRunner(RecordingRunner):
            def __call__(self, model_name, items):
                time.sleep(0.0005)
                return super().__call__(model_name, items)

        runner = SlowRunner()
        batcher = MicroBatcher(runner, max_batch_size=cap, mode="thread")
        with batcher:
            futures = _submit_pattern(batcher, pattern)
        _check_invariants(pattern, futures, runner, cap)


# ----------------------------------------------------------------------
# Process mode: the same invariants through a real worker process
# ----------------------------------------------------------------------
PROCESS_CAP = 4


@pytest.fixture(scope="module")
def process_replica():
    """One ProcessReplica shared by every example (spawning is expensive)."""

    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    registry.add(
        "baseline",
        DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=IMAGE_SIZE),
        persist=False,
    )
    replica = ProcessReplica(
        lambda: registry.snapshot("baseline"),
        max_batch_size=PROCESS_CAP,
        cache_size=0,  # caching off so completion order is observable
        shard_id="baseline/0",
    )
    replica.start()
    yield replica
    replica.stop()


class TestProcessModeProperties:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=24
        ),
        salt=st.integers(0, 10**6),
    )
    def test_process_mode_invariants(self, process_replica, pattern, salt):
        pool = synthetic_pool()
        completion_order: List[str] = []
        order_lock = threading.Lock()

        def on_done(future):
            with order_lock:
                completion_order.append(future.result().request_id)

        futures = []
        for position, (image_index, stall) in enumerate(pattern):
            if stall:
                time.sleep(0.001)  # let the worker drain mid-stream
            request = PredictRequest(
                image=pool[image_index],
                model="baseline",
                request_id=f"p{salt}-{position:04d}",
            )
            future = process_replica.submit(request)
            future.add_done_callback(on_done)
            futures.append(future)
        responses = [future.result(timeout=30) for future in futures]
        # 1. No request lost or duplicated; ids echo in submission order.
        assert [r.request_id for r in responses] == [
            f"p{salt}-{i:04d}" for i in range(len(pattern))
        ]
        # 2. Parent-side batches never exceed the cap.
        assert all(1 <= r.batch_size <= PROCESS_CAP for r in responses)
        # 3. FIFO: the replica serves one model, so completion order must
        #    equal submission order exactly.
        assert completion_order == [f"p{salt}-{i:04d}" for i in range(len(pattern))]


_POOL_CACHE: List[np.ndarray] = []


def synthetic_pool() -> np.ndarray:
    """Eight distinct images for the process-mode examples (built once)."""

    if not _POOL_CACHE:
        rng = np.random.default_rng(99)
        _POOL_CACHE.append(rng.random((8, 3, IMAGE_SIZE, IMAGE_SIZE)))
    return _POOL_CACHE[0]
