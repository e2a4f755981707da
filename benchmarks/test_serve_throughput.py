"""Serving throughput: naive per-request loop vs the micro-batching scheduler.

Unlike the paper-table benchmarks, this one measures the serving
subsystem: the same stream of unique images is pushed through

* the **naive loop** -- one synchronous ``DefendedClassifier.predict``
  call per request (how the experiment scripts produce predictions
  without :mod:`repro.serve`), and
* the **micro-batching scheduler** at ``max_batch_size=32`` with the
  prediction cache disabled, isolating the batching amortization;
* the scheduler again on a duplicate-heavy stream with the cache enabled,
  showing the additional win on repetitive traffic;
* a **sequential in-process caller** (one request in flight at a time)
  through the thread-mode scheduler against bare batch-1 engine calls:
  busy-driven dispatch runs a lone request at once, so the serving path
  may cost at most 3x the bare call (reach a third of its rate).

Baseline note: since the compiled-engine PR, even the "naive" per-request
``predict`` rides the per-model cached
:class:`~repro.nn.inference.InferenceEngine` (several times the old
float64 throughput -- that gap is asserted in
``benchmarks/test_engine_eval.py``).  What this benchmark isolates is the
remaining *batching* win on top of the fast engine: one engine call per
32 requests instead of 32 per-call entries, which must still buy at least
1.25x.  Both sides of the ratio are measured **best-of-3**: each window
is only ~70 ms of wall time, so a single sample is at the mercy of
whatever else the (one-core, shared) container does in that instant --
the max over three replays approximates the noise-free rate the way
``timeit``'s ``min`` approximates the noise-free duration.  The measured
numbers are written to ``results/BENCH_serve_throughput.json`` as a
report artifact.
"""

from __future__ import annotations

import time

from conftest import run_once, write_bench_artifact

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import (
    BatchedServer,
    ModelRegistry,
    generate_requests,
    run_load,
    run_naive_loop,
    synthetic_image_pool,
)

NUM_REQUESTS = 192
MAX_BATCH_SIZE = 32


def _serving_setup():
    """Registry + streams over an (untrained) baseline at paper scale (32x32).

    Training does not change the cost of a forward pass, so the throughput
    comparison uses fresh random weights and skips the training time.
    """

    classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=32)
    registry = ModelRegistry(None, image_size=32)
    registry.add("baseline", classifier, persist=False)
    pool = synthetic_image_pool(NUM_REQUESTS, image_size=32, seed=123)
    unique_stream = generate_requests(pool, NUM_REQUESTS, duplicate_fraction=0.0)
    repeat_stream = generate_requests(pool, NUM_REQUESTS, duplicate_fraction=0.5, seed=7)
    # Warm both paths so neither pays one-time compilation/allocation cost
    # inside the measured window.
    classifier.predict(pool[:1])
    registry.engine("baseline").predict(pool[:MAX_BATCH_SIZE])
    return classifier, registry, unique_stream, repeat_stream


REPLAYS = 3  # best-of-N on both sides of the gated ratio


def test_micro_batching_speedup(benchmark):
    classifier, registry, unique_stream, repeat_stream = _serving_setup()

    naive = max(
        (run_naive_loop(classifier, unique_stream) for _ in range(REPLAYS)),
        key=lambda report: report.images_per_second,
    )

    batched_server = BatchedServer(
        registry, max_batch_size=MAX_BATCH_SIZE, cache_size=0, mode="sync"
    )
    batched = run_once(
        benchmark, run_load, batched_server, unique_stream, label="micro_batched[sync]"
    )
    for _ in range(REPLAYS - 1):
        replay = run_load(batched_server, unique_stream, label="micro_batched[sync]")
        if replay.images_per_second > batched.images_per_second:
            batched = replay

    cached_server = BatchedServer(
        registry, max_batch_size=MAX_BATCH_SIZE, cache_size=2 * NUM_REQUESTS, mode="sync"
    )
    cached = run_load(cached_server, repeat_stream, label="micro_batched[cached]")

    speedup = batched.images_per_second / naive.images_per_second
    rows = [report.as_dict() for report in (naive, batched, cached)]
    for row in rows:
        row["max_batch_size"] = MAX_BATCH_SIZE
    artifact_path = write_bench_artifact(
        "serve_throughput",
        {
            "num_requests": NUM_REQUESTS,
            "speedup_batched_vs_naive": round(speedup, 2),
            "rows": rows,
        },
    )

    print(f"\nnaive: {naive.images_per_second:.0f} img/s")
    print(f"micro-batched: {batched.images_per_second:.0f} img/s ({speedup:.2f}x)")
    print(f"cached (50% dups): {cached.images_per_second:.0f} img/s")
    print(f"artifact: {artifact_path}")

    assert batched.mean_batch_size > 1
    assert speedup >= 1.25, (
        f"micro-batching sustained only {speedup:.2f}x the engine-backed naive "
        f"loop (need >= 1.25x; the engine-vs-autodiff gap is asserted in "
        f"test_engine_eval.py)"
    )


def test_thread_scheduler_keeps_up(benchmark):
    _classifier, registry, unique_stream, _repeat = _serving_setup()
    server = BatchedServer(
        registry, max_batch_size=MAX_BATCH_SIZE, cache_size=0, mode="thread"
    )

    def serve_stream():
        with server:
            return run_load(server, unique_stream, label="micro_batched[thread]")

    report = run_once(benchmark, serve_stream)
    # The background worker must actually coalesce batches and finish the
    # stream promptly; its throughput stays within the same order of
    # magnitude as the sync scheduler.
    assert report.requests == NUM_REQUESTS
    assert report.mean_batch_size > 1
    assert report.images_per_second > 0


def test_sequential_caller_keeps_pace_with_bare_engine(benchmark):
    """A caller that waits for each answer must not pay a batching delay."""

    _classifier, registry, unique_stream, _repeat = _serving_setup()
    engine = registry.engine("baseline")
    images = [request.image[None] for request in unique_stream]
    server = BatchedServer(
        registry, max_batch_size=MAX_BATCH_SIZE, cache_size=0, mode="thread"
    )

    def bare_rate():
        started = time.perf_counter()
        for image in images:
            engine.predict_proba(image, batch_size=1)
        return len(images) / (time.perf_counter() - started)

    def served_rate():
        started = time.perf_counter()
        for request in unique_stream:
            server.submit(request).result()
        return len(unique_stream) / (time.perf_counter() - started)

    with server:
        served_rate()  # warm the worker thread and the batch-1 workspaces
        # Best-of-N on both sides, interleaved so drift hits both alike.
        bare, served = 0.0, run_once(benchmark, served_rate)
        for _ in range(REPLAYS):
            bare = max(bare, bare_rate())
            served = max(served, served_rate())
    ratio = served / bare
    print(f"\nbare engine (batch 1): {bare:.0f} img/s")
    print(f"sequential caller through the server: {served:.0f} img/s ({ratio:.2f}x)")
    assert ratio >= 1.0 / 3.0, (
        f"a sequential caller reached only {ratio:.2f}x the bare engine's "
        f"batch-1 rate (need >= 0.33x)"
    )
