"""Sharded serving throughput: per-variant shards vs the single shared queue.

PR 1's :class:`~repro.serve.server.BatchedServer` runs ONE micro-batch
queue and ONE prediction cache for every model it serves.  When traffic
mixes several defense variants, that design pays twice:

* every drained micro-batch fragments into one small forward per variant
  (the per-forward overhead is never amortized over a full batch), and
* all variants' working sets compete for a single LRU capacity -- a cyclic
  multi-variant stream larger than the cache degrades to ~0% hits (the
  LRU worst case).

This benchmark replays the same deterministic mixed stream (three defense
variants, each cycling its image pool three times, interleaved
round-robin) through both servers with identical per-queue settings.  The
:class:`~repro.serve.shard.ShardedServer` must sustain at least 1.5x the
single-queue throughput (this PR's acceptance criterion); the measured
rows are written to ``results/BENCH_serve_sharded.json``.
"""

from __future__ import annotations

from conftest import run_once, write_bench_artifact

from repro.models.factory import build_variant, resolve_variant
from repro.serve import (
    BatchedServer,
    ModelRegistry,
    ShardedServer,
    generate_mixed_requests,
    run_load,
    synthetic_image_pool,
)

MODELS = ("baseline", "input_filter_3x3", "feature_filter_3x3")
POOL_SIZE = 96  # unique images per variant
PASSES = 3  # each variant's pool is cycled this many times
MAX_BATCH_SIZE = 32
CACHE_SIZE = POOL_SIZE + MAX_BATCH_SIZE  # holds ONE variant's working set
IMAGE_SIZE = 32


def _sharded_setup():
    """Registry of three (untrained) variants plus the mixed request stream.

    Training does not change the cost of a forward pass, so the throughput
    comparison uses fresh random weights and skips the training time.
    """

    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    for name in MODELS:
        registry.add(
            name,
            build_variant(resolve_variant(name), seed=0, image_size=IMAGE_SIZE),
            persist=False,
        )
    pool = synthetic_image_pool(POOL_SIZE, image_size=IMAGE_SIZE, seed=123)
    num_requests = len(MODELS) * POOL_SIZE * PASSES
    stream = generate_mixed_requests(
        pool, num_requests, list(MODELS), duplicate_fraction=0.0, seed=7
    )
    # Warm every engine so neither server pays one-time compilation inside
    # the measured window.
    for name in MODELS:
        registry.engine(name).predict(pool[:MAX_BATCH_SIZE])
    return registry, stream


def test_sharded_throughput_scaling(benchmark):
    registry, stream = _sharded_setup()

    single = BatchedServer(
        registry, max_batch_size=MAX_BATCH_SIZE, cache_size=CACHE_SIZE, mode="sync"
    )
    single_report = run_load(single, stream, label="single_queue[sync]")

    sharded = ShardedServer(
        registry,
        list(MODELS),
        replicas=1,
        max_batch_size=MAX_BATCH_SIZE,
        cache_size=CACHE_SIZE,
        mode="sync",
    )
    sharded_report = run_once(
        benchmark, run_load, sharded, stream, label="sharded[sync]"
    )

    speedup = sharded_report.images_per_second / single_report.images_per_second
    rows = []
    for report in (single_report, sharded_report):
        row = report.as_dict()
        row["models"] = len(MODELS)
        row["max_batch_size"] = MAX_BATCH_SIZE
        row["cache_size_per_queue"] = CACHE_SIZE
        rows.append(row)
    artifact_path = write_bench_artifact(
        "serve_sharded",
        {
            "models": list(MODELS),
            "num_requests": len(stream),
            "passes": PASSES,
            "speedup_sharded_vs_single_queue": round(speedup, 2),
            "rows": rows,
        },
    )

    print(f"\nsingle queue: {single_report.images_per_second:.0f} img/s")
    print(f"sharded: {sharded_report.images_per_second:.0f} img/s ({speedup:.2f}x)")
    print(f"artifact: {artifact_path}")

    # The single shared queue fragments every batch across the three
    # variants; the shards fill full per-variant batches and keep each
    # variant's working set cached.
    assert single_report.mean_batch_size < MAX_BATCH_SIZE / 2
    assert sharded_report.cache_hit_rate > single_report.cache_hit_rate
    assert speedup >= 1.5, (
        f"sharding sustained only {speedup:.2f}x the single-queue server (need >= 1.5x)"
    )


def test_sharded_thread_mode_with_replicas(benchmark):
    registry, stream = _sharded_setup()
    server = ShardedServer(
        registry,
        list(MODELS),
        replicas=2,
        routing="least_loaded",
        max_batch_size=MAX_BATCH_SIZE,
        cache_size=CACHE_SIZE,
        mode="thread",
    )

    def serve_stream():
        with server:
            return run_load(server, stream, label="sharded[thread,r2,least_loaded]")

    report = run_once(benchmark, serve_stream)
    # Background workers must coalesce real batches, spread load over both
    # replicas of at least one variant, and finish the whole stream.
    assert report.requests == len(stream)
    assert report.mean_batch_size > 1
    per_shard = server.per_shard_stats()
    assert sum(1 for stats in per_shard.values() if stats.requests > 0) > len(MODELS)
    assert server.stats.requests == len(stream)
