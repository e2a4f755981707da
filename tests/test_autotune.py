"""Tests for the online batch autotuner (repro.serve.autotune).

The controller is exercised two ways: open-loop, by feeding synthetic
latency curves with a known optimum and checking the hill climber finds
and *holds* it (hysteresis); and closed-loop, embedded in real servers,
checking the knobs actually move, the tuned state survives scheduler
rebuilds and worker-process crash-restarts, and sharded replicas tune
independently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import (
    BatchedServer,
    BatchTuner,
    ModelRegistry,
    ProcessReplica,
    ShardedServer,
    generate_requests,
    run_load,
    synthetic_image_pool,
)

IMAGE_SIZE = 16


def drive(tuner: BatchTuner, latency_of, batches: int) -> None:
    """Feed ``batches`` synthetic batch observations at the current size."""

    for _ in range(batches):
        size = tuner.batch_size
        tuner.record_batch(size, latency_of(size))


class TestBatchTunerOpenLoop:
    def test_climbs_when_bigger_batches_amortize(self):
        # Fixed per-batch overhead dominates: throughput rises with size.
        tuner = BatchTuner(
            initial_batch_size=2, epoch_batches=4, epoch_min_images=1, hold_epochs=4
        )
        sizes = []
        for _ in range(300):
            size = tuner.batch_size
            tuner.record_batch(size, 0.005 + 0.0003 * size)
            sizes.append(tuner.batch_size)
        # Settled at the top rung (occasional downward probes allowed).
        assert max(sizes, key=sizes[-60:].count) == tuner.max_batch_size
        assert sizes[-60:].count(tuner.max_batch_size) > 40
        assert tuner.epochs > 0

    def test_converges_to_interior_optimum_and_holds(self):
        # Throughput peaks at 16: above it, per-image cost grows steeply.
        def latency(b):
            return 0.002 + 0.0001 * b + (0.0005 * (b - 16) if b > 16 else 0.0)

        tuner = BatchTuner(
            initial_batch_size=2, epoch_batches=4, epoch_min_images=1, hold_epochs=4
        )
        sizes = []
        for _ in range(400):
            size = tuner.batch_size
            tuner.record_batch(size, latency(size))
            sizes.append(tuner.batch_size)
        # Converged to the optimum and stayed there (hysteresis: the tail
        # is dominated by the settled rung, with only brief probes).
        assert set(sizes[-60:]) <= {8, 16, 32}
        assert sizes[-60:].count(16) > 40

    def test_shrinks_from_oversized_start(self):
        def latency(b):
            return 0.002 + 0.0001 * b + (0.0006 * (b - 8) if b > 8 else 0.0)

        tuner = BatchTuner(
            initial_batch_size=64, epoch_batches=4, epoch_min_images=1, hold_epochs=4
        )
        # The first probe bounces off the upper bound, reverses, then
        # walks down to the optimum.
        sizes = []
        for _ in range(500):
            size = tuner.batch_size
            tuner.record_batch(size, latency(size))
            sizes.append(tuner.batch_size)
        assert set(sizes[-60:]) <= {4, 8, 16}
        assert sizes[-60:].count(8) > 40

    def test_bounds_and_validation(self):
        tuner = BatchTuner(initial_batch_size=1000, min_batch_size=4, max_batch_size=32)
        assert tuner.batch_size == 32
        assert BatchTuner(initial_batch_size=0).batch_size == 2  # clamped up
        with pytest.raises(ValueError):
            BatchTuner(min_batch_size=0)
        with pytest.raises(ValueError):
            BatchTuner(min_batch_size=16, max_batch_size=8)
        with pytest.raises(ValueError):
            BatchTuner(epoch_batches=0)
        with pytest.raises(ValueError):
            BatchTuner(epoch_min_images=0)

    def test_degenerate_observations_are_ignored(self):
        tuner = BatchTuner(initial_batch_size=8, epoch_batches=2, epoch_min_images=1)
        tuner.record_batch(0, 1.0)
        tuner.record_batch(4, -1.0)
        assert tuner.epochs == 0
        assert tuner.batch_size == 8

    def test_freeze_pins_the_recommendation(self):
        tuner = BatchTuner(initial_batch_size=2, epoch_batches=4, epoch_min_images=1)
        drive(tuner, lambda b: 0.005 + 0.0003 * b, 40)  # bigger is better
        climbed = tuner.batch_size
        assert climbed > 2
        tuner.freeze()
        drive(tuner, lambda b: 0.005 + 0.0003 * b, 100)
        assert tuner.batch_size == climbed  # observations ignored
        epochs_frozen = tuner.epochs
        tuner.unfreeze()
        drive(tuner, lambda b: 0.005 + 0.0003 * b, 40)
        assert tuner.epochs > epochs_frozen  # resumed

    def test_freeze_adopt_best_uses_rung_memory(self):
        def latency(b):  # peak at 8
            return 0.002 + 0.0001 * b + (0.0006 * (b - 8) if b > 8 else 0.0)

        tuner = BatchTuner(
            initial_batch_size=2, epoch_batches=4, epoch_min_images=1, hold_epochs=2
        )
        drive(tuner, latency, 400)
        tuner.freeze(adopt_best=True)
        # Wherever the probe cycle happened to be, the frozen choice is
        # the rung whose smoothed estimate is highest: the true optimum.
        assert tuner.batch_size == 8
        assert tuner.best_rung() == 8

    def test_as_dict_snapshot(self):
        tuner = BatchTuner(initial_batch_size=8)
        state = tuner.as_dict()
        assert state["batch_size"] == 8
        assert state["epochs"] == 0
        assert not state["holding"]


@pytest.fixture(scope="module")
def registry():
    """In-memory registry with an untrained baseline (serving mechanics only)."""

    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    registry.add(
        "baseline",
        DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=IMAGE_SIZE),
        persist=False,
    )
    return registry


@pytest.fixture(scope="module")
def pool():
    """A pool of distinct synthetic images for traffic generation."""

    return synthetic_image_pool(32, image_size=IMAGE_SIZE, seed=21)


class TestAutotunedServers:
    def test_sync_server_moves_the_knob(self, registry, pool):
        server = BatchedServer(
            registry, max_batch_size=2, cache_size=0, mode="sync", autotune=True
        )
        stream = generate_requests(pool, 200, duplicate_fraction=0.0, seed=3)
        run_load(server, stream, label="autotune")
        assert server.tuner is not None
        assert server.tuner.epochs > 0
        assert server.tuner.batch_size > 2
        # The scheduler follows the tuner's recommendation.
        assert server.batcher.max_batch_size == server.tuner.batch_size

    def test_autotune_off_by_default(self, registry):
        assert BatchedServer(registry, mode="sync").tuner is None

    def test_explicit_config_outside_defaults_is_not_clamped(self, registry):
        # The constructor value is the starting point: a batch size
        # beyond the tuner's default ladder widens the ladder.
        server = BatchedServer(registry, max_batch_size=128, mode="sync", autotune=True)
        assert server.tuner.batch_size == 128
        assert server.tuner.max_batch_size == 128
        assert server.batcher.max_batch_size == 128
        replica = ProcessReplica(
            lambda: registry.snapshot("baseline"), max_batch_size=128, autotune=True
        )
        assert replica.max_batch_size == 128
        assert replica.tuner.max_batch_size == 128

    def test_restart_preserves_tuner_state(self, registry, pool):
        server = BatchedServer(
            registry, max_batch_size=2, cache_size=0, mode="sync", autotune=True
        )
        stream = generate_requests(pool, 150, duplicate_fraction=0.0, seed=4)
        run_load(server, stream, label="warm")
        tuner = server.tuner
        tuned_size = tuner.batch_size
        assert tuned_size > 2
        server.restart()
        assert server.tuner is tuner
        assert server.batcher.tuner is tuner
        assert server.batcher.max_batch_size == tuned_size

    def test_thread_mode_autotunes_batch_size(self, registry, pool):
        server = BatchedServer(
            registry,
            max_batch_size=4,
            cache_size=0,
            mode="thread",
            autotune=True,
        )
        # Comfortably past the tuner's 128-image epoch floor so at least
        # one epoch closes even if the worker coalesces small batches.
        stream = generate_requests(pool, 320, duplicate_fraction=0.0, seed=5)
        with server:
            responses = [f.result() for f in [server.submit(r) for r in stream]]
        assert len(responses) == len(stream)
        assert server.tuner.epochs > 0

    def test_sharded_replicas_tune_independently(self, registry, pool):
        server = ShardedServer(
            registry,
            ["baseline"],
            replicas=2,
            max_batch_size=4,
            cache_size=0,
            mode="sync",
            autotune=True,
        )
        tuners = [replica.server.tuner for replica in server.all_replicas]
        assert all(t is not None for t in tuners)
        assert tuners[0] is not tuners[1]

    def test_process_replica_tuner_survives_crash_restart(self, registry, pool):
        replica = ProcessReplica(
            lambda: registry.snapshot("baseline"),
            max_batch_size=4,
            cache_size=0,
            autotune=True,
            shard_id="baseline/0",
        )
        with replica:
            replica.predict_many(pool[:24], "baseline")
            tuner = replica.tuner
            assert tuner is not None
            observed_epochs = tuner.epochs
            # Kill the worker process behind the replica's back.
            replica._process.terminate()
            replica._process.join(timeout=10)
            replica.restart()
            assert replica.tuner is tuner  # learned state survived
            assert replica.stats.restarts == 1
            responses = replica.predict_many(pool[:8], "baseline")
            assert len(responses) == 8
            assert tuner.epochs >= observed_epochs

    def test_process_replica_follows_tuner_recommendation(self, registry, pool):
        replica = ProcessReplica(
            lambda: registry.snapshot("baseline"),
            max_batch_size=4,
            cache_size=0,
            autotune=True,
        )
        with replica:
            for _ in range(6):
                replica.predict_many(pool[:16], "baseline")
            assert replica.max_batch_size == replica.tuner.batch_size
