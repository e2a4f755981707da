"""Tests for repro.serve.shard: routing policies, replicas, failure handling."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import (
    BatchedServer,
    LeastLoadedPolicy,
    ModelRegistry,
    PredictRequest,
    RoundRobinPolicy,
    ShardedServer,
    UnknownModelError,
    generate_mixed_requests,
    run_load,
    synthetic_image_pool,
)

IMAGE_SIZE = 16
MODELS = ["alpha", "beta", "gamma"]


@pytest.fixture(scope="module")
def registry():
    """Three named (untrained) variants sharing one in-memory registry."""

    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    for index, name in enumerate(MODELS):
        registry.add(
            name,
            DefendedClassifier.build(DefenseConfig.baseline(), seed=index, image_size=IMAGE_SIZE),
            persist=False,
        )
    return registry


@pytest.fixture(scope="module")
def pool():
    return synthetic_image_pool(10, image_size=IMAGE_SIZE, seed=5)


# ----------------------------------------------------------------------
# Routing policies (unit level, no servers involved)
# ----------------------------------------------------------------------
class _FakeReplica:
    def __init__(self, model, index, inflight):
        self.model = model
        self.index = index
        self.inflight = inflight


class TestRoutingPolicies:
    def test_round_robin_cycles_in_order(self):
        policy = RoundRobinPolicy()
        replicas = [_FakeReplica("m", i, 0) for i in range(3)]
        picks = [policy.select(replicas).index for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_cursors_are_per_model(self):
        policy = RoundRobinPolicy()
        first = [_FakeReplica("a", i, 0) for i in range(2)]
        second = [_FakeReplica("b", i, 0) for i in range(2)]
        assert policy.select(first).index == 0
        assert policy.select(second).index == 0  # not advanced by model "a"
        assert policy.select(first).index == 1

    def test_least_loaded_picks_minimum_inflight(self):
        policy = LeastLoadedPolicy()
        replicas = [
            _FakeReplica("m", 0, 4),
            _FakeReplica("m", 1, 1),
            _FakeReplica("m", 2, 3),
        ]
        assert policy.select(replicas).index == 1

    def test_least_loaded_breaks_ties_by_index(self):
        policy = LeastLoadedPolicy()
        replicas = [_FakeReplica("m", i, 2) for i in range(3)]
        assert policy.select(replicas).index == 0


# ----------------------------------------------------------------------
# Construction and routing
# ----------------------------------------------------------------------
class TestShardedServerBasics:
    def test_rejects_bad_construction(self, registry):
        with pytest.raises(ValueError):
            ShardedServer(registry, [])
        with pytest.raises(ValueError):
            ShardedServer(registry, ["alpha", "alpha"])
        with pytest.raises(ValueError):
            ShardedServer(registry, ["alpha"], replicas=0)
        with pytest.raises(ValueError):
            ShardedServer(registry, ["alpha"], routing="random")

    def test_unknown_model_rejected_synchronously(self, registry, pool):
        server = ShardedServer(registry, MODELS, mode="sync")
        with pytest.raises(UnknownModelError) as excinfo:
            server.submit(PredictRequest(image=pool[0], model="nope"))
        assert "nope" in str(excinfo.value)
        # UnknownModelError must stay catchable as KeyError (CLI contract).
        with pytest.raises(KeyError):
            server.predict(pool[0], model="nope")
        assert server.stats.requests == 0

    def test_replica_pinned_to_its_model(self, registry, pool):
        server = ShardedServer(registry, MODELS, mode="sync")
        replica = server.shard("alpha")[0]
        with pytest.raises(UnknownModelError):
            replica.server.submit(PredictRequest(image=pool[0], model="beta"))
        assert replica.server.stats.rejected == 1

    def test_routes_by_model_and_stamps_shard_id(self, registry, pool):
        server = ShardedServer(registry, MODELS, mode="sync")
        for model in MODELS:
            response = server.predict(pool[0], model=model)
            assert response.model == model
            assert response.shard_id == f"{model}/0"
        per_shard = server.per_shard_stats()
        assert all(per_shard[f"{model}/0"].requests == 1 for model in MODELS)

    def test_round_robin_spreads_over_replicas(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], replicas=3, mode="sync")
        shard_ids = []
        for index in range(6):
            response = server.predict(pool[index % len(pool)], model="alpha")
            shard_ids.append(response.shard_id)
        assert shard_ids == ["alpha/0", "alpha/1", "alpha/2"] * 2

    def test_mixed_stream_full_batches_per_shard(self, registry, pool):
        server = ShardedServer(registry, MODELS, mode="sync", max_batch_size=8, cache_size=0)
        stream = generate_mixed_requests(pool, 48, MODELS, seed=3)
        report = run_load(server, stream, label="sharded")
        assert report.requests == 48
        # Each shard sees only its own model, so batches fill to the max.
        assert report.mean_batch_size == 8.0
        single = BatchedServer(registry, mode="sync", max_batch_size=8, cache_size=0)
        single_report = run_load(single, stream, label="single")
        assert single_report.mean_batch_size < 8.0  # fragmented across models

    def test_aggregated_stats_sum_replicas(self, registry, pool):
        server = ShardedServer(registry, MODELS, replicas=2, mode="sync")
        stream = generate_mixed_requests(pool, 30, MODELS, seed=4)
        run_load(server, stream, label="sharded")
        assert server.stats.requests == 30
        assert sum(stats.requests for stats in server.per_shard_stats().values()) == 30


# ----------------------------------------------------------------------
# Cache isolation
# ----------------------------------------------------------------------
class TestCacheIsolation:
    def test_shards_do_not_share_cache_entries(self, registry, pool):
        server = ShardedServer(registry, MODELS, mode="sync", cache_size=32)
        image = pool[0]
        for model in MODELS:
            server.predict(image, model=model)
        # One identical image, three shards: each shard cached its own answer.
        for model in MODELS:
            cache = server.shard(model)[0].server.cache
            assert len(cache) == 1
        # A repeat to one shard hits only that shard's cache.
        response = server.predict(image, model="alpha")
        assert response.cache_hit
        assert server.shard("alpha")[0].server.stats.cache_hits == 1
        assert server.shard("beta")[0].server.stats.cache_hits == 0

    def test_replicas_have_independent_caches(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], replicas=2, mode="sync", cache_size=32)
        image = pool[1]
        first = server.predict(image, model="alpha")  # replica 0, miss
        second = server.predict(image, model="alpha")  # replica 1, its own miss
        third = server.predict(image, model="alpha")  # replica 0 again, hit
        assert not first.cache_hit
        assert not second.cache_hit  # isolation: replica 1 never saw the image
        assert third.cache_hit
        assert third.shard_id == "alpha/0"


# ----------------------------------------------------------------------
# Failure handling and shutdown
# ----------------------------------------------------------------------
class TestFailureHandling:
    def test_dead_replica_is_restarted_on_next_request(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="thread", cache_size=0)
        with server:
            assert server.predict(pool[0], model="alpha").model == "alpha"
            replica = server.shard("alpha")[0]
            replica.server.batcher.stop()  # simulate a dead scheduler worker
            assert not replica.alive
            response = server.predict(pool[1], model="alpha")  # transparent revival
            assert response.model == "alpha"
            assert replica.alive
            assert replica.restarts == 1
            assert server.stats.restarts == 1

    def test_restart_adopts_requests_stranded_in_dead_scheduler(self, registry, pool):
        from repro.serve import QueuedRequest

        server = ShardedServer(registry, ["alpha"], mode="thread", cache_size=0)
        with server:
            replica = server.shard("alpha")[0]
            replica.server.batcher.stop()
            # Re-create the crash aftermath: requests that were enqueued
            # before the worker died are still sitting in its queue.
            stranded = [
                QueuedRequest(PredictRequest(image=pool[index], model="alpha"))
                for index in range(3)
            ]
            for item in stranded:
                replica.server.batcher._queue.put(item)
            response = server.predict(pool[5], model="alpha")  # triggers restart
            assert response.model == "alpha"
            # The stranded futures were adopted by the fresh scheduler and
            # resolve instead of hanging forever.
            for item in stranded:
                assert item.future.result(timeout=5.0).model == "alpha"
            assert replica.restarts == 1

    def test_unknown_model_rejections_show_in_fleet_stats(self, registry, pool):
        server = ShardedServer(registry, MODELS, mode="sync")
        for _ in range(3):
            with pytest.raises(UnknownModelError):
                server.submit(PredictRequest(image=pool[0], model="nope"))
        assert server.stats.rejected == 3
        assert server.stats.requests == 0

    def test_submit_retries_once_after_runtime_error(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="thread", cache_size=0)
        with server:
            replica = server.shard("alpha")[0]
            original_submit = replica.server.submit
            calls = {"count": 0}

            def flaky_submit(request):
                calls["count"] += 1
                if calls["count"] == 1:
                    raise RuntimeError("scheduler died between health check and enqueue")
                return original_submit(request)

            replica.server.submit = flaky_submit
            try:
                response = server.predict(pool[0], model="alpha")
            finally:
                del replica.server.submit
            assert response.model == "alpha"
            assert calls["count"] == 2
            assert replica.restarts == 1

    def test_drain_on_shutdown_resolves_inflight_requests(self, registry, pool):
        # Forwards held on an event keep a batch in flight and the rest
        # queued behind it, so stop() must drain them rather than abandon
        # their futures.
        server = ShardedServer(
            registry, MODELS, mode="thread", max_batch_size=64, cache_size=0
        )
        release = threading.Event()
        for replica in server.all_replicas:

            def held_forward(model_name, images, forward=replica.server._forward):
                assert release.wait(10.0)
                return forward(model_name, images)

            replica.server._forward = held_forward
        server.start()
        futures = [
            server.submit(PredictRequest(image=pool[index % len(pool)], model=model))
            for index in range(4)
            for model in MODELS
        ]
        assert not any(future.done() for future in futures)
        stopper = threading.Thread(target=server.stop)
        stopper.start()  # graceful drain: every accepted request resolves
        deadline = time.perf_counter() + 5.0
        while server.all_replicas[0].alive and time.perf_counter() < deadline:
            time.sleep(0.005)  # let the drain begin, then finish the forwards
        release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        responses = [future.result(timeout=5.0) for future in futures]
        assert len(responses) == 12
        assert {response.model for response in responses} == set(MODELS)

    def test_stopped_fleet_revives_on_submit(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="thread", cache_size=0)
        server.start()
        server.stop()
        # A stopped fleet is deliberately revivable: routing restarts the
        # replica instead of failing the request.
        response = server.predict(pool[0], model="alpha")
        assert response.model == "alpha"
        server.stop()

    def test_concurrent_submitters_one_core_sanity(self, registry, pool):
        server = ShardedServer(registry, MODELS, replicas=2, routing="least_loaded", mode="thread")
        errors = []
        responses = []
        lock = threading.Lock()

        def client(model, count):
            try:
                for index in range(count):
                    response = server.predict(pool[index % len(pool)], model=model)
                    with lock:
                        responses.append(response)
            except Exception as error:  # pragma: no cover - failure surface
                errors.append(error)

        with server:
            threads = [
                threading.Thread(target=client, args=(model, 8)) for model in MODELS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(responses) == 24
        for response in responses:
            assert response.shard_id.split("/")[0] == response.model


# ----------------------------------------------------------------------
# Process-mode replicas (mode="process")
# ----------------------------------------------------------------------
def _kill_worker_on_next_forward(replica, after_stop_begins=False):
    """Make the replica's next forward kill its worker just before sending.

    With ``after_stop_begins`` the forward first waits until ``stop()`` has
    begun, so the kill lands during the drain.  One-shot: the hook removes
    itself, so a respawned worker is left alone.
    """

    forward = replica._forward

    def kill_then_forward(model_name, images):
        del replica._forward
        while after_stop_begins and replica.alive:
            time.sleep(0.005)
        replica._process.terminate()
        replica._process.join(timeout=10.0)
        return forward(model_name, images)

    replica._forward = kill_then_forward


class TestProcessShards:
    def test_process_mode_serves_and_routes(self, registry, pool):
        server = ShardedServer(
            registry, ["alpha", "beta"], mode="process", max_batch_size=8, cache_size=0
        )
        with server:
            for model in ("alpha", "beta"):
                responses = server.predict_many(pool[:5], model=model)
                assert [r.model for r in responses] == [model] * 5
                assert all(r.shard_id == f"{model}/0" for r in responses)
            # Answers must match the parent-side engine of the same weights.
            expected = registry.engine("alpha").predict(pool[:5])
            got = [r.class_index for r in server.predict_many(pool[:5], model="alpha")]
            assert got == list(expected)
        assert server.stats.requests == 15
        assert server.stats.batches > 0

    def test_process_mode_batches_requests(self, registry, pool):
        server = ShardedServer(
            registry, ["alpha"], mode="process", max_batch_size=8, cache_size=0
        )
        with server:
            futures = [
                server.submit(PredictRequest(image=pool[i % len(pool)], model="alpha"))
                for i in range(16)
            ]
            for future in futures:
                future.result(timeout=30.0)
        # Requests submitted while the worker was busy must have coalesced.
        assert server.stats.batches < 16
        assert server.stats.batched_images == 16

    def test_process_mode_cache_hits_without_touching_worker(self, registry, pool):
        server = ShardedServer(
            registry, ["alpha"], mode="process", max_batch_size=4, cache_size=32
        )
        with server:
            first = server.predict(pool[0], model="alpha")
            again = server.predict(pool[0], model="alpha")
            assert not first.cache_hit
            assert again.cache_hit
            np.testing.assert_allclose(again.probabilities, first.probabilities)
        assert server.stats.cache_hits == 1

    def test_dead_worker_process_is_restarted_on_next_request(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="process", cache_size=0)
        with server:
            replica = server.shard("alpha")[0]
            assert server.predict(pool[0], model="alpha").model == "alpha"
            replica.server._process.terminate()  # simulate a worker crash
            replica.server._process.join(timeout=10.0)
            assert not replica.alive
            response = server.predict(pool[1], model="alpha")  # transparent revival
            assert response.model == "alpha"
            assert replica.alive
            assert replica.restarts == 1
            assert server.stats.restarts == 1

    def test_restart_re_dispatches_stranded_requests(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="process", cache_size=0)
        with server:
            replica = server.shard("alpha")[0].server
            assert server.predict(pool[0], model="alpha").model == "alpha"
            expected = server.predict(pool[1], model="alpha").class_index
            # Kill the worker while a batch is headed to it: the batch must
            # be answered by the respawned worker, not failed.
            _kill_worker_on_next_forward(replica)
            stranded = server.submit(PredictRequest(image=pool[1], model="alpha"))
            response = stranded.result(timeout=30.0)
            assert response.model == "alpha"
            assert response.class_index == expected
            assert replica.stats.restarts == 1
            assert server.predict(pool[2], model="alpha").model == "alpha"
            assert replica.stats.restarts == 1

    def test_stop_drains_inflight_requests(self, registry, pool):
        server = ShardedServer(
            registry, ["alpha", "beta"], mode="process", max_batch_size=4, cache_size=0
        )
        server.start()
        futures = [
            server.submit(
                PredictRequest(image=pool[i % len(pool)], model=MODELS[i % 2])
            )
            for i in range(12)
        ]
        server.stop()  # graceful drain: every accepted future resolves
        for future in futures:
            assert future.result(timeout=1.0).model in ("alpha", "beta")

    def test_submit_after_stop_raises(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="process", cache_size=0)
        server.start()
        server.stop()
        with pytest.raises(RuntimeError):
            server.shard("alpha")[0].server.submit(
                PredictRequest(image=pool[0], model="alpha")
            )

    def test_unknown_model_rejected_before_reaching_worker(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="process", cache_size=0)
        with server:
            with pytest.raises(UnknownModelError):
                server.submit(PredictRequest(image=pool[0], model="gamma"))
        assert server.stats.rejected == 1

    def test_unknown_mode_is_rejected(self, registry):
        with pytest.raises(ValueError):
            ShardedServer(registry, ["alpha"], mode="greenlet")

    def test_standalone_replica_is_pinned_to_its_snapshot_model(self, registry, pool):
        from repro.serve import ProcessReplica

        replica = ProcessReplica(lambda: registry.snapshot("alpha"), cache_size=0)
        assert replica.allowed_models == {"alpha"}
        with pytest.raises(UnknownModelError):
            replica.submit(PredictRequest(image=pool[0], model="beta"))
        assert replica.stats.rejected == 1

    def test_standalone_replica_respawns_worker_that_died_idle(self, registry, pool):
        from repro.serve import ProcessReplica

        with ProcessReplica(lambda: registry.snapshot("alpha"), cache_size=0) as replica:
            expected = replica.predict(pool[0], model="alpha").class_index
            replica._process.terminate()  # the worker dies between requests
            replica._process.join(timeout=10.0)
            assert not replica.alive
            response = replica.predict(pool[0], model="alpha")
            assert response.class_index == expected
            assert replica.alive
            assert replica.stats.restarts == 1

    def test_snapshot_round_trip_preserves_predictions(self, registry, pool):
        from repro.serve import classifier_from_snapshot

        snapshot = registry.snapshot("alpha")
        rebuilt = classifier_from_snapshot(snapshot)
        np.testing.assert_array_equal(
            rebuilt.predict(pool[:6]), registry.get("alpha").predict(pool[:6])
        )

    def test_stop_fails_stranded_futures_when_worker_dies_mid_drain(self, registry, pool):
        import concurrent.futures

        server = ShardedServer(registry, ["alpha"], mode="process", cache_size=0)
        with server:
            replica = server.shard("alpha")[0].server
            assert server.predict(pool[0], model="alpha").model == "alpha"
            # Kill the worker while a batch is headed to it during stop():
            # the drain must fail the future, not respawn or hang its waiter.
            _kill_worker_on_next_forward(replica, after_stop_begins=True)
            stranded = server.submit(PredictRequest(image=pool[1], model="alpha"))
        with pytest.raises(RuntimeError, match="died while draining"):
            stranded.result(timeout=5.0)
        done, _ = concurrent.futures.wait([stranded], timeout=0.1)
        assert stranded in done
        assert replica.stats.restarts == 0
