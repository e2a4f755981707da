"""Tests for the one-thread OpenBLAS cap of process-shard serving.

:func:`repro.serve.procshard.single_blas_thread` runs every OpenBLAS pool
in the process at one thread and restores the counts on exit;
``python -m repro.serve --mode process`` serves inside it, so its forked
shard workers inherit the cap.  Each test first raises every pool to two
threads: under ``taskset -c 0`` OpenBLAS starts with one, and a cap from
one thread to one would prove nothing.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import ModelRegistry, ProcessReplica, ShardedServer
from repro.serve import __main__ as serve_cli
from repro.serve import procshard
from repro.serve.procshard import blas_threads, single_blas_thread

IMAGE_SIZE = 16


def _pool_sizes() -> dict:
    """Thread count of every OpenBLAS pool in this process, keyed by library path."""

    return {path: get_threads() for path, _, get_threads in procshard._openblas_pools()}


def _send_pool_sizes(connection) -> None:
    connection.send(_pool_sizes())
    connection.close()


def _pool_sizes_in_forked_child() -> dict:
    context = mp.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send_pool_sizes, args=(sender,))
    child.start()
    sender.close()
    try:
        assert receiver.poll(30.0), "the forked child sent no pool sizes"
        return receiver.recv()
    finally:
        child.join(10.0)


@pytest.fixture
def two_thread_pools():
    """Every mapped OpenBLAS pool at two threads; the old counts restored after."""

    pools = procshard._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread pool is mapped into this process")
    previous = [get_threads() for _, _, get_threads in pools]
    for _, set_threads, _ in pools:
        set_threads(2)
    yield _pool_sizes()
    for (_, set_threads, _), count in zip(pools, previous):
        set_threads(count)


@pytest.fixture(scope="module")
def registry():
    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    registry.add(
        "alpha",
        DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=IMAGE_SIZE),
        persist=False,
    )
    return registry


def test_cap_sets_every_pool_to_one_and_restores(two_thread_pools):
    assert set(two_thread_pools.values()) == {2}
    with single_blas_thread():
        assert set(_pool_sizes().values()) == {1}
        assert blas_threads() == 1
        assert set(_pool_sizes_in_forked_child().values()) == {1}
    assert _pool_sizes() == two_thread_pools
    assert blas_threads() == 2


def test_cap_restores_after_an_exception(two_thread_pools):
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("boom")
    assert _pool_sizes() == two_thread_pools


def test_no_openblas_found_is_a_noop(two_thread_pools, monkeypatch):
    def unreadable(*_args, **_kwargs):
        raise OSError("no /proc on this host")

    monkeypatch.setattr(procshard, "open", unreadable, raising=False)
    assert procshard._openblas_pools() == []
    assert blas_threads() is None
    with single_blas_thread():
        monkeypatch.undo()
        assert _pool_sizes() == two_thread_pools


def test_process_replica_reports_its_workers_pool(two_thread_pools, registry):
    # The replica itself leaves BLAS alone: its worker keeps the parent's pools.
    with ProcessReplica(lambda: registry.snapshot("alpha"), cache_size=0) as replica:
        assert replica.metrics()["blas_threads"] == 2
    assert _pool_sizes() == two_thread_pools
    with single_blas_thread():
        with ProcessReplica(lambda: registry.snapshot("alpha"), cache_size=0) as replica:
            assert replica.metrics()["blas_threads"] == 1
            replica._process.kill()  # a crash respawn forks inside the cap too
            replica._process.join(10.0)
            replica.restart()
            assert replica.metrics()["blas_threads"] == 1
            assert replica.stats.restarts == 1


def _cli_argv(registry_dir, mode: str) -> list:
    return [
        "--shards", "baseline",
        "--mode", mode,
        "--synthetic", "16",
        "--batch-size", "4",
        "--registry-dir", str(registry_dir),
        "--image-size", str(IMAGE_SIZE),
    ]


@pytest.fixture
def registry_dir(tmp_path):
    """A registry directory holding untrained ``baseline`` weights (no training run)."""

    ModelRegistry(tmp_path, image_size=IMAGE_SIZE).add(
        "baseline",
        DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=IMAGE_SIZE),
    )
    return tmp_path


def test_cli_process_mode_caps_its_workers_and_restores(
    two_thread_pools, registry_dir, monkeypatch
):
    worker_threads = []
    original_stop = ShardedServer.stop

    def recording_stop(self):
        worker_threads.extend(
            shard["blas_threads"] for shard in self.metrics()["shards"].values()
        )
        original_stop(self)

    monkeypatch.setattr(ShardedServer, "stop", recording_stop)
    assert serve_cli.main(_cli_argv(registry_dir, "process")) == 0
    assert worker_threads == [1]
    assert _pool_sizes() == two_thread_pools


def test_cli_thread_mode_does_not_cap(registry_dir, monkeypatch):
    entered = []

    def recording_cap():
        entered.append(True)
        return single_blas_thread()

    monkeypatch.setattr(serve_cli, "single_blas_thread", recording_cap)
    assert serve_cli.main(_cli_argv(registry_dir, "thread")) == 0
    assert entered == []
    assert serve_cli.main(_cli_argv(registry_dir, "process")) == 0
    assert entered == [True]
