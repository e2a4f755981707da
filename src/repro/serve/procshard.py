"""Process-backed shard replicas: forwards that never share the parent's GIL.

Thread-mode replicas only overlap inside BLAS calls -- every Python step
of every replica serializes on one interpreter lock.  A
:class:`ProcessReplica` is the same replica core
(:class:`~repro.serve.server.BatchedServer`: validation, parent-side
cache, busy-driven batcher, stats, responses) with one override: the batch
forward is a pipe round trip (float32 images out, float32 probabilities
back) to a worker **process** spawned from a picklable
:class:`~repro.serve.registry.ModelSnapshot`, which rebuilds the classifier
and compiles a private :class:`~repro.nn.inference.InferenceEngine`.

The replica owns the worker's lifecycle: spawn with a ready handshake,
respawn when the pipe turns out dead (the batch headed to the dead worker
is sent again to the new one), and shutdown after the drain in ``stop()``
-- a worker that dies during that drain fails the remaining requests with
``RuntimeError`` instead of hanging them.  Workers start with ``fork``
where available, else ``spawn``.

Thread-safety: as :class:`~repro.serve.server.BatchedServer`.  The worker
handle is swapped under a lock, so the scheduler thread and a
``restart()`` replace a dead worker once.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from typing import Callable, Optional, Sequence

import numpy as np

# ``perfbench/tracing.py`` wraps ``procshard.image_fingerprint`` by name.
from .cache import image_fingerprint  # noqa: F401
from .registry import ModelSnapshot, classifier_from_snapshot
from .server import BatchedServer

__all__ = ["ProcessReplica", "worker_main"]

#: Seconds a freshly spawned worker gets to rebuild its classifier and
#: compile its engine before the spawn gives up.
_READY_TIMEOUT = 120.0

#: Seconds a shutdown waits for the worker process to exit after the
#: shutdown sentinel before escalating to ``terminate()``.
_JOIN_TIMEOUT = 10.0

#: Seconds between liveness checks while a round trip waits for its answer.
_POLL_INTERVAL = 0.1

_CONTEXT = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def worker_main(snapshot: ModelSnapshot, connection) -> None:
    """Entry point of one shard worker process.

    Rebuilds the classifier from the registry snapshot, compiles a private
    inference engine (randomized-smoothing variants predict through their
    vectorized Monte-Carlo vote instead), sends ``("ready", pid)``, then
    answers each image batch with ``("result", probabilities)`` until the
    ``None`` shutdown sentinel (or a closed pipe) arrives.  A failed batch
    is answered with ``("error", message)`` without killing the worker.
    """

    try:
        classifier = classifier_from_snapshot(snapshot)
        engine = None
        if classifier.smoother is None:
            from ..nn.inference import cached_engine

            engine = cached_engine(classifier.model)
            engine.predict(
                np.zeros((1, 3, snapshot.image_size, snapshot.image_size), dtype=np.float32)
            )
        connection.send(("ready", os.getpid()))
    except Exception as error:  # startup failure: report, then exit
        try:
            connection.send(("fatal", repr(error)))
        except OSError:
            pass
        return

    while True:
        try:
            images = connection.recv()
        except (EOFError, OSError):
            return
        if images is None:
            return
        try:
            if engine is not None:
                probabilities = engine.predict_proba(images, batch_size=len(images))
            else:
                probabilities = classifier.predict_proba(np.asarray(images, dtype=np.float64))
            reply = ("result", probabilities.astype(np.float32, copy=False))
        except Exception as error:
            reply = ("error", repr(error))
        try:
            connection.send(reply)
        except OSError:
            return


class ProcessReplica(BatchedServer):
    """A :class:`~repro.serve.server.BatchedServer` whose forwards run in a worker process.

    Parameters
    ----------
    snapshot_factory:
        Zero-argument callable returning the
        :class:`~repro.serve.registry.ModelSnapshot` to spawn workers
        from; called at every (re)spawn so restarts pick up reloaded
        weights.  Typically ``lambda: registry.snapshot(name)``.
    allowed_models:
        Variants this replica answers; defaults to the snapshot's own
        model, since the worker holds that model's weights only.
    settings:
        The remaining :class:`~repro.serve.server.BatchedServer` keyword
        arguments (``max_batch_size``, ``cache_size``, ``cache_policy``,
        ``autotune``, ``tuner``, ``class_names``, ``shard_id``).  The
        scheduler always runs in thread mode; when autotuning, the tuner
        times each batch including its pipe round trip.
    """

    def __init__(
        self,
        snapshot_factory: Callable[[], ModelSnapshot],
        *,
        allowed_models: Optional[Sequence[str]] = None,
        **settings,
    ) -> None:
        if allowed_models is None:
            allowed_models = (snapshot_factory().name,)
        super().__init__(None, mode="thread", allowed_models=allowed_models, **settings)
        self.snapshot_factory = snapshot_factory
        self._worker_lock = threading.Lock()
        self._process: Optional[mp.process.BaseProcess] = None
        self._connection = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Replica mode: always ``"process"``."""

        return "process"

    @property
    def alive(self) -> bool:
        """Whether the scheduler is running and the worker process is up.

        A crashed (or never-started) worker reports ``False`` so
        :class:`~repro.serve.shard.ShardedServer` revives the replica.
        """

        process = self._process
        return super().alive and process is not None and process.is_alive()

    def start(self) -> "ProcessReplica":
        """Spawn the worker (waiting for its ready handshake), then start the scheduler.

        Raises ``RuntimeError`` when the worker fails to come up (snapshot
        rebuild or engine compile error, or handshake timeout).
        """

        with self._worker_lock:
            if self._process is None:
                self._spawn()
        super().start()
        return self

    def stop(self) -> None:
        """Drain every accepted request through the worker, then shut it down.

        If the worker dies during the drain, the remaining requests fail
        with ``RuntimeError`` instead of hanging (``stop`` never
        respawns).  Requests submitted after ``stop`` raise
        ``RuntimeError``.
        """

        self._stopping = True
        try:
            super().stop()
        finally:
            self._stopping = False
            with self._worker_lock:
                self._shutdown_worker()

    def restart(self) -> "ProcessReplica":
        """Revive the replica: respawn a dead worker, rebuild a dead scheduler.

        Requests waiting in the scheduler keep their futures and are served
        by the new worker; the cache, counters and tuner survive, and
        ``stats.restarts`` counts the revival once.
        """

        if super().alive:  # only the worker can be down
            self._replace_worker()
            return self
        with self._worker_lock:
            self._shutdown_worker(force=True)
        super().restart()  # its start() spawns a fresh worker
        return self

    def warm(self, model: Optional[str] = None) -> None:
        """No-op: the worker compiles its engine when it is spawned."""

    # ------------------------------------------------------------------
    # The forward: one pipe round trip per micro-batch
    # ------------------------------------------------------------------
    def _forward(self, model_name: str, images: np.ndarray) -> np.ndarray:
        images = images.astype(np.float32, copy=False)
        with self._worker_lock:
            process, connection = self._process, self._connection
        try:
            return _round_trip(process, connection, images)
        except (EOFError, OSError) as error:
            if self._stopping:
                raise RuntimeError(
                    "process shard worker died while draining; request was not "
                    f"served (shard_id={self.shard_id!r})"
                ) from error
        # The worker died with this batch headed to it: respawn it (unless
        # a restart() already did) and send the batch again.
        return _round_trip(*self._replace_worker(failed_connection=connection), images)

    # ------------------------------------------------------------------
    # Worker handle (_spawn and _shutdown_worker run under _worker_lock)
    # ------------------------------------------------------------------
    def _replace_worker(self, failed_connection=None):
        """Respawn the worker if it is dead or still on ``failed_connection``.

        Returns the current ``(process, connection)`` pair; counts a
        restart only when this call did the respawn.
        """

        with self._worker_lock:
            process = self._process
            if (
                process is not None
                and process.is_alive()
                and self._connection is not failed_connection
            ):
                return process, self._connection  # healthy, or already replaced
            self._shutdown_worker(force=True)
            self._spawn()
            worker = self._process, self._connection
        self.stats.add("restarts")
        return worker

    def _spawn(self) -> None:
        snapshot = self.snapshot_factory()
        connection, child_connection = _CONTEXT.Pipe()
        process = _CONTEXT.Process(
            target=worker_main,
            args=(snapshot, child_connection),
            daemon=True,
            name=f"proc-shard-{self.shard_id or snapshot.name}",
        )
        process.start()
        child_connection.close()
        status = ("fatal", f"no ready handshake within {_READY_TIMEOUT:.0f}s")
        try:
            if connection.poll(_READY_TIMEOUT):
                status = connection.recv()
        except (EOFError, OSError):
            status = ("fatal", "worker exited during startup")
        if status[0] != "ready":
            process.terminate()
            process.join(timeout=_JOIN_TIMEOUT)
            connection.close()
            raise RuntimeError(
                f"process shard worker for {snapshot.name!r} failed to start: {status[1]}"
            )
        self._process, self._connection = process, connection

    def _shutdown_worker(self, force: bool = False) -> None:
        process, connection = self._process, self._connection
        self._process = self._connection = None
        if connection is not None:
            try:
                connection.send(None)
            except OSError:
                pass
            connection.close()
        if process is not None:
            process.join(timeout=0.1 if force else _JOIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)


def _round_trip(process, connection, images: np.ndarray) -> np.ndarray:
    """Send one batch to a worker and wait for its probabilities.

    Raises ``EOFError``/``OSError`` when the worker is gone, checking its
    liveness while it waits so a dead worker cannot hang the caller.
    """

    if connection is None:
        raise EOFError("no worker process")
    connection.send(images)
    while not connection.poll(_POLL_INTERVAL):
        if not process.is_alive():
            raise EOFError("worker process exited")
    kind, payload = connection.recv()
    if kind == "error":
        raise RuntimeError(payload)
    return payload
