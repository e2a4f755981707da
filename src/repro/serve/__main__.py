"""``python -m repro.serve`` -- command-line front end of the serving layer.

Serves a directory of images (``--images``, ``.npy``/``.npz`` files) or a
synthetic traffic stream (``--synthetic N``, the default) against one model
variant (``--model``) or a sharded fleet of variants (``--shards``), then
prints a throughput report -- or, with ``--port``, stays up as a socket
server.  Models are resolved through a disk-backed
:class:`~repro.serve.registry.ModelRegistry`: the first run of a variant
trains it and persists the weights under ``--registry-dir``; later runs
load them.

Examples
--------
List the variants the registry can serve::

    python -m repro.serve --list-models

Serve 512 synthetic requests (25% repeats) against the baseline::

    python -m repro.serve --model baseline --synthetic 512 --duplicate-fraction 0.25

Shard three variants (two replicas each, least-loaded routing) and compare
against the single-queue server on the same mixed stream::

    python -m repro.serve --shards baseline,feature_filter_3x3,input_filter_3x3 \\
        --replicas 2 --routing least_loaded --synthetic 1024 --compare-single-queue

Run the socket front-end until interrupted (clients use
:class:`repro.serve.SocketClient`)::

    python -m repro.serve --shards baseline,feature_filter_3x3 --port 7860

Run the HTTP/JSON gateway (browsers, ``curl``, any HTTP client), alone or
alongside the frame-protocol port::

    python -m repro.serve --shards baseline,feature_filter_3x3 --http-port 8080
    python -m repro.serve --model baseline --port 7860 --http-port 8080
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..data.lisa import make_dataset
from ..experiments.reporting import format_table
from ..models.factory import variant_catalog
from ..models.training import TrainingConfig
from .frontend import SocketFrontend
from .http import HttpFrontend
from .procshard import single_blas_thread
from .registry import ModelRegistry
from .server import BatchedServer
from .shard import ShardedServer
from .traffic import (
    generate_mixed_requests,
    generate_requests,
    run_load,
    run_naive_loop,
    synthetic_image_pool,
)

__all__ = ["main"]


def _load_image_directory(directory: Path, image_size: int) -> np.ndarray:
    """Load every ``.npy``/``.npz`` image file in ``directory`` as a CHW stack."""

    images: List[np.ndarray] = []
    for path in sorted(directory.iterdir()):
        if path.suffix == ".npy":
            arrays = [np.load(path)]
        elif path.suffix == ".npz":
            archive = np.load(path)
            arrays = [archive[key] for key in archive.files]
        else:
            continue
        for array in arrays:
            array = np.asarray(array, dtype=np.float64)
            if array.ndim == 3 and array.shape[0] == 3:
                images.append(array)
            elif array.ndim == 4 and array.shape[1] == 3:
                images.extend(array)
    if not images:
        raise SystemExit(
            f"no (3, H, W) images found in {directory} (expected .npy/.npz files)"
        )
    for image in images:
        if image.shape[-1] != image_size or image.shape[-2] != image_size:
            raise SystemExit(
                f"image of shape {image.shape} does not match --image-size {image_size}"
            )
    return np.stack(images)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser behind ``python -m repro.serve``."""

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Batched (and sharded) inference serving for BlurNet defended classifiers",
    )
    parser.add_argument("--model", default="baseline", help="registry variant to serve")
    parser.add_argument(
        "--shards",
        default=None,
        help="comma-separated variant names; enables the sharded multi-model server",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker replicas per sharded variant (default: 1)",
    )
    parser.add_argument(
        "--routing",
        choices=("round_robin", "least_loaded"),
        default="round_robin",
        help="replica routing policy in sharded mode",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="run the socket front-end on this port until interrupted "
        "(instead of a one-shot load run); 0 picks a free port",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="run the HTTP/JSON gateway on this port until interrupted "
        "(POST /v1/predict, GET /v1/models, /healthz, /metrics; composable "
        "with --port); 0 picks a free port",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port / --http-port (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--registry-dir",
        default="runs/serve_registry",
        help="directory for persisted model weights (trained on first use)",
    )
    parser.add_argument(
        "--list-models", action="store_true", help="list known variants and exit"
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--images", type=Path, default=None, help="directory of .npy/.npz images to serve"
    )
    source.add_argument(
        "--synthetic",
        type=int,
        default=256,
        help="number of synthetic requests to generate (default: 256)",
    )
    parser.add_argument(
        "--duplicate-fraction",
        type=float,
        default=0.25,
        help="fraction of repeated images in the synthetic stream (default: 0.25)",
    )
    parser.add_argument("--batch-size", type=int, default=32, help="max micro-batch size")
    parser.add_argument(
        "--mode",
        choices=("thread", "sync", "process"),
        default="thread",
        help="replica mode: thread/sync schedulers, or process workers "
        "(sharded only; each replica is an OS process with its own engine)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=2048,
        help="prediction-cache entries per queue/replica (0 disables)",
    )
    parser.add_argument(
        "--cache-policy",
        choices=("lru", "tinylfu"),
        default="lru",
        help="prediction-cache admission policy: recency-only LRU, or TinyLFU "
        "(frequency-gated admission that survives adversarial unique-image spam)",
    )
    parser.add_argument(
        "--autotune",
        action="store_true",
        help="adjust max_batch_size online per queue/replica from per-batch "
        "latency (--batch-size becomes the controller's starting point)",
    )
    parser.add_argument(
        "--compare-naive",
        action="store_true",
        help="also run the naive per-request predict loop for comparison (single-model mode)",
    )
    parser.add_argument(
        "--compare-single-queue",
        action="store_true",
        help="in sharded mode, also run the PR 1 single-queue server on the same stream",
    )
    parser.add_argument("--image-size", type=int, default=32, help="model input size")
    parser.add_argument("--seed", type=int, default=0, help="traffic and training seed")
    parser.add_argument(
        "--train-size",
        type=int,
        default=400,
        help="synthetic training-set size when a variant must be trained",
    )
    parser.add_argument(
        "--epochs", type=int, default=8, help="training epochs when a variant must be trained"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the report rows as JSON to this path"
    )
    return parser


def _build_server(arguments: argparse.Namespace, registry: ModelRegistry, models: List[str]):
    """Construct the single-queue or sharded server the flags describe."""

    if arguments.shards is not None:
        return ShardedServer(
            registry,
            models,
            replicas=arguments.replicas,
            routing=arguments.routing,
            max_batch_size=arguments.batch_size,
            cache_size=arguments.cache_size,
            cache_policy=arguments.cache_policy,
            mode=arguments.mode,
            autotune=arguments.autotune,
        )
    return BatchedServer(
        registry,
        max_batch_size=arguments.batch_size,
        cache_size=arguments.cache_size,
        cache_policy=arguments.cache_policy,
        mode=arguments.mode,
        autotune=arguments.autotune,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point; returns the process exit code."""

    arguments = build_parser().parse_args(argv)

    if arguments.list_models:
        for name in sorted(variant_catalog()):
            print(name)
        return 0

    if not 0.0 <= arguments.duplicate_fraction <= 1.0:
        raise SystemExit(
            f"--duplicate-fraction must be in [0, 1], got {arguments.duplicate_fraction}"
        )
    if arguments.replicas < 1:
        raise SystemExit(f"--replicas must be positive, got {arguments.replicas}")
    # Validate flag combinations before model resolution: training variants
    # is the expensive step and must not run for an invalid command line.
    if arguments.port is not None and arguments.mode == "sync":
        raise SystemExit("--port requires --mode thread or --mode process")
    if arguments.http_port is not None and arguments.mode == "sync":
        raise SystemExit("--http-port requires --mode thread or --mode process")
    if (
        arguments.port is not None
        and arguments.http_port is not None
        and arguments.port == arguments.http_port
        and arguments.port != 0
    ):
        raise SystemExit("--port and --http-port must differ")
    if arguments.mode == "process" and arguments.shards is None:
        raise SystemExit("--mode process requires --shards (process workers are per-variant)")
    if arguments.compare_naive and arguments.shards is not None:
        raise SystemExit("--compare-naive only applies to single-model serving")
    if arguments.compare_single_queue and arguments.shards is None:
        raise SystemExit("--compare-single-queue only applies to --shards mode")
    if arguments.cache_policy != "lru" and arguments.cache_size == 0:
        raise SystemExit(
            f"--cache-policy {arguments.cache_policy} requires a non-zero --cache-size"
        )
    if arguments.batch_size < 1:
        raise SystemExit(f"--batch-size must be positive, got {arguments.batch_size}")

    models = (
        [name.strip() for name in arguments.shards.split(",") if name.strip()]
        if arguments.shards is not None
        else [arguments.model]
    )
    if not models:
        raise SystemExit("--shards needs at least one variant name")

    registry = ModelRegistry(
        arguments.registry_dir,
        image_size=arguments.image_size,
        seed=arguments.seed,
        training_config=TrainingConfig(epochs=arguments.epochs, seed=arguments.seed),
        dataset_factory=lambda: make_dataset(
            arguments.train_size, image_size=arguments.image_size, seed=arguments.seed
        ),
    )

    for name in models:
        print(f"resolving model {name!r} (registry: {arguments.registry_dir}) ...")
        try:
            registry.get(name)
        except KeyError as error:
            raise SystemExit(str(error.args[0]) if error.args else str(error))

    # A process-mode server owns every thread in this process, so it runs
    # OpenBLAS at one thread: the shard workers fork inside the cap (crash
    # respawns too) and inherit it.  Thread mode leaves BLAS as it is.
    blas_cap = single_blas_thread() if arguments.mode == "process" else contextlib.nullcontext()
    with blas_cap:
        return _serve(arguments, registry, models)


def _serve(arguments: argparse.Namespace, registry: ModelRegistry, models: List[str]) -> int:
    """Serve the resolved ``models`` as the flags say; returns the exit code."""

    server = _build_server(arguments, registry, models)
    if arguments.shards is not None:
        server.warm()
    else:
        server.warm(models[0])

    if arguments.port is not None or arguments.http_port is not None:
        frontend_died = False
        with server:
            # Starts happen inside the try: if the second front-end's bind
            # fails, the first is still drained on the way out.
            frontends = []
            try:
                if arguments.port is not None:
                    frontend = SocketFrontend(
                        server, host=arguments.host, port=arguments.port
                    )
                    frontends.append(frontend)
                    frontend.start()
                    print(
                        f"serving {', '.join(models)} on "
                        f"{arguments.host}:{frontend.port} "
                        f"(length-prefixed frames; Ctrl-C to drain and exit)"
                    )
                if arguments.http_port is not None:
                    gateway = HttpFrontend(
                        server, host=arguments.host, port=arguments.http_port
                    )
                    frontends.append(gateway)
                    gateway.start()
                    print(
                        f"serving {', '.join(models)} on "
                        f"http://{arguments.host}:{gateway.port} "
                        f"(POST /v1/predict; Ctrl-C to drain and exit)"
                    )
                # Liveness-checked, not sleep-forever: a front-end whose
                # event-loop thread died must end the process, not leave a
                # zombie CLI with dead ports.
                while frontends and all(frontend.alive for frontend in frontends):
                    time.sleep(0.2)
                frontend_died = True
            except KeyboardInterrupt:
                pass
            finally:
                for frontend in frontends:
                    frontend.stop()
        if frontend_died:
            # An unexpected front-end death is a failure, not a clean exit:
            # a supervisor with restart-on-failure must see a non-zero code.
            print("error: a front-end stopped unexpectedly", file=sys.stderr)
            return 1
        return 0

    if arguments.images is not None:
        pool = _load_image_directory(arguments.images, arguments.image_size)
        num_requests = len(pool)
        duplicate_fraction = 0.0
        print(f"serving {num_requests} images from {arguments.images}")
    else:
        pool_size = max(1, int(arguments.synthetic * (1.0 - arguments.duplicate_fraction)))
        pool = synthetic_image_pool(
            min(pool_size, arguments.synthetic),
            image_size=arguments.image_size,
            seed=arguments.seed + 1,
        )
        num_requests = arguments.synthetic
        duplicate_fraction = arguments.duplicate_fraction
        print(
            f"serving {num_requests} synthetic requests over {len(models)} model(s) "
            f"({duplicate_fraction:.0%} duplicates, pool of {len(pool)})"
        )

    if len(models) > 1:
        requests = generate_mixed_requests(
            pool,
            num_requests,
            models,
            duplicate_fraction=duplicate_fraction,
            seed=arguments.seed,
        )
    else:
        requests = generate_requests(
            pool,
            num_requests,
            duplicate_fraction=duplicate_fraction,
            model=models[0],
            seed=arguments.seed,
        )

    reports = []
    if arguments.compare_naive:
        reports.append(run_naive_loop(registry.get(models[0]), requests))
    if arguments.compare_single_queue:
        # The single-queue reference server has no process mode; fall back
        # to the thread scheduler for that comparison (and label the row
        # with the mode that actually ran).
        single_mode = "thread" if arguments.mode == "process" else arguments.mode
        single = BatchedServer(
            registry,
            max_batch_size=arguments.batch_size,
            cache_size=arguments.cache_size,
            cache_policy=arguments.cache_policy,
            mode=single_mode,
        )
        with single:
            reports.append(run_load(single, requests, label=f"single_queue[{single_mode}]"))

    mode_tag = arguments.mode + (",autotuned" if arguments.autotune else "")
    label = (
        f"sharded[{mode_tag},r{arguments.replicas},{arguments.routing}]"
        if arguments.shards is not None
        else f"micro_batched[{mode_tag}]"
    )
    with server:
        reports.append(run_load(server, requests, label=label))
    if arguments.autotune:
        # Every replica (thread, sync or process) carries its own .tuner.
        tuners = (
            [replica.server.tuner for replica in server.all_replicas]
            if arguments.shards is not None
            else [server.tuner]
        )
        print("\nautotuner state per queue/replica:")
        for tuner in tuners:
            if tuner is not None:
                print(f"  {tuner.as_dict()}")

    rows = [report.as_dict() for report in reports]
    print()
    print(format_table(rows))
    if len(reports) == 2:
        speedup = reports[1].images_per_second / max(reports[0].images_per_second, 1e-9)
        print(f"\n{reports[1].label} speedup over {reports[0].label}: {speedup:.2f}x")

    if arguments.json is not None:
        arguments.json.parent.mkdir(parents=True, exist_ok=True)
        arguments.json.write_text(json.dumps(rows, indent=2))
        print(f"report written to {arguments.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
