"""Process shard replicas vs thread shard replicas on mixed traffic.

Thread-mode shard replicas (:class:`~repro.serve.server.BatchedServer`
workers inside :class:`~repro.serve.shard.ShardedServer`) share the parent
interpreter's GIL.  With the parent otherwise idle that costs little on
one core -- the compiled engine releases the lock inside its heavy NumPy
ops -- but a real serving parent is never idle: the asyncio socket
front-end, metric aggregation and analysis loops all run interpreter-resident
Python.  Every such thread preempts the shard workers at every op
boundary (the classic GIL convoy), and thread-mode serving collapses.
Process-mode replicas (:class:`~repro.serve.procshard.ProcessReplica`,
``mode="process"``) compile their own engine from the registry's ``.npz``
snapshot in a worker process and only compete for CPU through the OS
scheduler -- interpreter-resident work cannot preempt their forwards.

The benchmark replays one deterministic mixed stream (three defense
variants, round-robin) through both modes at increasing levels of
co-resident interpreter load
(:func:`~repro.serve.traffic.coresident_interpreter_load`).  The PR's
acceptance criterion is asserted at the production-shaped rung
(``CORESIDENT_THREADS`` busy interpreter threads): process shards must
sustain at least **1.5x** the thread-shard throughput there.  With an
idle parent the two modes must stay within IPC-overhead distance of each
other (the floor assert) -- on a multi-core host the idle-parent ratio
rises too, as process workers run truly in parallel.  The full ladder is
written to ``results/BENCH_serve_procs.json``.

Measurement is **hermetic** (pyperf-style): the ladder runs in a fresh
interpreter subprocess, because inside a long pytest session the numbers
are contaminated both ways -- forked workers inherit the session's large
heap (copy-on-write slows them ~30%), and accumulated interpreter state
skews the GIL-contention timing of the thread rungs.  Run
``python benchmarks/test_serve_procs.py`` directly to reproduce the raw
JSON by hand.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

MODELS = ("baseline", "input_filter_3x3", "feature_filter_3x3")
POOL_SIZE = 96  # unique images per variant
PASSES = 2  # each variant's pool is cycled this many times
MAX_BATCH_SIZE = 32
IMAGE_SIZE = 32
#: Interpreter-resident busy threads at the asserted rung -- the
#: front-end event loop, a metrics thread and an analysis loop is the
#: co-residency a production parent actually runs.
CORESIDENT_THREADS = 3
#: Ladder of co-resident load levels recorded in the artifact.
LOAD_LADDER = (0, 1, CORESIDENT_THREADS)
SPEEDUP_FLOOR = 1.5  # acceptance criterion at the co-resident rung
IDLE_FLOOR = 0.6  # idle-parent bound: IPC must not cost more than this


def _setup():
    """Registry of three (untrained) variants plus the mixed request stream.

    Training does not change the cost of a forward pass, so the throughput
    comparison uses fresh random weights and skips the training time.
    """

    from repro.models.factory import build_variant, resolve_variant
    from repro.serve import ModelRegistry, generate_mixed_requests, synthetic_image_pool

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
    for name in MODELS:
        registry.engine(name).predict(pool[:MAX_BATCH_SIZE])
    return registry, stream


def _measure(registry, stream, mode: str, busy_threads: int):
    """One load run of the sharded server in ``mode`` under ``busy_threads``."""

    from repro.serve import ShardedServer, coresident_interpreter_load, run_load

    server = ShardedServer(
        registry,
        list(MODELS),
        replicas=1,
        max_batch_size=MAX_BATCH_SIZE,
        cache_size=0,  # isolate scheduling + forward cost
        mode=mode,
    )
    with server:
        run_load(server, stream[: len(MODELS) * MAX_BATCH_SIZE], label="warm")
        with coresident_interpreter_load(busy_threads):
            report = run_load(
                server, stream, label=f"sharded[{mode},bg={busy_threads}]"
            )
    assert report.requests == len(stream)
    return report


def run_ladder() -> Dict[str, object]:
    """Measure the whole thread-vs-process load ladder; returns JSON-ready rows."""

    registry, stream = _setup()
    rows: List[Dict[str, object]] = []
    ratios: Dict[str, float] = {}
    for busy_threads in LOAD_LADDER:
        thread_report = _measure(registry, stream, "thread", busy_threads)
        process_report = _measure(registry, stream, "process", busy_threads)
        ratio = process_report.images_per_second / max(
            thread_report.images_per_second, 1e-9
        )
        ratios[str(busy_threads)] = round(ratio, 3)
        for report in (thread_report, process_report):
            row = report.as_dict()
            row["coresident_threads"] = busy_threads
            row["models"] = len(MODELS)
            row["max_batch_size"] = MAX_BATCH_SIZE
            rows.append(row)
    return {"num_requests": len(stream), "ratios": ratios, "rows": rows}


def _hermetic_ladder() -> Dict[str, object]:
    """Run :func:`run_ladder` in a fresh interpreter and parse its report."""

    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"hermetic ladder run failed (exit {completed.returncode}):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def test_process_shards_vs_thread_shards(benchmark):
    from conftest import run_once, write_bench_artifact

    report = run_once(benchmark, _hermetic_ladder)
    ratios = {int(level): value for level, value in report["ratios"].items()}
    for level in LOAD_LADDER:
        thread_row, process_row = [
            row for row in report["rows"] if row["coresident_threads"] == level
        ]
        print(
            f"bg={level}: thread {thread_row['images_per_second']:.0f} img/s, "
            f"process {process_row['images_per_second']:.0f} img/s "
            f"({ratios[level]:.2f}x)"
        )

    path = write_bench_artifact(
        "serve_procs",
        {
            "scenario": "mixed 3-variant traffic, thread vs process shard replicas "
            "(hermetic subprocess measurement)",
            "models": list(MODELS),
            "num_requests": report["num_requests"],
            "coresident_load_ladder": list(LOAD_LADDER),
            "speedup_process_vs_thread_idle": ratios[0],
            "speedup_process_vs_thread_coresident": ratios[CORESIDENT_THREADS],
            "rows": report["rows"],
        },
    )
    print(f"artifact: {path}")

    # Idle parent: process workers may pay IPC but nothing worse (on a
    # multi-core host they win outright; this box has one core).
    assert ratios[0] >= IDLE_FLOOR, (
        f"process shards fell to {ratios[0]:.2f}x of thread shards with an idle "
        f"parent (IPC overhead bound is {IDLE_FLOOR}x)"
    )
    # Production-shaped parent: the GIL convoy throttles thread replicas;
    # process replicas must win by the PR's acceptance margin.
    assert ratios[CORESIDENT_THREADS] >= SPEEDUP_FLOOR, (
        f"process shards sustained only {ratios[CORESIDENT_THREADS]:.2f}x the "
        f"thread shards under {CORESIDENT_THREADS} co-resident interpreter "
        f"threads (need >= {SPEEDUP_FLOOR}x)"
    )


def test_process_shard_serving_is_correct(benchmark):
    """Process-mode answers must match the engine's own predictions."""

    from conftest import run_once

    from repro.serve import ShardedServer

    registry, stream = _setup()
    server = ShardedServer(
        registry,
        list(MODELS),
        replicas=1,
        max_batch_size=MAX_BATCH_SIZE,
        cache_size=0,
        mode="process",
    )

    def serve_subset():
        with server:
            return [
                (request, server.submit(request).result())
                for request in stream[: 3 * MAX_BATCH_SIZE]
            ]

    answered = run_once(benchmark, serve_subset)
    for request, response in answered:
        expected = int(
            registry.engine(request.model).predict(request.image[None])[0]
        )
        assert response.class_index == expected
        assert response.model == request.model
        assert response.shard_id is not None and response.shard_id.startswith(request.model)


if __name__ == "__main__":
    print(json.dumps(run_ladder()))
