"""The two serving workloads: ``http_json_seq`` and ``socket_open_mixed``.

Each run writes a registry of seeded, untrained weights and spawns SERVERS
fresh ``python -m repro.serve`` processes over it, one after another.  Each
is timed from spawn to its first correct answer (the set-up samples) and has
its process tree's peak RSS read before it is stopped.

* ``http_json_seq`` splits its requests evenly over the servers, and its
  latency and pace are medians over blocks of requests from all of them:
  one thread-mode server's p50 was seen to drift from 7 to 10 ms within a
  run.
* ``socket_open_mixed`` sends all its traffic to the last server.  A
  process-shard server takes seconds to settle; split over three servers,
  the rungs' p95 came out about twice as high and far less steady.

Every answer is checked against the float64 autodiff forward of the same
weights.  Inputs are generated here from the workload seed, never through
``repro.serve.traffic``.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import loadgen
import tracing
from stats import percentile

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"

#: Servers spawned per run, one after another.
SERVERS = 3
#: Probability agreement with the float64 reference: |p - ref| <= ATOL + RTOL * ref.
ATOL, RTOL = 1e-5, 1e-4
#: The latency limit of the open-loop workload: one frame at 20 fps.
LATENCY_LIMIT_MS = 50.0
#: ``http_json_seq`` sends this many requests per second of ``--seconds``.
HTTP_REQUESTS_PER_SECOND = 240
HTTP_CALLERS = 2
#: Latency percentiles, and the pace behind ``http_json_seq``'s ``wall_s``,
#: are medians over blocks of consecutive requests (``stats.block_percentiles``):
#: HTTP_BLOCKS per server, and SOCKET_BLOCKS over the 200 req/s rung.
HTTP_BLOCKS = 5
SOCKET_BLOCKS = 6
#: ``socket_open_mixed`` rungs: (rate in req/s, share of ``--seconds``).  An
#: 800 req/s overload rung was dropped: its goodput counted 5 to 15 answers a
#: second, and its backlog moved the parent's peak RSS from run to run.
RUNGS = ((100, 0.15), (200, 0.7), (400, 0.15))
#: After the rungs, BURSTS bursts of BURST_SIZE frames are written back to
#: back, one burst at a time; ``wall_s`` is the median time to answer one.
BURSTS = 3
BURST_SIZE = 300
SOCKET_VARIANTS = ("baseline", "feature_filter_5x5", "conv7x7")
HOT_SET = 64
HOT_SHARE = 0.25
#: A rung's answers must all arrive within this many seconds of its last send.
ANSWER_TIMEOUT_S = 60.0
IMAGE_SIZE = 32
WEIGHTS_SEED = 0

_PIXEL_TEXT = np.array([repr(value / 255.0) for value in range(256)], dtype=object)


# ----------------------------------------------------------------------
# Inputs, weights and the reference forward
# ----------------------------------------------------------------------
def random_pixels(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uint8 images, ``(count, 3, H, W)``; the model sees ``pixels / 255``."""

    return rng.integers(0, 256, size=(count, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)


def json_image(pixels: np.ndarray) -> str:
    """Nested-list JSON text of ``pixels / 255`` (what ``json.dumps`` would write)."""

    text = _PIXEL_TEXT[pixels]
    return "[" + ",".join(
        "[" + ",".join("[" + ",".join(row) + "]" for row in channel) + "]" for channel in text
    ) + "]"


def build_registry(directory: Path, variants: Sequence[str]) -> Dict[str, object]:
    """Persist seeded untrained weights; return classifiers loaded back from disk."""

    from repro.core.blurnet import DefendedClassifier
    from repro.models.factory import resolve_variant
    from repro.serve.registry import ModelRegistry

    writer = ModelRegistry(directory, image_size=IMAGE_SIZE, seed=WEIGHTS_SEED)
    for name in variants:
        writer.add(
            name,
            DefendedClassifier.build(
                resolve_variant(name), seed=WEIGHTS_SEED, image_size=IMAGE_SIZE
            ),
        )
    reader = ModelRegistry(directory, image_size=IMAGE_SIZE, seed=WEIGHTS_SEED)
    return {name: reader.get(name) for name in variants}


def reference_probabilities(classifier, images: np.ndarray) -> np.ndarray:
    """Float64 autodiff forward (no engine), in small chunks to bound memory."""

    return classifier.predict_proba(np.asarray(images, dtype=np.float64), batch_size=16, exact=True)


def probabilities_match(values: np.ndarray, expected: np.ndarray) -> bool:
    """The float32 tolerance every output check uses."""

    return bool(np.all(np.abs(values - expected) <= ATOL + RTOL * np.abs(expected)))


def check_answer(
    answer: Dict[str, object], request_id: str, model: str, expected: np.ndarray
) -> Optional[str]:
    """None when the answer is correct, else why it is not."""

    if "error" in answer:
        return f"error answer: {answer['error']}"
    if answer.get("request_id") != request_id:
        return f"request_id {answer.get('request_id')!r} != {request_id!r}"
    if answer.get("model") != model:
        return f"model {answer.get('model')!r} != {model!r}"
    probabilities = np.asarray(answer.get("probabilities", ()), dtype=np.float64)
    if probabilities.shape != expected.shape:
        return f"probabilities shape {probabilities.shape} != {expected.shape}"
    if not probabilities_match(probabilities, expected):
        return f"probabilities off by {np.abs(probabilities - expected).max():.3g}"
    return None


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return found


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_environment() -> Dict[str, str]:
    """The inherited environment plus ``src/`` and ``perfbench/`` on ``PYTHONPATH``."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class ServerProcess:
    """One ``repro.serve`` process (and its shard workers) in its own session."""

    def __init__(self, serve_args: Sequence[str], log_path: Path, trace_out: Optional[Path]):
        if trace_out is None:
            command = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "launch_server.py"), str(trace_out), *serve_args]
        self._log = open(log_path, "wb")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_environment(),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    def tree(self) -> List[int]:
        pids, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier.extend(_children(pid))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server and its worker processes."""

        return sum(_vm_hwm_mb(pid) for pid in self.tree())

    def alive(self) -> bool:
        return self.process.poll() is None

    def stop(self) -> int:
        """SIGINT (the server drains and exits), then kill whatever is left."""

        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        code = self.process.wait()
        self._log.close()
        return code


def wait_ready(
    server: ServerProcess, probe, timeout: float = 120.0
) -> Tuple[float, Optional[str]]:
    """Set-up time: spawn until the first answer; with the answer's check result.

    ``probe()`` sends one request and returns ``(answer, check error)``, or
    raises ``ConnectionRefusedError`` while the server is not listening.
    """

    deadline = server.spawned + timeout
    while time.perf_counter() < deadline:
        if not server.alive():
            raise RuntimeError("server exited during start-up; see its log")
        try:
            _answer, error = probe()
        except (ConnectionRefusedError, ConnectionResetError):
            time.sleep(0.01)
            continue
        return time.perf_counter() - server.spawned, error
    raise RuntimeError(f"server did not answer within {timeout:.0f}s")


def measure_on_servers(serve_args, probes, run_dir: Path, trace: bool, drive):
    """Spawn SERVERS servers one after another; each serves ``drive(index)``.

    Server ``index`` is timed from spawn to its first answer
    (``probes[index]``), the set-up sample.  It then serves its share of the
    workload, which may be none, and its process tree's peak RSS is read
    before it is stopped.
    """

    setups: List[float] = []
    failures: List[str] = []
    outputs: List[object] = []
    peaks: List[float] = []
    for index in range(SERVERS):
        trace_out = run_dir / f"trace-{index}.json" if trace else None
        server = ServerProcess(serve_args, run_dir / f"server-{index}.log", trace_out)
        try:
            elapsed, error = wait_ready(server, probes[index])
            setups.append(elapsed)
            if error is not None:
                failures.append(f"set-up probe {index}: {error}")
            # No collector pauses in the generator while it timestamps.
            gc.collect()
            gc.disable()
            try:
                outputs.append(drive(index))
            finally:
                gc.enable()
            peaks.append(server.peak_rss_mb())
        finally:
            server.stop()
    traces = [run_dir / f"trace-{index}.json" for index in range(SERVERS)] if trace else []
    return outputs, {"setups": setups, "failures": failures, "peaks": peaks, "traces": traces}


# ----------------------------------------------------------------------
# http_json_seq
# ----------------------------------------------------------------------
def _http_body(model: str, request_id: str, pixels: np.ndarray) -> bytes:
    return (
        f'{{"model": "{model}", "request_id": "{request_id}", "image": {json_image(pixels)}}}'
    ).encode("ascii")


def _http_probe(port: int, request_id: str, pixels: np.ndarray, expected: np.ndarray):
    def probe():
        request = loadgen.http_predict_request(HOST, port, _http_body("baseline", request_id, pixels))
        result = loadgen.run_closed_loop_http(HOST, port, [request], callers=1)[0]
        if result.error is not None:
            raise ConnectionRefusedError(result.error)
        if result.status != 200:
            return None, f"HTTP {result.status}"
        answer = json.loads(result.body)
        return answer, check_answer(answer, request_id, "baseline", expected)

    return probe


def http_json_seq(seed: int, seconds: int, trace: bool, run_dir: Path) -> Dict[str, object]:
    """Two closed-loop keep-alive callers POST unique nested-list JSON images."""

    rng = np.random.default_rng(seed)
    count = HTTP_REQUESTS_PER_SECOND * seconds
    pixels = random_pixels(rng, count + SERVERS)
    classifier = build_registry(run_dir / "registry", ["baseline"])["baseline"]
    expected = reference_probabilities(classifier, pixels / 255.0)

    port = free_port()
    ids = [f"h{seed}-{index}" for index in range(count)]
    requests = [
        loadgen.http_predict_request(HOST, port, _http_body("baseline", ids[i], pixels[i]))
        for i in range(count)
    ]
    shares = np.array_split(np.arange(count), SERVERS)
    probes = [
        _http_probe(port, f"probe-{k}", pixels[count + k], expected[count + k])
        for k in range(SERVERS)
    ]
    serve_args = [
        "--model", "baseline", "--http-port", str(port),
        "--registry-dir", str(run_dir / "registry"),
    ]
    outputs, servers = measure_on_servers(
        serve_args,
        probes,
        run_dir,
        trace,
        lambda k: loadgen.run_closed_loop_http(
            HOST, port, [requests[i] for i in shares[k]], callers=HTTP_CALLERS
        ),
    )
    results = [result for output in outputs for result in output]  # in request order

    failures = servers["failures"]
    latencies, fronts = [], []
    for index, result in enumerate(results):
        error = result.error or (None if result.status == 200 else f"HTTP {result.status}")
        if error is None:
            answer = json.loads(result.body)
            error = check_answer(answer, ids[index], "baseline", expected[index])
        if error is not None:
            failures.append(f"{ids[index]}: {error}")
            continue
        wire_ms = (result.received - result.sent) * 1000.0
        latencies.append(wire_ms)
        fronts.append(wire_ms - float(answer["latency_ms"]))
    # wall_s: the fixed request count at the pace of the median block.
    blocks = HTTP_BLOCKS * SERVERS
    block_s = [
        max(results[i].received for i in part) - min(results[i].sent for i in part)
        for part in np.array_split(np.arange(count), blocks)
        if all(results[i].received for i in part)
    ]
    wall = blocks * float(np.median(block_s)) if block_s else 0.0

    outcome = {
        "attempted": count + SERVERS,
        "failures": failures,
        "setup_s": servers["setups"],
        "wall_s": wall,
        "wall_n": len(block_s),
        "wall_note": f"{blocks} x the median block's first send to last answer",
        "latency_ms": latencies,
        "latency_blocks": blocks,
        "peak_rss_mb": servers["peaks"],
        "extra": {"throughput_rps": (len(latencies) / wall if wall else 0.0, "req/s", len(latencies))},
        "layers": {
            "http.front_ms": fronts,
            "http.request_bytes.mean": float(np.mean([len(r) for r in requests])),
        },
    }
    if trace:
        outcome["layers"].update(server_layers(servers["traces"], ["baseline"]))
        outcome["layers"].update(engine_layers(build_registry(run_dir / "probe", SOCKET_VARIANTS)))
    return outcome


# ----------------------------------------------------------------------
# socket_open_mixed
# ----------------------------------------------------------------------
def _socket_probe(port: int, request_id: str, pixels: np.ndarray, expected: np.ndarray):
    frame = loadgen.npy_frame(
        {"op": "predict", "model": "baseline", "request_id": request_id},
        (pixels / 255.0).astype(np.float32),
    )

    def probe():
        connection = loadgen.FrameConnection(HOST, port)
        try:
            connection.send(frame)
            if not connection.wait_for(1, timeout=60.0):
                return None, f"no answer ({connection.error!r})"
            answer = json.loads(connection.answers[0][1])
        finally:
            connection.close()
        return answer, check_answer(answer, request_id, "baseline", expected)

    return probe


class _Traffic:
    """The open-loop request stream: per request its model and image key."""

    def __init__(self, rng: np.random.Generator, total: int) -> None:
        self.hot = {model: random_pixels(rng, HOT_SET) for model in SOCKET_VARIANTS}
        self.models: List[str] = []
        self.keys: List[Tuple[str, int]] = []  # ("hot", slot) or ("unique", index)
        unique = 0
        for index in range(total):
            self.models.append(SOCKET_VARIANTS[index % len(SOCKET_VARIANTS)])
            if rng.random() < HOT_SHARE:
                self.keys.append(("hot", int(rng.integers(HOT_SET))))
            else:
                self.keys.append(("unique", unique))
                unique += 1
        self.unique = random_pixels(rng, unique)

    def pixels(self, index: int) -> np.ndarray:
        kind, slot = self.keys[index]
        return self.hot[self.models[index]][slot] if kind == "hot" else self.unique[slot]


def socket_open_mixed(seed: int, seconds: int, trace: bool, run_dir: Path) -> Dict[str, object]:
    """Seeded Poisson arrivals at fixed rungs, then bursts, all to the last server."""

    rng = np.random.default_rng(seed)
    # The phases, in order: (rate, due offsets, first request, end).  A burst
    # has rate 0 and no offsets.
    phases: List[Tuple[int, Optional[List[float]], int, int]] = []
    total = 0
    for rate, share in RUNGS:
        offsets = loadgen.poisson_schedule(rate, share * seconds, rng).tolist()
        phases.append((rate, offsets, total, total + len(offsets)))
        total += len(offsets)
    for _burst in range(BURSTS):
        phases.append((0, None, total, total + BURST_SIZE))
        total += BURST_SIZE
    traffic = _Traffic(rng, total)
    probe_pixels = random_pixels(rng, SERVERS)
    classifiers = build_registry(run_dir / "registry", SOCKET_VARIANTS)

    expected: Dict[Tuple[str, str, int], np.ndarray] = {}
    for model in SOCKET_VARIANTS:
        keys = sorted({key for m, key in zip(traffic.models, traffic.keys) if m == model})
        stack = np.stack([traffic.hot[model][s] if k == "hot" else traffic.unique[s] for k, s in keys])
        # Frames carry float32 images, so the reference sees the same values.
        references = reference_probabilities(classifiers[model], (stack / 255.0).astype(np.float32))
        expected.update({(model, k, s): ref for (k, s), ref in zip(keys, references)})
    probe_expected = reference_probabilities(
        classifiers["baseline"], (probe_pixels / 255.0).astype(np.float32)
    )

    ids = [f"s{seed}-{index}" for index in range(total)]
    frames = [
        loadgen.npy_frame(
            {"op": "predict", "model": traffic.models[i], "request_id": ids[i]},
            (traffic.pixels(i) / 255.0).astype(np.float32),
        )
        for i in range(total)
    ]
    port = free_port()
    probes = [
        _socket_probe(port, f"probe-{k}", probe_pixels[k], probe_expected[k])
        for k in range(SERVERS)
    ]
    due_at = [0.0] * total
    sent_at = [0.0] * total

    def drive(server: int) -> List[Tuple[float, bytes]]:
        if server < SERVERS - 1:  # the earlier servers give set-up samples only
            return []
        connection = loadgen.FrameConnection(HOST, port)
        try:
            for _rate, offsets, start, stop in phases:
                if offsets is None:  # a burst: every frame is due at once
                    due_at[start:stop] = [time.perf_counter()] * (stop - start)
                    sent_at[start:stop] = [connection.send(frame) for frame in frames[start:stop]]
                else:
                    base = time.perf_counter() + 0.02
                    due_at[start:stop] = [base + offset for offset in offsets]
                    sent_at[start:stop] = loadgen.run_open_loop(
                        connection, due_at[start:stop], frames[start:stop]
                    )
                # Drain between phases: the next one starts on an empty server.
                connection.wait_for(stop, timeout=ANSWER_TIMEOUT_S)
        finally:
            connection.close()
        return connection.answers

    serve_args = [
        "--shards", ",".join(SOCKET_VARIANTS), "--mode", "process", "--port", str(port),
        "--registry-dir", str(run_dir / "registry"),
    ]
    outputs, servers = measure_on_servers(serve_args, probes, run_dir, trace, drive)

    arrivals: Dict[str, Tuple[float, Dict[str, object]]] = {}
    for answers in outputs:
        for arrived, payload in answers:
            answer = json.loads(payload)
            arrivals.setdefault(str(answer.get("request_id")), (arrived, answer))

    failures = servers["failures"]
    latency: List[Optional[float]] = [None] * total
    fronts: List[float] = []
    first_answer: Dict[Tuple[str, str, int], np.ndarray] = {}
    for i in range(total):
        key = (traffic.models[i],) + traffic.keys[i]
        if ids[i] not in arrivals:
            failures.append(f"{ids[i]}: no answer within {ANSWER_TIMEOUT_S:.0f}s of its phase")
            continue
        arrived, answer = arrivals[ids[i]]
        error = check_answer(answer, ids[i], traffic.models[i], expected[key])
        if error is None and key in first_answer:
            if not probabilities_match(np.asarray(answer["probabilities"]), first_answer[key]):
                error = "repeated image answered differently from its first occurrence"
        if error is not None:
            failures.append(f"{ids[i]}: {error}")
            continue
        first_answer.setdefault(key, np.asarray(answer["probabilities"]))
        latency[i] = loadgen.latency_from_due_ms([due_at[i]], [arrived])[0]
        fronts.append((arrived - sent_at[i]) * 1000.0 - float(answer["latency_ms"]))

    rung_rows, burst_s, rung_requests = [], [], []
    for rate, _offsets, start, stop in phases:
        ok = [latency[i] for i in range(start, stop) if latency[i] is not None]
        answered = [arrivals[ids[i]][0] for i in range(start, stop) if ids[i] in arrivals]
        last_answer = max(answered) if len(answered) == stop - start else None
        if not rate:
            if last_answer is not None:
                burst_s.append(last_answer - sent_at[start])
            continue
        rung_requests.extend(range(start, stop))
        rung_rows.append(
            {
                "rate": rate,
                "sent": stop - start,
                "correct": len(ok),
                "p50_ms": percentile(ok, 50.0),
                "p99_ms": percentile(ok, 99.0),
                "drain_s": last_answer - sent_at[stop - 1] if last_answer else None,
                "drained": loadgen.rung_drained(sent_at[stop - 1], last_answer),
                "lateness": loadgen.lateness_report(due_at[start:stop], sent_at[start:stop]),
            }
        )
    qualifying = [
        row["rate"]
        for row in rung_rows
        if row["drained"] and row["correct"] == row["sent"] and row["p99_ms"] <= LATENCY_LIMIT_MS
    ]
    reference = [rate for rate, _share in RUNGS].index(200)
    _rate, _offsets, reference_start, reference_stop = phases[reference]
    outcome = {
        "attempted": total + SERVERS,
        "failures": failures,
        "setup_s": servers["setups"],
        "wall_s": float(np.median(burst_s)) if burst_s else 0.0,
        "wall_n": len(burst_s),
        "wall_note": f"median over {BURSTS} bursts of {BURST_SIZE} frames, first send to last answer",
        "latency_ms": [
            latency[i] for i in range(reference_start, reference_stop) if latency[i] is not None
        ],
        "latency_blocks": SOCKET_BLOCKS,
        "peak_rss_mb": servers["peaks"][-1:],
        "extra": {
            "max_rate_rps": (float(max(qualifying, default=0)), "req/s", len(RUNGS)),
        },
        "rungs": rung_rows,
        "bursts_s": burst_s,
        "lateness": loadgen.lateness_report(
            [due_at[i] for i in rung_requests], [sent_at[i] for i in rung_requests]
        ),
        "repeat_share": repeat_share(list(zip(traffic.models, traffic.keys))),
        "layers": {"socket.front_ms": fronts},
    }
    if trace:
        outcome["layers"].update(server_layers(servers["traces"], SOCKET_VARIANTS))
        outcome["layers"].update(engine_layers(classifiers))
    return outcome


def repeat_share(keys: Sequence[object]) -> float:
    """Share of requests whose (model, image) was already sent earlier in the run."""

    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


# ----------------------------------------------------------------------
# Per-layer numbers from the traced servers and the engine probe
# ----------------------------------------------------------------------
def server_layers(traces: Sequence[Path], variants: Sequence[str]) -> Dict[str, object]:
    """Per-layer numbers from the traced servers' span files, all servers pooled.

    ``registry.get_s.<variant>`` is each server's first ``ModelRegistry.get``
    of the variant (the load that set-up pays; later calls hit the
    registry's memory), median over the servers.
    """

    first_gets: Dict[str, List[float]] = {name: [] for name in variants}
    spans: List[tracing.Span] = []
    shard_counters: List[Dict[str, object]] = []
    for path in traces:
        server_spans, counters = tracing.load(str(path))
        seen = set()
        for span in server_spans:
            if span[1] == "registry.get" and span[6] in first_gets and span[6] not in seen:
                seen.add(span[6])
                first_gets[span[6]].append(span[3] - span[2])
        # Span ids restart in every server process: shift them past the last.
        shift = max((span[0] for span in spans), default=0)
        spans.extend(
            (span[0] + shift, *span[1:4], span[4] + shift if span[4] else 0, *span[5:])
            for span in server_spans
        )
        shard_counters.extend(counters.values())
    shards: Dict[str, List[Dict[str, object]]] = {
        name: [shard for shard in shard_counters if name in shard["models"]]
        for name in variants
    }
    lookups = [span for span in spans if span[1] == "cache.get"]
    batch_sizes = [span[6] for span in spans if span[1] == "batching.run"]
    layers: Dict[str, object] = {
        "server.submit_ms": tracing.durations_ms(spans, "server.submit"),
        "cache.fingerprint_ms": tracing.durations_ms(spans, "cache.fingerprint"),
        "cache.get_ms": tracing.durations_ms(spans, "cache.get"),
        "cache.put_ms": tracing.durations_ms(spans, "cache.put"),
        "cache.lookups": float(len(lookups)),
        "cache.hit_ratio": sum(1 for span in lookups if span[6]) / len(lookups) if lookups else 0.0,
        "batching.queue_wait_ms": tracing.durations_ms(spans, "batching.queue_wait"),
        "batching.run_ms": tracing.durations_ms(spans, "batching.run"),
        "batching.batch_size": [float(size) for size in batch_sizes],
        "batching.batches": float(len(batch_sizes)),
        "engine.forward_ms.http": tracing.durations_ms(spans, "engine.forward"),
        "registry.snapshot_s": [ms / 1000.0 for ms in tracing.durations_ms(spans, "registry.snapshot")],
        "span_table": tracing.span_table(spans),
    }
    for name in variants:
        if first_gets[name]:
            layers[f"registry.get_s.{name}"] = float(np.median(first_gets[name]))
        layers[f"procshard.resolve_ms.{name}"] = tracing.durations_ms(
            spans, "procshard.resolve", tag=name
        )
        if shards[name]:
            batches = sum(shard["batches"] for shard in shards[name])
            layers[f"procshard.batch_size.{name}.mean"] = (
                sum(s["mean_batch_size"] * s["batches"] for s in shards[name]) / batches
                if batches
                else 0.0
            )
            layers[f"procshard.batches.{name}"] = float(batches)
            layers[f"procshard.restarts.{name}"] = float(sum(s["restarts"] for s in shards[name]))
            layers[f"shard.requests.{name}"] = float(sum(s["requests"] for s in shards[name]))
    return layers


#: Forward repetitions per batch size in the engine probe.
ENGINE_REPEATS = {1: 40, 32: 10}


def engine_layers(classifiers: Dict[str, object]) -> Dict[str, object]:
    """``InferenceEngine.forward`` on the registry's weights, in this process."""

    from repro.nn.inference import cached_engine

    tracer = tracing.Tracer()
    rng = np.random.default_rng(0)
    layers: Dict[str, object] = {}
    for name, classifier in classifiers.items():
        engine = cached_engine(classifier.model)
        tracer.spans.clear()
        tracer.wrap(engine, "forward", "engine.forward", tag=lambda _r, x: len(x))
        for batch, repeats in ENGINE_REPEATS.items():
            images = rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)
            engine.forward(images)  # workspace allocation is not part of the timing
            for _ in range(repeats):
                engine.forward(images)
            timings = tracing.durations_ms(tracer.spans, "engine.forward", tag=batch)[1:]
            layers[f"engine.forward_ms.{name}.b{batch}"] = float(np.median(timings))
        del engine.forward  # drop the instance wrapper again
    return layers
