"""Self-tests of the load generator and the percentile rules.

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own test run (``testpaths`` in ``pyproject.toml``) does not
collect this directory.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

import loadgen
import serving
from stats import block_percentiles, summarize, supported_tail


def test_poisson_schedule_reproduces_from_its_seed():
    first = loadgen.poisson_schedule(200, 5.0, np.random.default_rng(7))
    again = loadgen.poisson_schedule(200, 5.0, np.random.default_rng(7))
    other = loadgen.poisson_schedule(200, 5.0, np.random.default_rng(8))
    np.testing.assert_array_equal(first, again)
    assert len(first) != len(other) or not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0) and first[0] >= 0 and first[-1] < 5.0
    assert 900 < len(first) < 1100  # 1000 expected, Poisson sd ~32


def test_socket_traffic_reproduces_from_its_seed():
    first = serving._Traffic(np.random.default_rng(3), 300)
    again = serving._Traffic(np.random.default_rng(3), 300)
    assert first.keys == again.keys and first.models == again.models
    np.testing.assert_array_equal(first.unique, again.unique)
    hot_share = sum(kind == "hot" for kind, _slot in first.keys) / 300
    assert 0.15 < hot_share < 0.35


class _StallingConnection:
    """A connection whose first write blocks, as a stalled socket would."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.writes = 0

    def send(self, frame: bytes) -> float:
        self.writes += 1
        if self.writes == 1:
            time.sleep(self.stall)
        return time.perf_counter()


def test_open_loop_latency_counts_from_the_due_time():
    base = time.perf_counter() + 0.01
    due = [base + 0.01 * index for index in range(5)]
    sent = loadgen.run_open_loop(_StallingConnection(0.1), due, [b"x"] * 5)
    # Answers arrive the moment a request is written.
    latency = loadgen.latency_from_due_ms(due, sent)
    assert latency[1] >= 90.0  # due 10 ms in, held up behind the 100 ms stall
    assert latency[4] >= 60.0  # later requests still pay for the stall
    report = loadgen.lateness_report(due, sent)
    assert report["p99_ms"] >= 90.0 and report["n"] == 5
    assert report["valid"] is False


def test_lateness_is_reported_as_p50_and_p99_against_a_fixed_bound():
    due = [float(index) for index in range(200)]
    on_time = loadgen.lateness_report(due, [d + 0.0005 for d in due])
    assert on_time["valid"] is True
    assert on_time["p50_ms"] == pytest.approx(0.5) and on_time["p99_ms"] == pytest.approx(0.5)
    late = [d + (0.05 if index % 10 == 0 else 0.0) for index, d in enumerate(due)]
    report = loadgen.lateness_report(due, late)
    assert report["p50_ms"] == pytest.approx(0.0)
    assert report["p99_ms"] > loadgen.LATENESS_P99_LIMIT_MS and report["valid"] is False


def test_rung_drain_and_backlog_are_detected():
    assert loadgen.rung_drained(last_send=10.0, last_answer=10.4)
    assert loadgen.rung_drained(last_send=10.0, last_answer=10.0 + loadgen.DRAIN_LIMIT_S)
    assert not loadgen.rung_drained(last_send=10.0, last_answer=12.5)  # backlog grew
    assert not loadgen.rung_drained(last_send=10.0, last_answer=None)  # never drained


def test_timings_report_the_highest_supported_percentile_with_its_count():
    assert supported_tail(1000) == 99.0
    assert supported_tail(999) == 98.0
    assert supported_tail(100) == 90.0
    assert supported_tail(20) == 50.0
    assert supported_tail(19) == 0.0
    summary = summarize([float(value) for value in range(1, 1001)])
    assert summary["n"] == 1000 and summary["tail_pct"] == 99.0
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["p99"] == pytest.approx(990.01)
    assert summarize([1.0] * 999)["tail_pct"] == 98.0


def test_block_medians_keep_out_a_disturbance_of_fewer_than_half_the_blocks():
    quiet = [float(value % 100) for value in range(900)]  # 0..99 in each block of 100
    disturbed = [value + 50.0 if index < 400 else value for index, value in enumerate(quiet)]
    assert block_percentiles(disturbed, 9) == block_percentiles(quiet, 9)
    assert block_percentiles(quiet, 9)["p95"] == pytest.approx(94.05)
    pooled = block_percentiles(disturbed, 1)  # one block: the plain percentiles
    assert pooled["p95"] == pytest.approx(summarize(disturbed)["p95"]) and pooled["p95"] > 130.0
    assert np.isnan(block_percentiles([], 9)["p50"])


def _frame_server(listener: socket.socket, delay: float) -> None:
    """Answer each ``N`` frame, in order, with a JSON frame echoing its meta."""

    connection, _address = listener.accept()
    stream = connection.makefile("rb")
    with connection:
        while True:
            header = stream.read(5)
            if len(header) < 5:
                return
            _kind, length = struct.unpack(">cI", header)
            payload = stream.read(length)
            (meta_length,) = struct.unpack(">I", payload[:4])
            meta = json.loads(payload[4 : 4 + meta_length])
            time.sleep(delay)
            body = json.dumps({"request_id": meta["request_id"]}).encode()
            connection.sendall(struct.pack(">cI", b"J", len(body)) + body)


def test_frame_connection_streams_answers_back():
    listener = socket.create_server(("127.0.0.1", 0))
    server = threading.Thread(target=_frame_server, args=(listener, 0.002), daemon=True)
    server.start()
    connection = loadgen.FrameConnection("127.0.0.1", listener.getsockname()[1])
    try:
        image = np.zeros((3, 4, 4), dtype=np.float32)
        frames = [loadgen.npy_frame({"request_id": f"r{i}"}, image) for i in range(20)]
        base = time.perf_counter() + 0.01
        due = [base + 0.001 * index for index in range(20)]
        sent = loadgen.run_open_loop(connection, due, frames)
        assert connection.wait_for(20, timeout=10.0)
    finally:
        connection.close()
        listener.close()
        server.join(timeout=10.0)
    assert not server.is_alive()
    ids = [json.loads(payload)["request_id"] for _t, payload in connection.answers]
    assert ids == [f"r{i}" for i in range(20)]
    arrived = [arrival for arrival, _payload in connection.answers]
    assert all(a >= s for a, s in zip(arrived, sent))


def test_json_image_matches_json_dumps():
    pixels = serving.random_pixels(np.random.default_rng(0), 1)[0]
    assert serving.json_image(pixels) == json.dumps((pixels / 255.0).tolist()).replace(" ", "")

