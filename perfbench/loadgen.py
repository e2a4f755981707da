"""Load generation: seeded arrival schedules and the two wire clients.

The generator speaks both wire protocols itself (length-prefixed frames
and HTTP/1.1) instead of importing the program's clients, so a refactor of
``repro.serve`` cannot change what a workload sends or how it is timed.
Every request body is encoded before its window opens; inside a window the
generator only writes bytes, reads bytes and takes timestamps.
"""

from __future__ import annotations

import io
import itertools
import json
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from stats import percentile

_HEADER = struct.Struct(">cI")
_META_LEN = struct.Struct(">I")

#: A rung has no growing backlog when its last answer arrives within this
#: many seconds of its last send.
DRAIN_LIMIT_S = 1.0

#: A run whose generator sent its requests later than this (p99, ms) is
#: flagged invalid: its due times no longer describe what the server saw.
LATENESS_P99_LIMIT_MS = 10.0


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s) of a Poisson process at ``rate``/s within ``duration`` s."""

    expected = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < duration:  # astronomically rare: extend the draw
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=expected))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def rung_drained(last_send: float, last_answer: Optional[float]) -> bool:
    """Whether a rung's backlog cleared within DRAIN_LIMIT_S of its last send."""

    return last_answer is not None and last_answer - last_send <= DRAIN_LIMIT_S


def latency_from_due_ms(due: Sequence[float], arrived: Sequence[float]) -> List[float]:
    """Open-loop latency: answer arrival minus the time the request was due (ms).

    Counting from the due time, not from the actual send, charges a stall
    in the generator or the connection to every request it held up.
    """

    return [(a - d) * 1000.0 for d, a in zip(due, arrived)]


def lateness_report(due: Sequence[float], sent: Sequence[float]) -> Dict[str, float]:
    """Generator lateness (send minus due, ms) as p50/p99 plus the validity flag."""

    late = [(s - d) * 1000.0 for d, s in zip(due, sent)]
    p99 = percentile(late, 99.0)
    return {
        "p50_ms": percentile(late, 50.0),
        "p99_ms": p99,
        "n": len(late),
        "valid": bool(late) and p99 <= LATENESS_P99_LIMIT_MS,
    }


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------
def npy_frame(meta: Dict[str, object], image: np.ndarray) -> bytes:
    """One ``N`` frame: JSON meta plus raw ``.npy`` image bytes."""

    buffer = io.BytesIO()
    np.save(buffer, image, allow_pickle=False)
    meta_body = json.dumps(meta).encode("utf-8")
    body = _META_LEN.pack(len(meta_body)) + meta_body + buffer.getvalue()
    return _HEADER.pack(b"N", len(body)) + body


def _read_exactly(stream, count: int) -> bytes:
    data = stream.read(count)
    if data is None or len(data) < count:
        raise ConnectionError("server closed the connection")
    return data


class FrameConnection:
    """One frame-protocol connection with a sender and a receiving thread.

    Answers are kept as raw ``(arrival time, payload)`` pairs and decoded
    after the window, so the receiving thread does no JSON work while the
    server is being measured.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.answers: List[Tuple[float, bytes]] = []
        self.error: Optional[BaseException] = None
        self._arrived = threading.Condition()
        self._reader = threading.Thread(target=self._receive, daemon=True)
        self._reader.start()

    def _receive(self) -> None:
        stream = self.sock.makefile("rb")
        try:
            while True:
                kind, length = _HEADER.unpack(_read_exactly(stream, _HEADER.size))
                payload = _read_exactly(stream, length)
                with self._arrived:
                    self.answers.append((time.perf_counter(), payload))
                    self._arrived.notify_all()
        except (ConnectionError, OSError, struct.error) as error:
            with self._arrived:
                self.error = error
                self._arrived.notify_all()

    def send(self, frame: bytes) -> float:
        """Write one frame; returns the time the write completed."""

        self.sock.sendall(frame)
        return time.perf_counter()

    def wait_for(self, count: int, timeout: float) -> bool:
        """Block until ``count`` answers arrived in total (or timeout/error)."""

        deadline = time.perf_counter() + timeout
        with self._arrived:
            while len(self.answers) < count and self.error is None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._arrived.wait(remaining)
            return len(self.answers) >= count

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10.0)


def run_open_loop(
    connection: FrameConnection, due: Sequence[float], frames: Sequence[bytes]
) -> List[float]:
    """Send ``frames[i]`` at absolute ``due[i]`` (perf_counter clock); returns send times."""

    sent: List[float] = []
    for due_at, frame in zip(due, frames):
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent.append(connection.send(frame))
    return sent


# ----------------------------------------------------------------------
# HTTP/1.1
# ----------------------------------------------------------------------
def http_predict_request(host: str, port: int, body: bytes) -> bytes:
    """A keep-alive ``POST /v1/predict`` with a JSON body, as raw bytes."""

    head = (
        f"POST /v1/predict HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("ascii")
    return head + body


def _read_http_response(stream) -> Tuple[int, bytes]:
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, _read_exactly(stream, length)


class HttpResult:
    """Timing and raw answer of one closed-loop HTTP request."""

    __slots__ = ("index", "sent", "received", "status", "body", "error")

    def __init__(self, index: int) -> None:
        self.index = index
        self.sent = self.received = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None


def run_closed_loop_http(
    host: str, port: int, requests: Sequence[bytes], callers: int, timeout: float = 30.0
) -> List[HttpResult]:
    """``callers`` keep-alive connections, each sending its next request on an answer.

    Requests are handed out in order from a shared counter, so every
    request is sent exactly once and no caller idles while work remains.
    """

    counter = itertools.count()
    results: List[HttpResult] = [HttpResult(index) for index in range(len(requests))]
    failures: List[BaseException] = []

    def caller() -> None:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            failures.append(error)
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = sock.makefile("rb")
        try:
            while True:
                index = next(counter)
                if index >= len(requests):
                    return
                result = results[index]
                result.sent = time.perf_counter()
                try:
                    sock.sendall(requests[index])
                    result.status, result.body = _read_http_response(stream)
                except (OSError, ConnectionError, ValueError, IndexError) as error:
                    result.error = repr(error)
                    return  # this connection is unusable; other callers take the rest
                result.received = time.perf_counter()
        finally:
            stream.close()
            sock.close()

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if result.error is None and result.received == 0.0:
            result.error = "not sent: every connection failed" if failures else "not sent"
    return results
