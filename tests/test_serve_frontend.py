"""Tests for repro.serve.frontend: framing, socket round trips, drain."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import (
    BatchedServer,
    ModelRegistry,
    ShardedServer,
    SocketClient,
    SocketFrontend,
    synthetic_image_pool,
)
from repro.serve.frontend import (
    FRAME_JSON,
    FRAME_NPY,
    decode_payload,
    encode_json_frame,
    encode_npy_frame,
)

IMAGE_SIZE = 16


@pytest.fixture(scope="module")
def registry():
    registry = ModelRegistry(None, image_size=IMAGE_SIZE)
    for name in ("alpha", "beta"):
        registry.add(
            name,
            DefendedClassifier.build(DefenseConfig.baseline(), seed=0, image_size=IMAGE_SIZE),
            persist=False,
        )
    return registry


@pytest.fixture(scope="module")
def pool():
    return synthetic_image_pool(6, image_size=IMAGE_SIZE, seed=11)


# ----------------------------------------------------------------------
# Frame codec (no sockets)
# ----------------------------------------------------------------------
class TestFraming:
    def test_json_frame_round_trip(self):
        frame = encode_json_frame({"op": "ping", "n": 3})
        assert frame[0:1] == FRAME_JSON
        payload = frame[5:]
        assert decode_payload(FRAME_JSON, payload) == {"op": "ping", "n": 3}

    def test_npy_frame_round_trip_preserves_image_bits(self):
        image = np.random.default_rng(0).random((3, 4, 4))
        frame = encode_npy_frame({"op": "predict", "model": "m"}, image)
        assert frame[0:1] == FRAME_NPY
        message = decode_payload(FRAME_NPY, frame[5:])
        assert message["op"] == "predict" and message["model"] == "m"
        np.testing.assert_array_equal(message["image"], image)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_payload(b"X", b"{}")
        with pytest.raises(ValueError):
            decode_payload(FRAME_NPY, b"\x00")

    def test_decode_truncated_image_bytes_is_value_error(self):
        # np.load raises EOFError on an empty/truncated tail; the codec must
        # normalize that to ValueError so the server answers with an error
        # frame instead of killing the connection handler.
        meta = b'{"op": "predict"}'
        payload = len(meta).to_bytes(4, "big") + meta  # meta ok, no image bytes
        with pytest.raises(ValueError, match="bad npy image payload"):
            decode_payload(FRAME_NPY, payload)
        with pytest.raises(ValueError, match="bad npy image payload"):
            decode_payload(FRAME_NPY, payload + b"\x93NUMPY\x01\x00")  # cut mid-header


# ----------------------------------------------------------------------
# Socket round trips
# ----------------------------------------------------------------------
class TestSocketFrontend:
    def test_predict_json_and_binary_against_sharded_server(self, registry, pool):
        server = ShardedServer(registry, ["alpha", "beta"], mode="thread", cache_size=8)
        with server, SocketFrontend(server, port=0) as frontend:
            with SocketClient("127.0.0.1", frontend.port) as client:
                assert client.ping()
                assert client.models() == ["alpha", "beta"]
                binary = client.predict(pool[0], model="alpha", request_id="a-1", binary=True)
                assert binary["request_id"] == "a-1"
                assert binary["model"] == "alpha"
                assert binary["shard_id"].startswith("alpha/")
                assert len(binary["probabilities"]) == 18
                textual = client.predict(pool[0], model="beta", binary=False)
                assert textual["model"] == "beta"
                # Bit-identical repeat through the socket hits the shard cache.
                repeat = client.predict(pool[0], model="alpha", binary=True)
                assert repeat["cache_hit"] is True
                stats = client.stats()
                assert stats["requests"] == 3
                assert frontend.requests_served == 3

    def test_sync_mode_server_is_flushed_per_request(self, registry, pool):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with SocketFrontend(server, port=0) as frontend:
            with SocketClient("127.0.0.1", frontend.port) as client:
                response = client.predict(pool[1], model="alpha")
                assert response["model"] == "alpha"

    def test_models_op_reports_registry_for_unrestricted_server(self, registry, pool):
        # A standalone BatchedServer serves whatever the registry resolves;
        # discovery must not claim the fleet is empty.
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with SocketFrontend(server, port=0) as frontend:
            with SocketClient("127.0.0.1", frontend.port) as client:
                assert client.models() == ["alpha", "beta"]

    def test_unknown_model_is_an_error_frame_not_a_disconnect(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="thread")
        with server, SocketFrontend(server, port=0) as frontend:
            with SocketClient("127.0.0.1", frontend.port) as client:
                with pytest.raises(RuntimeError, match="unknown model"):
                    client.predict(pool[0], model="missing")
                # The connection survives a request-level error.
                assert client.ping()
                assert client.predict(pool[0], model="alpha")["model"] == "alpha"

    def test_malformed_predict_reports_error(self, registry):
        server = ShardedServer(registry, ["alpha"], mode="thread")
        with server, SocketFrontend(server, port=0) as frontend:
            with SocketClient("127.0.0.1", frontend.port) as client:
                reply = client._roundtrip(encode_json_frame({"op": "predict"}))
                assert "error" in reply
                reply = client._roundtrip(encode_json_frame({"op": "teleport"}))
                assert "unknown op" in reply["error"]

    def test_concurrent_clients(self, registry, pool):
        server = ShardedServer(registry, ["alpha", "beta"], replicas=2, mode="thread")
        results = []
        errors = []
        lock = threading.Lock()

        def worker(model, count, port):
            try:
                with SocketClient("127.0.0.1", port) as client:
                    for index in range(count):
                        reply = client.predict(pool[index % len(pool)], model=model)
                        with lock:
                            results.append(reply)
            except Exception as error:  # pragma: no cover - failure surface
                errors.append(error)

        with server, SocketFrontend(server, port=0) as frontend:
            threads = [
                threading.Thread(target=worker, args=(model, 5, frontend.port))
                for model in ("alpha", "beta", "alpha")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == 15
        assert {reply["model"] for reply in results} == {"alpha", "beta"}

    def test_stop_drains_inflight_request(self, registry, pool):
        # A forward held on an event keeps the request in flight; stopping
        # the front-end must still stream the response back first.
        server = ShardedServer(registry, ["alpha"], mode="thread", max_batch_size=64)
        replica = server.shard("alpha")[0].server
        entered, release = threading.Event(), threading.Event()
        forward = replica._forward

        def held_forward(model_name, images):
            entered.set()
            assert release.wait(10.0)
            return forward(model_name, images)

        replica._forward = held_forward
        with server:
            frontend = SocketFrontend(server, port=0).start()
            client = SocketClient("127.0.0.1", frontend.port)
            try:
                frame_meta = {"op": "predict", "model": "alpha", "request_id": "drain-1"}
                client._socket.sendall(encode_npy_frame(frame_meta, pool[0]))
                assert entered.wait(5.0)  # the request is in its forward
                stopper = threading.Thread(target=frontend.stop)
                stopper.start()
                deadline = time.perf_counter() + 5.0
                while not frontend._draining and time.perf_counter() < deadline:
                    time.sleep(0.005)  # let the drain begin, then finish the forward
                release.set()
                from repro.serve.frontend import _HEADER

                kind, length = _HEADER.unpack(client._recv_exactly(_HEADER.size))
                reply = decode_payload(kind, client._recv_exactly(length))
                stopper.join(timeout=10.0)
                assert reply["request_id"] == "drain-1"
                assert reply["model"] == "alpha"
            finally:
                client.close()

    def test_client_raises_connection_error_when_frontend_stops(self, registry, pool):
        # The front-end going away must surface as a clear ConnectionError
        # on the blocking client -- never a bare struct/EOF error from a
        # half-read frame.
        server = ShardedServer(registry, ["alpha"], mode="thread")
        with server:
            frontend = SocketFrontend(server, port=0).start()
            client = SocketClient("127.0.0.1", frontend.port)
            try:
                assert client.ping()
                frontend.stop()
                with pytest.raises(ConnectionError):
                    client.predict(pool[0], model="alpha")
            finally:
                client.close()

    def test_recv_exactly_reports_mid_frame_close(self, registry):
        # A server that dies after half a frame: the partial read must name
        # the mid-frame condition, not raise struct.error downstream.
        listener = __import__("socket").socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def half_frame_server():
            connection, _ = listener.accept()
            connection.recv(1024)  # swallow the request
            connection.sendall(b"J\x00\x00")  # 3 of 5 header bytes
            connection.close()

        import threading as _threading

        thread = _threading.Thread(target=half_frame_server, daemon=True)
        thread.start()
        client = SocketClient("127.0.0.1", port, timeout=5.0)
        try:
            with pytest.raises(ConnectionError, match="mid-frame"):
                client.ping()
        finally:
            client.close()
            thread.join(timeout=5.0)
            listener.close()

    def test_port_zero_binds_ephemeral_port(self, registry):
        server = ShardedServer(registry, ["alpha"], mode="thread")
        with server:
            frontend = SocketFrontend(server, port=0)
            assert frontend.start() is frontend
            try:
                assert frontend.port > 0
            finally:
                frontend.stop()
