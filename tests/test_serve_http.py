"""Conformance tests for the HTTP/JSON gateway (repro.serve.http).

The gateway is the wire boundary browsers reach, so beyond happy-path
round trips these tests pin the error mapping (400/404/405/413), the
keep-alive and pipelining semantics, drain-aware liveness, and that
malformed or abandoned connections never wedge the accept loop.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.serve import (
    BatchedServer,
    HttpClient,
    HttpFrontend,
    ModelRegistry,
    ShardedServer,
    synthetic_image_pool,
)
from repro.serve.http import npy_bytes

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
    return synthetic_image_pool(6, image_size=IMAGE_SIZE, seed=13)


def _json_predict_body(image, model="alpha", **extra) -> bytes:
    payload = {"model": model, "image": np.asarray(image).tolist()}
    payload.update(extra)
    return json.dumps(payload).encode("utf-8")


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------
class TestPredict:
    def test_all_three_encodings_against_sharded_server(self, registry, pool):
        server = ShardedServer(registry, ["alpha", "beta"], mode="thread", cache_size=8)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                binary = client.predict(pool[0], model="alpha", request_id="a-1")
                assert binary["request_id"] == "a-1"
                assert binary["model"] == "alpha"
                assert binary["shard_id"].startswith("alpha/")
                assert len(binary["probabilities"]) == 18
                textual = client.predict(pool[0], model="beta", encoding="list")
                assert textual["model"] == "beta"
                b64 = client.predict(pool[1], model="beta", encoding="b64")
                assert b64["model"] == "beta"
                # Bit-identical repeat through HTTP hits the shard cache.
                repeat = client.predict(pool[0], model="alpha")
                assert repeat["cache_hit"] is True
                assert client.models() == ["alpha", "beta"]
                assert gateway.requests_served == 4

    def test_json_and_npy_agree_bitwise(self, registry, pool):
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                by_npy = client.predict(pool[2], model="alpha", encoding="npy")
                by_list = client.predict(pool[2], model="alpha", encoding="list")
                assert by_npy["class_index"] == by_list["class_index"]
                np.testing.assert_allclose(
                    by_npy["probabilities"], by_list["probabilities"], atol=1e-12
                )

    def test_sync_mode_server_is_flushed_per_request(self, registry, pool):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.predict(pool[1], model="alpha")["model"] == "alpha"

    def test_models_reports_registry_for_unrestricted_server(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.models() == ["alpha", "beta"]


class TestHealthAndMetrics:
    def test_healthz_ok_while_serving_and_503_while_draining(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.healthz()
                assert status == 200
                assert body == {"status": "ok", "draining": False}
                # Drain flag flips the liveness answer (stop() sets it before
                # waiting out in-flight work; poking it directly pins the
                # mapping without a shutdown race).
                gateway._draining = True
                status, body = client.healthz()
                assert status == 503
                assert body["draining"] is True
                gateway._draining = False

    def test_metrics_reports_live_serving_state(self, registry, pool):
        server = ShardedServer(
            registry, ["alpha", "beta"], mode="thread", cache_size=8, autotune=True
        )
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                for index in range(3):
                    client.predict(pool[index % 2], model="alpha")
                client.predict(pool[0], model="beta")
                metrics = client.metrics()
                assert metrics["mode"] == "thread"
                assert metrics["models"] == ["alpha", "beta"]
                stats = metrics["stats"]
                assert stats["per_model_requests"] == {"alpha": 3, "beta": 1}
                assert sum(stats["batch_size_histogram"].values()) == stats["batches"]
                assert metrics["http_requests_served"] == 4
                shard = metrics["shards"]["alpha/0"]
                assert shard["cache"]["policy"] == "lru"
                assert 0.0 <= shard["cache"]["hit_rate"] <= 1.0
                # Autotuned replicas expose the controller's current rung.
                assert shard["autotune"]["batch_size"] >= 1
                assert "best_rung" in shard["autotune"]

    def test_metrics_on_single_queue_includes_cache_hit_rate(self, registry, pool):
        server = BatchedServer(registry, mode="thread", cache_size=8)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                client.predict(pool[0], model="alpha")
                client.predict(pool[0], model="alpha")
                metrics = client.metrics()
                assert metrics["stats"]["cache_hits"] == 1
                assert metrics["cache"]["hits"] == 1
                assert metrics["autotune"] is None


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
class TestErrorMapping:
    def test_unknown_model_is_404_with_json_error_body(self, registry, pool):
        server = ShardedServer(registry, ["alpha"], mode="thread")
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.request_json(
                    "POST", "/v1/predict", body=_json_predict_body(pool[0], model="nope")
                )
                assert status == 404
                assert "unknown model" in body["error"]
                # The connection survives a request-level error.
                assert client.predict(pool[0], model="alpha")["model"] == "alpha"

    def test_unknown_model_is_404_on_unrestricted_server_too(self, registry, pool):
        # An unpinned BatchedServer used to accept any name and fail the
        # batch later (surfacing as 503); submit-time validation must map
        # it to the documented 404 and keep per-model stats clean.
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.request_json(
                    "POST", "/v1/predict", body=_json_predict_body(pool[0], model="nope")
                )
                assert status == 404
                assert "unknown model" in body["error"]
                assert client.predict(pool[0], model="alpha")["model"] == "alpha"
                metrics = client.metrics()
                assert "nope" not in metrics["stats"]["per_model_requests"]
                assert metrics["stats"]["rejected"] == 1

    def test_blank_model_query_value_is_404_not_silent_default(self, registry, pool):
        # "?model=" must be treated as an (unknown) empty selection, never
        # silently routed to the default model.
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.request_json(
                    "POST",
                    "/v1/predict?model=",
                    body=npy_bytes(pool[0]),
                    content_type="application/x-npy",
                )
                assert status == 404
                assert "unknown model" in body["error"]

    def test_bad_base64_and_bad_npy_are_400(self, registry, pool):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.request_json(
                    "POST",
                    "/v1/predict",
                    body=json.dumps({"model": "alpha", "image": "!!!not-base64"}).encode(),
                )
                assert status == 400 and "base64" in body["error"]
                status, body = client.request_json(
                    "POST",
                    "/v1/predict?model=alpha",
                    body=b"\x93NUMPY\x01\x00 truncated",
                    content_type="application/x-npy",
                )
                assert status == 400 and "npy" in body["error"]

    def test_wrong_shape_and_ragged_lists_are_400(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.request_json(
                    "POST",
                    "/v1/predict",
                    body=json.dumps({"model": "alpha", "image": [[0.0, 1.0]]}).encode(),
                )
                assert status == 400 and "(C, H, W)" in body["error"]
                status, body = client.request_json(
                    "POST",
                    "/v1/predict",
                    body=json.dumps({"model": "alpha", "image": [[0.0], [0.0, 1.0]]}).encode(),
                )
                assert status == 400

    def test_missing_image_and_bad_json_are_400(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, body = client.request_json(
                    "POST", "/v1/predict", body=json.dumps({"model": "alpha"}).encode()
                )
                assert status == 400 and "image" in body["error"]
                status, body = client.request_json("POST", "/v1/predict", body=b"{nope")
                assert status == 400
                status, body = client.request_json("POST", "/v1/predict", body=b"[1, 2]")
                assert status == 400 and "object" in body["error"]

    def test_wrong_method_is_405_with_allow_header(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, headers, _ = client.request("GET", "/v1/predict")
                assert status == 405
                assert headers["allow"] == "POST"
                status, headers, _ = client.request(
                    "POST", "/v1/models", body=b"{}"
                )
                assert status == 405
                assert headers["allow"] == "GET"

    def test_unknown_path_is_404(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.request_json("GET", "/v2/predict")[0] == 404
                assert client.request_json("GET", "/")[0] == 404

    def test_oversized_body_is_413_and_closes(self, registry, pool):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0, max_body_bytes=1024) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, headers, raw = client.request(
                    "POST", "/v1/predict", body=b"x" * 2048
                )
                assert status == 413
                assert headers["connection"] == "close"
                assert "limit" in json.loads(raw)["error"]
            # A fresh connection still serves (mirror of _MAX_PAYLOAD: the
            # bound is per request, not a poisoned listener).
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.healthz()[0] == 200

    def test_content_length_announcing_too_much_is_413_without_reading(self, registry):
        # The client only sends headers claiming a huge body; the gateway
        # must answer from the announcement instead of waiting for bytes.
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0, max_body_bytes=1024) as gateway:
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=5) as raw:
                raw.sendall(
                    b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 999999999\r\n\r\n"
                )
                reply = raw.recv(4096)
                assert b"413" in reply.split(b"\r\n", 1)[0]

    def test_post_without_content_length_is_400(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=5) as raw:
                raw.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = raw.recv(4096)
                assert b"400" in reply.split(b"\r\n", 1)[0]


# ----------------------------------------------------------------------
# Connection behavior
# ----------------------------------------------------------------------
class TestConnections:
    def test_keep_alive_reuses_one_connection_for_many_requests(self, registry, pool):
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                for index in range(5):
                    reply = client.predict(pool[index % len(pool)], model="alpha")
                    assert reply["model"] == "alpha"
                status, headers, _ = client.request("GET", "/healthz")
                assert status == 200
                assert headers["connection"] == "keep-alive"
                # 6 requests answered over the single socket this client holds.
                assert gateway.requests_served == 5

    def test_connection_close_is_honored(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            client = HttpClient("127.0.0.1", gateway.port)
            try:
                status, headers, _ = client.request(
                    "GET", "/healthz", headers={"Connection": "close"}
                )
                assert status == 200
                assert headers["connection"] == "close"
                with pytest.raises(ConnectionError):
                    client.request("GET", "/healthz")
            finally:
                client.close()

    def test_pipelined_requests_are_answered_in_order(self, registry, pool):
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            client = HttpClient("127.0.0.1", gateway.port)
            try:
                body_a = npy_bytes(pool[0])
                body_b = _json_predict_body(pool[1], model="alpha", request_id="p-2")
                pipelined = (
                    b"POST /v1/predict?model=alpha&request_id=p-1 HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/x-npy\r\n"
                    + f"Content-Length: {len(body_a)}\r\n\r\n".encode()
                    + body_a
                    + b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body_b)}\r\n\r\n".encode()
                    + body_b
                )
                client._socket.sendall(pipelined)
                first = client._read_response()
                second = client._read_response()
                assert json.loads(first[2])["request_id"] == "p-1"
                assert json.loads(second[2])["request_id"] == "p-2"
            finally:
                client.close()

    def test_partial_header_then_disconnect_does_not_wedge_accept_loop(
        self, registry, pool
    ):
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            victim = socket.create_connection(("127.0.0.1", gateway.port), timeout=5)
            victim.sendall(b"GET /heal")  # never finishes the head
            victim.close()
            partial_body = socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=5
            )
            partial_body.sendall(
                b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\nhalf"
            )
            partial_body.close()
            # New clients still get served after both abandonments.
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.healthz()[0] == 200
                assert client.predict(pool[0], model="alpha")["model"] == "alpha"

    def test_malformed_request_line_is_400(self, registry):
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0) as gateway:
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=5) as raw:
                raw.sendall(b"NOT-HTTP\r\n\r\n")
                reply = raw.recv(4096)
                assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_concurrent_clients(self, registry, pool):
        server = ShardedServer(registry, ["alpha", "beta"], replicas=2, mode="thread")
        results, errors = [], []
        lock = threading.Lock()

        def worker(model, count, port):
            try:
                with HttpClient("127.0.0.1", port) as client:
                    for index in range(count):
                        reply = client.predict(pool[index % len(pool)], model=model)
                        with lock:
                            results.append(reply)
            except Exception as error:  # pragma: no cover - failure surface
                errors.append(error)

        with server, HttpFrontend(server, port=0) as gateway:
            threads = [
                threading.Thread(target=worker, args=(model, 5, gateway.port))
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
        # the gateway must still stream the response back first.
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
            gateway = HttpFrontend(server, port=0).start()
            client = HttpClient("127.0.0.1", gateway.port)
            try:
                body = npy_bytes(pool[0])
                client._socket.sendall(
                    b"POST /v1/predict?model=alpha&request_id=drain-1 HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/x-npy\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                import time as _time

                assert entered.wait(5.0)  # the request is in its forward
                stopper = threading.Thread(target=gateway.stop)
                stopper.start()
                deadline = _time.perf_counter() + 5.0
                while not gateway._draining and _time.perf_counter() < deadline:
                    _time.sleep(0.005)  # let the drain begin, then finish the forward
                release.set()
                status, headers, raw = client._read_response()
                stopper.join(timeout=10.0)
                assert status == 200
                reply = json.loads(raw)
                assert reply["request_id"] == "drain-1"
                assert headers["connection"] == "close"  # drain stamps close
            finally:
                client.close()

    def test_port_zero_binds_ephemeral_port(self, registry):
        server = ShardedServer(registry, ["alpha"], mode="thread")
        with server:
            gateway = HttpFrontend(server, port=0)
            assert gateway.start() is gateway
            try:
                assert gateway.port > 0
            finally:
                gateway.stop()

    def test_alive_tracks_the_event_loop_thread(self, registry):
        # The CLI's dual-frontend loop exits when any front-end dies; that
        # check rides this property.
        server = BatchedServer(registry, mode="sync", cache_size=0)
        gateway = HttpFrontend(server, port=0)
        assert gateway.alive is False
        gateway.start()
        try:
            assert gateway.alive is True
        finally:
            gateway.stop()
        assert gateway.alive is False

    def test_stop_is_safe_after_the_event_loop_died(self, registry):
        # The CLI's cleanup calls stop() on the front-end it just detected
        # as dead; that must be a quiet no-op, not a RuntimeError that
        # aborts draining the surviving front-ends.
        import time as _time

        server = BatchedServer(registry, mode="sync", cache_size=0)
        gateway = HttpFrontend(server, port=0).start()
        gateway._loop.call_soon_threadsafe(gateway._loop.stop)
        deadline = _time.perf_counter() + 5.0
        while gateway.alive and _time.perf_counter() < deadline:
            _time.sleep(0.01)
        assert gateway.alive is False
        gateway.stop()  # must not raise
        # And a full restart still works after the crash cleanup.
        gateway.start()
        try:
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.healthz()[0] == 200
        finally:
            gateway.stop()

    def test_oversized_upload_surfaces_413_despite_reset_send(self, registry):
        # A body too large for the socket buffers: the gateway answers 413
        # from the Content-Length announcement and closes with the body
        # unread; the client must deliver that 413, not a ConnectionError
        # from its interrupted sendall.
        server = BatchedServer(registry, mode="sync", cache_size=0)
        with HttpFrontend(server, port=0, max_body_bytes=1024) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                status, _, raw = client.request(
                    "POST", "/v1/predict", body=b"\0" * (8 * 1024 * 1024)
                )
                assert status == 413
                assert "limit" in json.loads(raw)["error"]

    def test_failed_bind_raises_and_a_retry_works(self, registry):
        # A failed start must not poison the ready flag: the retry after
        # the port frees up has to bind (and report the real port), not
        # return early against a stale event.
        server = BatchedServer(registry, mode="sync", cache_size=0)
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken_port = blocker.getsockname()[1]
        gateway = HttpFrontend(server, port=taken_port)
        try:
            with pytest.raises(OSError):
                gateway.start()
            blocker.close()
            gateway.start()
            with HttpClient("127.0.0.1", gateway.port) as client:
                assert client.healthz()[0] == 200
        finally:
            blocker.close()
            gateway.stop()

    def test_request_id_with_reserved_characters_round_trips(self, registry, pool):
        # The npy path ships ids in the query string; percent-encoding must
        # keep spaces/&/# (and non-ASCII) intact end to end.
        server = BatchedServer(registry, mode="thread", cache_size=0)
        with server, HttpFrontend(server, port=0) as gateway:
            with HttpClient("127.0.0.1", gateway.port) as client:
                for request_id in ("run 1", "a&b=c", "id#7", "modèle-1"):
                    reply = client.predict(
                        pool[0], model="alpha", request_id=request_id, encoding="npy"
                    )
                    assert reply["request_id"] == request_id
