"""End-to-end tests for the estimation server (repro.serve.server).

Each test boots a real server on a loopback port (port 0 -> ephemeral) and
talks to it over actual HTTP via :class:`ServeClient` — the same transport
the CI smoke job and the serving benchmark use.
"""

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro.catalog.service import EstimationService, ServiceRequest
from repro.catalog.sharded import ShardedSketchStore
from repro.matrix.random import random_sparse
from repro.serve import EstimationServer, MatrixRegistry, ServeClient, start_server_thread
from repro.serve.client import ServeClientError


@pytest.fixture()
def server():
    service = EstimationService(store=ShardedSketchStore(num_shards=4))
    handle = start_server_thread(EstimationServer(service=service, port=0))
    client = ServeClient(handle.host, handle.port)
    try:
        yield client, handle.server
    finally:
        client.close()
        handle.stop()


def _matrices():
    x = random_sparse(50, 40, 0.1, seed=11)
    w = random_sparse(40, 30, 0.15, seed=12)
    return x, w


MATMUL_XW = {"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "W"}]}


class TestEndpoints:
    def test_healthz(self, server):
        client, _ = server
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_register_and_estimate(self, server):
        client, _ = server
        x, w = _matrices()
        reply = client.register("X", x)
        assert reply["nnz"] == x.nnz and reply["shape"] == [50, 40]
        client.register("W", w)
        result = client.estimate(MATMUL_XW)
        assert result["cached"] is False
        assert result["nnz"] > 0
        warm = client.estimate(MATMUL_XW)
        assert warm["cached"] is True
        assert warm["nnz"] == result["nnz"]
        assert warm["fingerprint"] == result["fingerprint"]

    def test_estimate_with_intermediates(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        result = client.estimate(MATMUL_XW, include_intermediates=True)
        assert len(result["intermediates"]) == 3  # two leaves + root

    def test_batch(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        results = client.estimate_batch([MATMUL_XW, {"ref": "X"}, MATMUL_XW])
        assert len(results) == 3
        assert results[1]["nnz"] == float(x.nnz)
        assert results[0]["nnz"] == results[2]["nnz"]

    def test_chain(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        reply = client.optimize_chain(["X", "W"], seed=3)
        assert reply["plan"] == [0, 1]
        assert reply["cost"] > 0
        assert reply["names"] == ["X", "W"]

    def test_stats(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        client.estimate({"ref": "X"})
        stats = client.stats()
        assert [m["name"] for m in stats["matrices"]] == ["X"]
        assert stats["catalog"]["service"]["requests"] >= 1
        assert stats["store_shards"] == 4

    def test_metrics_scrape(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        client.estimate({"ref": "X"})
        text = client.metrics_text()
        assert "repro_serve_requests_estimate_total" in text
        assert "repro_serve_latency_seconds_estimate_bucket" in text
        assert "repro_serve_requests_matrices_total" in text


class TestShardMergedIngest:
    def test_row_partitioned_registration(self, server):
        client, srv = server
        _, w = _matrices()
        reply = client.register_partitioned("W", [w[:25], w[25:]], axis=0)
        assert reply["merged"] is True and reply["shards"] == 2
        assert reply["shape"] == [40, 30]
        assert reply["nnz"] == w.nnz
        # The reassembled matrix matches the original structurally.
        stored = srv.registry.matrix("W")
        np.testing.assert_array_equal(
            (stored.toarray() != 0), (w.toarray() != 0)
        )

    def test_out_of_order_shards(self, server):
        client, srv = server
        _, w = _matrices()
        reply = client.register_partitioned(
            "W", [w[25:], w[:25]], axis=0, indices=[1, 0]
        )
        assert reply["nnz"] == w.nnz
        stored = srv.registry.matrix("W")
        np.testing.assert_array_equal(
            (stored.toarray() != 0), (w.toarray() != 0)
        )

    def test_col_partitioned_registration(self, server):
        client, _ = server
        _, w = _matrices()
        reply = client.register_partitioned("W", [w[:, :10], w[:, 10:]], axis=1)
        assert reply["shape"] == [40, 30] and reply["nnz"] == w.nnz

    def test_merged_sketch_is_the_served_synopsis(self, server):
        """Estimates answered for a shard-merged matrix come from the
        *merged* sketch — identical to a direct service using
        register_sketched, not to one that re-sketched the full matrix."""
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register_partitioned("W", [w[:25], w[25:]], axis=0)
        served = client.estimate(MATMUL_XW)

        direct = EstimationService()
        registry = MatrixRegistry(direct)
        registry.register("X", x)
        registry.register_partitioned("W", [w[:25], w[25:]], axis=0)
        expr_direct = direct.submit(ServiceRequest.estimate(
            __import__("repro.serve.protocol", fromlist=["decode_expr"]).decode_expr(
                MATMUL_XW, registry.resolve
            )
        ))
        assert served["nnz"] == expr_direct["nnz"]
        assert served["fingerprint"] == expr_direct["fingerprint"]

    def test_mismatched_shards_rejected(self, server):
        client, _ = server
        _, w = _matrices()
        with pytest.raises(ServeClientError) as excinfo:
            client.register_partitioned("W", [w[:25], w[25:, :10]], axis=0)
        assert excinfo.value.status == 400


class TestBitIdentity:
    def test_server_matches_direct_service(self, server):
        """The acceptance property at test scale: every server answer is
        bit-identical to a direct EstimationService fed the same
        registrations and the same request order."""
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register_partitioned("W", [w[:20], w[20:]], axis=0)

        direct = EstimationService()
        registry = MatrixRegistry(direct)
        registry.register("X", x)
        registry.register_partitioned("W", [w[:20], w[20:]], axis=0)

        from repro.serve.protocol import decode_expr

        wires = [
            MATMUL_XW,
            {"ref": "X"},
            {"op": "transpose", "inputs": [MATMUL_XW]},
            MATMUL_XW,  # warm replay
        ]
        for wire in wires:
            served = client.estimate(wire)
            expected = direct.submit(
                ServiceRequest.estimate(decode_expr(wire, registry.resolve))
            )
            assert served["nnz"] == expected["nnz"], wire
            assert served["sparsity"] == expected["sparsity"], wire
            assert served["fingerprint"] == expected["fingerprint"], wire
            assert served["cached"] == expected["cached"], wire

        served_chain = client.optimize_chain(["X", "W"], seed=9)
        expected_chain = direct.submit(ServiceRequest.chain(
            [registry.matrix("X"), registry.matrix("W")],
            rng=np.random.default_rng(9),
        ))
        from repro.serve.protocol import encode_chain_solution

        expected_encoded = encode_chain_solution(expected_chain)
        assert served_chain["plan"] == expected_encoded["plan"]
        assert served_chain["cost"] == expected_encoded["cost"]


class TestErrors:
    def test_unknown_path_404(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_invalid_json_400(self, server):
        client, _ = server
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port)
        connection.request(
            "POST", "/estimate", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_unknown_ref_400(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate({"ref": "ghost"})
        assert excinfo.value.status == 400
        assert "ghost" in excinfo.value.message

    def test_shape_mismatch_400(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate({"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "X"}]})
        assert excinfo.value.status == 400

    def test_server_survives_errors(self, server):
        """Errors never poison the connection or the server."""
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        for _ in range(3):
            with pytest.raises(ServeClientError):
                client.estimate({"ref": "ghost"})
            assert client.estimate({"ref": "X"})["nnz"] == float(x.nnz)


class TestConcurrency:
    def test_many_threads_one_server(self, server):
        """Multi-tenant smoke: concurrent clients with distinct namespaces
        all get consistent answers."""
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        baseline = client.estimate(MATMUL_XW)["nnz"]
        errors = []
        barrier = threading.Barrier(6)

        def tenant(worker):
            own = ServeClient(client.host, client.port)
            try:
                barrier.wait()
                for _ in range(10):
                    assert own.estimate(MATMUL_XW)["nnz"] == baseline
                    assert own.estimate({"ref": "X"})["nnz"] == float(x.nnz)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                own.close()

        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_rebind_invalidates_old_estimates(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        first = client.estimate({"ref": "X"})
        replacement = random_sparse(50, 40, 0.3, seed=99)
        client.register("X", replacement)
        second = client.estimate({"ref": "X"})
        assert second["nnz"] == float(replacement.nnz)
        assert second["fingerprint"] != first["fingerprint"]


class TestStreamingUpdates:
    def test_update_rebinds_name_and_estimates_fresh(self, server):
        from repro.core.incremental import AppendRows

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        before = client.estimate(MATMUL_XW)
        assert client.estimate(MATMUL_XW)["cached"] is True

        reply = client.apply_update("X", AppendRows([np.array([0, 3, 7])]))
        assert reply["name"] == "X"
        assert reply["shape"] == [51, 40]
        assert reply["nnz"] == x.nnz + 3
        assert reply["updates"] == 1
        assert reply["fingerprint"] != before["fingerprint"]

        after = client.estimate(MATMUL_XW)
        # The old memoized result was evicted; the new answer covers the
        # appended row and is computed fresh.
        assert after["cached"] is False
        assert after["fingerprint"] != before["fingerprint"]
        assert client.estimate({"ref": "X"})["nnz"] == float(x.nnz + 3)

    def test_update_matches_from_scratch_registration(self, server):
        """Server answers over a patched name are bit-identical to
        registering the mutated matrix directly."""
        from repro.core.incremental import (
            AppendRows,
            BlockUpdate,
            DeleteRows,
            IncrementalSketch,
            apply_update,
        )

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)

        deltas = [
            AppendRows([np.array([1, 4]), np.array([0, 2, 39])]),
            DeleteRows([0, 5]),
            BlockUpdate(2, 3, (np.arange(20).reshape(4, 5) % 3 == 0)),
        ]
        reply = client.apply_updates("X", deltas)
        assert reply["updates"] == 3

        local = IncrementalSketch(x)
        for delta in deltas:
            apply_update(local, delta)
        mutated = local.to_matrix()
        assert reply["shape"] == [mutated.shape[0], mutated.shape[1]]
        assert reply["nnz"] == mutated.nnz
        client.register("Y", mutated)

        got = client.estimate(MATMUL_XW)["nnz"]
        want = client.estimate(
            {"op": "matmul", "inputs": [{"ref": "Y"}, {"ref": "W"}]}
        )["nnz"]
        assert got == want

    def test_block_updates_match_dense_replay(self, server):
        """After each HTTP block update the registered matrix is exactly
        the dense replay of the deltas, and the reply's nnz agrees."""
        from repro.core.incremental import BlockUpdate

        client, srv = server
        x, _ = _matrices()
        client.register("X", x)
        dense = x.toarray() != 0
        rng = np.random.default_rng(21)
        for _ in range(6):
            r0, c0 = int(rng.integers(0, 45)), int(rng.integers(0, 35))
            pattern = rng.random((5, 5)) < 0.3
            reply = client.apply_update("X", BlockUpdate(r0, c0, pattern))
            dense[r0:r0 + 5, c0:c0 + 5] = pattern
            matrix = srv.registry.matrix("X")
            assert matrix.has_canonical_format
            np.testing.assert_array_equal(matrix.toarray() != 0, dense)
            assert reply["nnz"] == matrix.nnz == int(dense.sum())

    def test_untouched_name_stays_cached_across_update(self, server):
        from repro.core.incremental import DeleteCols

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        w_expr = {
            "op": "ewise_mult", "inputs": [{"ref": "W"}, {"ref": "W"}],
        }
        assert client.estimate(w_expr)["cached"] is False
        client.apply_update("X", DeleteCols([0]))
        # W was untouched: its memoized root estimate survived the delta
        # (partial invalidation), even though the parse cache flushed.
        assert client.estimate(w_expr)["cached"] is True

    def test_update_unknown_name_400(self, server):
        from repro.core.incremental import DeleteRows

        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_update("ghost", DeleteRows([0]))
        assert excinfo.value.status == 400
        assert "ghost" in excinfo.value.message

    def test_update_out_of_range_delta_400(self, server):
        from repro.core.incremental import DeleteRows

        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_update("X", DeleteRows([10_000]))
        assert excinfo.value.status == 400

    def test_update_malformed_payload_400(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        with pytest.raises(ServeClientError) as excinfo:
            client.request("POST", "/matrices/X/updates", {"delta": {"kind": "bogus"}})
        assert excinfo.value.status == 400

    def test_update_wrong_method_405(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/matrices/X/updates")
        assert excinfo.value.status == 405

    def test_reregister_resets_streaming_state(self, server):
        from repro.core.incremental import AppendRows

        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        client.apply_update("X", AppendRows([np.array([0])]))
        # Re-registering wholesale discards the incremental tracker; the
        # next delta starts from the re-registered structure.
        client.register("X", x)
        reply = client.apply_update("X", AppendRows([np.array([1])]))
        assert reply["shape"] == [51, 40]
        assert reply["nnz"] == x.nnz + 1


class TestExecutionModel:
    """Every request runs on the event-loop thread; there is no second
    estimation thread to hop to."""

    def test_handlers_run_on_loop_thread(self, monkeypatch):
        from repro.core.incremental import AppendRows

        seen = []
        for attribute in ("_handle_register", "_handle_estimate", "_handle_update"):
            original = getattr(EstimationServer, attribute)

            def recording(self, *args, _original=original, _name=attribute):
                seen.append((_name, threading.get_ident()))
                return _original(self, *args)

            monkeypatch.setattr(EstimationServer, attribute, recording)

        async def loop_ident():
            return threading.get_ident()

        x, w = _matrices()
        with start_server_thread(EstimationServer(port=0)) as handle:
            loop_thread = asyncio.run_coroutine_threadsafe(
                loop_ident(), handle._loop
            ).result(timeout=10)
            with ServeClient(handle.host, handle.port) as client:
                client.register("X", x)
                client.register("W", w)
                client.estimate(MATMUL_XW)
                client.estimate_batch([MATMUL_XW, {"ref": "X"}])
                client.optimize_chain(["X", "W"], seed=1)
                client.apply_update("X", AppendRows([np.array([0, 1])]))
                client.estimate(MATMUL_XW)
        assert loop_thread != threading.get_ident()
        assert {name for name, _ in seen} == {
            "_handle_register", "_handle_estimate", "_handle_update"
        }
        assert {ident for _, ident in seen} == {loop_thread}

    def test_no_estimation_thread(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        client.estimate(MATMUL_XW)
        client.estimate(MATMUL_XW)
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("repro-serve-estimate")]


def _raw_status_line(host, port, request: bytes) -> str:
    """Send *request* on a fresh socket; return the response's status line."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        received = b""
        while b"\r\n" not in received:
            chunk = sock.recv(4096)
            if not chunk:
                break
            received += chunk
    return received.split(b"\r\n", 1)[0].decode("latin-1")


class TestHostileHeads:
    """A request head the server refuses gets a 4xx, a closed connection
    and a ``serve.errors.<status>`` count, never a silent drop; the
    server keeps answering."""

    @staticmethod
    def _errors(client, status: int) -> float:
        prefix = f"repro_serve_errors_{status}_total "
        for line in client.metrics_text().splitlines():
            if line.startswith(prefix):
                return float(line[len(prefix):])
        return 0.0

    def _assert_refused(self, client, request: bytes, status_line: str):
        code = int(status_line.split(" ")[1])
        before = self._errors(client, code)
        assert _raw_status_line(client.host, client.port, request) == status_line
        assert self._errors(client, code) == before + 1
        fresh = ServeClient(client.host, client.port)
        try:
            assert fresh.healthz()["status"] == "ok"
        finally:
            fresh.close()

    def test_overlong_header_line_431(self, server):
        client, _ = server
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Big: "
            + b"a" * 70_000 + b"\r\n\r\n"
        )
        self._assert_refused(
            client, request, "HTTP/1.1 431 Request Header Fields Too Large"
        )

    def test_overlong_request_line_431(self, server):
        client, _ = server
        request = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
        self._assert_refused(
            client, request, "HTTP/1.1 431 Request Header Fields Too Large"
        )

    def test_too_many_header_lines_431(self, server):
        from repro.serve.server import MAX_HEADER_LINES

        client, _ = server
        # One repeated name: lines are counted, not distinct headers.
        lines = b"X-Same: v\r\n" * (MAX_HEADER_LINES + 1)
        request = b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"
        self._assert_refused(
            client, request, "HTTP/1.1 431 Request Header Fields Too Large"
        )

    def test_header_line_limit_is_inclusive(self, server):
        from repro.serve.server import MAX_HEADER_LINES

        client, _ = server
        lines = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES))
        request = b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"
        status = _raw_status_line(client.host, client.port, request)
        assert status == "HTTP/1.1 200 OK"

    def test_negative_content_length_400(self, server):
        client, _ = server
        request = (
            b"POST /estimate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: -5\r\n\r\n"
        )
        self._assert_refused(client, request, "HTTP/1.1 400 Bad Request")

    def test_malformed_request_line_400(self, server):
        client, _ = server
        request = b"GET /healthz\r\nHost: x\r\n\r\n"
        self._assert_refused(client, request, "HTTP/1.1 400 Bad Request")

    def test_oversized_body_413(self, server):
        from repro.serve.server import MAX_BODY_BYTES

        client, _ = server
        # The declared length alone is refused; no body is sent.
        request = (
            b"POST /estimate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        )
        self._assert_refused(client, request, "HTTP/1.1 413 Payload Too Large")
