"""Integration tests for the HTTP layer (:mod:`repro.serve.http`).

Every test binds a real server on an ephemeral port (``port=0``) and
talks to it over a real socket.  The load-bearing assertions from the
PR-6 acceptance criteria live here: server answers are bit-identical to
direct engine calls, concurrent clients coalesce without corruption,
saturation answers ``503`` + ``Retry-After``, and ``/healthz`` reports
``loading`` before the index is up.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import Dataset, LES3, __version__, save_engine
from repro.api import QueryRequest, execute, load
from repro.distributed import ShardedLES3, save_sharded
from repro.serve import ReproServer, request_json, wait_ready
from repro.serve.http import MAX_BODY_BYTES, _roundtrip
from repro.testing.faults import FaultPlan, FaultRule, armed


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    rows = [[f"t{(i * 7 + j * 3) % 37}" for j in range(2 + i % 6)] for i in range(160)]
    return Dataset.from_token_lists(rows)


@pytest.fixture(scope="module")
def single_dir(dataset, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("serve") / "single"
    save_engine(LES3.build(dataset, num_groups=8), path)
    return str(path)


@pytest.fixture(scope="module")
def sharded_dir(dataset, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("serve") / "sharded"
    save_sharded(ShardedLES3.build(dataset, num_shards=3, num_groups=8), path)
    return str(path)


def _query(dataset: Dataset, index: int) -> list:
    return [
        dataset.universe.token_of(t) for t in dataset.records[index].tokens
    ]


async def _ready_server(directory: str, **options) -> ReproServer:
    server = ReproServer(directory, port=0, **options)
    await server.start()
    await wait_ready(server.host, server.port)
    return server


@pytest.mark.parametrize(
    "directory_fixture, mode",
    [("single_dir", "memory"), ("sharded_dir", "memory"), ("sharded_dir", "lazy")],
)
def test_server_is_bit_identical_to_direct_calls(
    directory_fixture, mode, dataset, request
):
    directory = request.getfixturevalue(directory_fixture)

    async def main():
        server = await _ready_server(directory, mode=mode)
        reference = load(directory, mode=mode)
        try:
            for index in range(0, 12, 3):
                tokens = _query(dataset, index)
                for path, payload, req in [
                    ("/knn", {"tokens": tokens, "k": 5}, QueryRequest.knn(tokens, k=5)),
                    (
                        "/range",
                        {"tokens": tokens, "threshold": 0.5},
                        QueryRequest.range(tokens, threshold=0.5),
                    ),
                ]:
                    status, body = await request_json(
                        server.host, server.port, "POST", path, payload
                    )
                    assert status == 200
                    assert body == execute(reference, req).to_payload()
            status, body = await request_json(
                server.host, server.port, "POST", "/join", {"threshold": 0.9}
            )
            assert status == 200
            assert body == execute(
                reference, QueryRequest.join(threshold=0.9)
            ).to_payload()
        finally:
            await server.stop()

    asyncio.run(main())


def test_concurrent_clients_batch_and_stay_correct(
    single_dir, dataset, engine_held, until
):
    async def main():
        server = await _ready_server(single_dir)
        reference = load(single_dir)
        service = server.service
        try:
            requests = [QueryRequest.knn(_query(dataset, i % 40), k=3) for i in range(48)]

            def one(req):
                return asyncio.ensure_future(request_json(
                    server.host,
                    server.port,
                    "POST",
                    "/knn",
                    {"tokens": list(req.tokens), "k": req.k},
                ))

            # The first request takes the held engine; the other 47 queue
            # behind it and leave as one batch once it is released.
            with engine_held(service):
                tasks = [one(requests[0])]
                await until(lambda: service.stats.batches_dispatched == 1)
                tasks += [one(r) for r in requests[1:]]
                await until(lambda: service._queue.qsize() == 47)
            answers = await asyncio.gather(*tasks)
            for req, (status, body) in zip(requests, answers):
                assert status == 200
                assert body == execute(reference, req).to_payload()
            status, stats = await request_json(server.host, server.port, "GET", "/stats")
            service_stats = stats["service"]
            assert service_stats["queries_served"] == 48
            assert service_stats["batch_size_histogram"] == {"1": 1, "47": 1}
            assert service_stats["mean_batch_size"] == 24.0
        finally:
            await server.stop()

    asyncio.run(main())


def test_sequential_requests_dispatch_alone(single_dir, dataset):
    async def main():
        server = await _ready_server(single_dir)
        try:
            for index in range(3):
                status, _ = await request_json(
                    server.host, server.port, "POST", "/knn",
                    {"tokens": _query(dataset, index), "k": 3},
                )
                assert status == 200
            status, stats = await request_json(server.host, server.port, "GET", "/stats")
            assert stats["service"]["batch_size_histogram"] == {"1": 3}
            assert "batch_window_ms" not in stats["service"]
        finally:
            await server.stop()

    asyncio.run(main())


class _ThreadRecordingEngine:
    """Delegates to an engine, recording the thread of every method call."""

    def __init__(self, engine, threads: set) -> None:
        self._engine = engine
        self._threads = threads

    def __getattr__(self, name):
        value = getattr(self._engine, name)
        if not callable(value):
            return value

        def recorded(*args, **kwargs):
            self._threads.add(threading.current_thread())
            return value(*args, **kwargs)

        return recorded


@pytest.mark.parametrize("concurrency", [1, 2])
def test_engine_work_stays_on_the_engine_threads(
    concurrency, dataset, tmp_path, monkeypatch
):
    """Load, reads and writes run on the service's ``concurrency`` threads.

    Every thread that allocates gets its own malloc arena, so engine work
    spread over a shared, growing pool grows the server's resident set.
    """
    directory = tmp_path / "index"
    save_engine(LES3.build(dataset, num_groups=8), directory)
    threads: set = set()

    def recording_load(*args, **kwargs):
        threads.add(threading.current_thread())
        return _ThreadRecordingEngine(load(*args, **kwargs), threads)

    monkeypatch.setattr("repro.serve.http.load", recording_load)

    async def lane(server, lane_id: int) -> None:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            for step in range(26):
                tokens = _query(dataset, (lane_id * 26 + step) % 160)
                path, body = [
                    ("/knn", {"tokens": tokens, "k": 3}),
                    ("/range", {"tokens": tokens, "threshold": 0.5}),
                    ("/insert", {"tokens": tokens + [f"new{lane_id}"]}),
                ][step % 3]
                status, _ = await _roundtrip(reader, writer, "POST", path, body)
                assert status == 200
        finally:
            writer.close()

    async def main():
        server = await _ready_server(str(directory), concurrency=concurrency)
        try:
            await asyncio.gather(*(lane(server, lane_id) for lane_id in range(8)))
            status, stats = await request_json(server.host, server.port, "GET", "/stats")
            assert stats["service"]["queries_served"] == 8 * 26
        finally:
            await server.stop()

    asyncio.run(main())
    assert 1 <= len(threads) <= concurrency
    # The service's own threads, not the event loop's shared default pool.
    assert all(thread.name.startswith("repro-engine") for thread in threads)


def test_healthz_reports_loading_then_ok(single_dir):
    async def main():
        # Gate the load so the not-ready window is deterministic: the
        # server binds first, and /healthz answers 503 "loading" (and
        # query endpoints shed) until the engine is allowed through.
        gate = asyncio.Event()

        class _GatedServer(ReproServer):
            async def _bring_up(self):
                await gate.wait()
                await super()._bring_up()

        server = _GatedServer(single_dir, port=0)
        await server.start()
        status, body = await request_json(server.host, server.port, "GET", "/healthz")
        assert status == 503 and body["status"] == "loading"
        status, body = await request_json(
            server.host, server.port, "POST", "/knn", {"tokens": ["t1"], "k": 1}
        )
        assert status == 503 and "loading" in body["error"]
        gate.set()
        await wait_ready(server.host, server.port)
        status, body = await request_json(server.host, server.port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        await server.stop()

    asyncio.run(main())


def test_load_failure_surfaces_in_healthz(tmp_path):
    async def main():
        server = ReproServer(str(tmp_path / "missing"), port=0)
        await server.start()
        with pytest.raises(FileNotFoundError):
            await server.ready()
        status, body = await request_json(server.host, server.port, "GET", "/healthz")
        assert status == 503 and body["status"] == "failed"
        status, body = await request_json(
            server.host, server.port, "POST", "/knn", {"tokens": ["a"], "k": 1}
        )
        assert status == 503 and "failed to load" in body["error"]
        await server.stop()

    asyncio.run(main())


def test_saturation_answers_503_with_retry_after(
    single_dir, dataset, engine_held, until
):
    async def main():
        # max_queue=1 plus a busy engine: the first request holds the one
        # slot while its batch waits, and every later one must be shed.
        server = await _ready_server(single_dir, max_queue=1)
        service = server.service
        try:
            tokens = _query(dataset, 0)

            async def raw_roundtrip():
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                body = json.dumps({"tokens": tokens, "k": 3}).encode()
                writer.write(
                    (
                        f"POST /knn HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                    ).encode()
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                status = int(raw.split(b" ", 2)[1])
                headers, _, payload = raw.partition(b"\r\n\r\n")
                return status, headers.decode("latin-1"), json.loads(payload)

            with engine_held(service):
                first = asyncio.ensure_future(raw_roundtrip())
                await until(lambda: service.stats.batches_dispatched == 1)
                shed = await asyncio.gather(*(raw_roundtrip() for _ in range(5)))
            results = [await first, *shed]
            statuses = [status for status, _, _ in results]
            assert statuses == [200, 503, 503, 503, 503, 503], statuses
            for status, headers, payload in results:
                if status == 503:
                    assert "Retry-After:" in headers
                    assert "retry later" in payload["error"]
        finally:
            await server.stop()

    asyncio.run(main())


def test_protocol_errors(single_dir):
    async def main():
        server = await _ready_server(single_dir)
        host, port = server.host, server.port
        try:
            status, body = await request_json(host, port, "GET", "/nope")
            assert status == 404
            status, body = await request_json(host, port, "GET", "/knn")
            assert status == 405
            status, body = await request_json(host, port, "POST", "/stats")
            assert status == 405
            status, body = await request_json(
                host, port, "POST", "/knn", {"tokens": [], "k": 1}
            )
            assert status == 400 and "token" in body["error"]
            status, body = await request_json(
                host, port, "POST", "/knn", {"tokens": ["a"], "k": 1, "oops": True}
            )
            assert status == 400 and "oops" in body["error"]
            # ``parallel`` is a removed field: the ordinary unknown-field error.
            status, body = await request_json(
                host, port, "POST", "/knn",
                {"tokens": ["a"], "k": 1, "parallel": "thread"},
            )
            assert status == 400 and "unknown field(s) ['parallel']" in body["error"]
            # So is ``verify``, on every query route: one verification path.
            for path, payload in (
                ("/knn", {"tokens": ["a"], "k": 1}),
                ("/range", {"tokens": ["a"], "threshold": 0.5}),
                ("/join", {"threshold": 0.9}),
            ):
                status, body = await request_json(
                    host, port, "POST", path, {**payload, "verify": "scalar"}
                )
                assert status == 400 and "unknown field(s) ['verify']" in body["error"]
            # A token dataset.txt could not carry is refused, not half-applied.
            status, body = await request_json(
                host, port, "POST", "/insert", {"tokens": ["a b", "zz"]}
            )
            assert status == 400 and "whitespace" in body["error"]

            # Raw junk: bad JSON, bad request line, oversized body.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /knn HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\n{{{"
            )
            await writer.drain()
            raw = await reader.readline()
            assert b"400" in raw
            writer.close()

            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            raw = await reader.readline()
            assert b"400" in raw
            writer.close()

            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"POST /knn HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.readline()
            assert b"413" in raw
            writer.close()
        finally:
            await server.stop()

    asyncio.run(main())


@pytest.mark.parametrize("path", ["/knn", "/insert"])
@pytest.mark.parametrize(
    "body",
    [b'{"tokens": ["\xff"], "k": 1}', b"[" * 50_000],
    ids=["not-utf8", "nested-50k-deep"],
)
def test_undecodable_bodies_answer_400(single_dir, dataset, path, body):
    """Bodies json.loads rejects with other than JSONDecodeError still get a 400.

    Invalid UTF-8 raises ``UnicodeDecodeError`` and deep nesting
    ``RecursionError``; either one used to kill the connection without
    a response.
    """

    async def main():
        server = await _ready_server(single_dir)
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                f"POST {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b" 400 " in status_line
            head = await reader.readuntil(b"\r\n\r\n")
            length = next(
                int(line.split(b":")[1]) for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length")
            )
            error = json.loads(await reader.readexactly(length))["error"]
            assert "not valid JSON" in error
            writer.close()
            status, answer = await request_json(
                server.host, server.port, "POST", "/knn",
                {"tokens": _query(dataset, 0), "k": 2},
            )
            assert status == 200 and answer["count"] == 2
        finally:
            await server.stop()

    asyncio.run(main())


def test_stats_endpoint_shape(sharded_dir):
    async def main():
        server = await _ready_server(sharded_dir, mode="lazy")
        try:
            status, stats = await request_json(server.host, server.port, "GET", "/stats")
            assert status == 200
            assert stats["version"] == __version__
            assert stats["ready"] is True
            assert stats["mode"] == "lazy"
            assert stats["num_shards"] == 3
            assert stats["num_records"] == 160
            service = stats["service"]
            assert service["max_batch"] == 64 and service["max_queue"] == 256
            assert service["queue_depth"] == 0
            assert "batch_window_ms" not in service
        finally:
            await server.stop()

    asyncio.run(main())


def test_keep_alive_connections_are_reused(single_dir, dataset):
    from repro.serve.http import _roundtrip

    async def main():
        server = await _ready_server(single_dir)
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            tokens = _query(dataset, 0)
            for _ in range(3):  # three requests down one connection
                status, body = await _roundtrip(
                    reader, writer, "POST", "/knn", {"tokens": tokens, "k": 2}
                )
                assert status == 200 and body["count"] == 2
            writer.close()
        finally:
            await server.stop()

    asyncio.run(main())


def test_cli_has_a_serve_command():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "some-index", "--port", "0", "--mode", "lazy", "--max-batch", "8"]
    )
    assert args.command == "serve"
    assert args.port == 0 and args.mode == "lazy" and args.max_batch == 8
    assert args.max_queue == 256 and not hasattr(args, "batch_window_ms")
    with pytest.raises(SystemExit):  # the batching window is gone
        build_parser().parse_args(["serve", "some-index", "--batch-window-ms", "2"])


# -- deadlines, drain, and shutdown ------------------------------------------


def test_timeout_answers_504(single_dir, dataset, engine_held):
    async def main():
        # The engine is busy past the budget: the request expires waiting.
        server = await _ready_server(single_dir)
        try:
            with engine_held(server.service):
                status, body = await request_json(
                    server.host, server.port, "POST", "/knn",
                    {"tokens": _query(dataset, 0), "k": 3, "timeout_ms": 10},
                )
            assert status == 504
            assert "budget" in body["error"]
            status, stats = await request_json(
                server.host, server.port, "GET", "/stats"
            )
            assert stats["service"]["queries_timed_out"] == 1
            assert stats["service"]["timed_out_by_kind"] == {"knn": 1}
        finally:
            await server.stop()

    asyncio.run(main())


def test_shard_fault_is_a_500_and_the_next_answer_is_exact(sharded_dir, dataset):
    async def main():
        server = await _ready_server(sharded_dir)
        host, port = server.host, server.port
        body = {"tokens": _query(dataset, 0), "k": 5}
        try:
            status, before = await request_json(host, port, "POST", "/knn", body)
            assert status == 200
            with armed(FaultPlan([FaultRule("shard.exec", times=-1)])):
                status, failed = await request_json(host, port, "POST", "/knn", body)
            assert status == 500 and "shard.exec" in failed["error"]
            status, stats = await request_json(host, port, "GET", "/stats")
            assert stats["service"]["queries_failed"] == 1
            status, after = await request_json(host, port, "POST", "/knn", body)
            assert status == 200 and after == before
        finally:
            await server.stop()

    asyncio.run(main())


def test_server_default_timeout_applies(single_dir, dataset, engine_held):
    async def main():
        server = await _ready_server(single_dir, default_timeout_ms=10)
        try:
            with engine_held(server.service):
                status, body = await request_json(
                    server.host, server.port, "POST", "/knn",
                    {"tokens": _query(dataset, 0), "k": 3},
                )
            assert status == 504
        finally:
            await server.stop()

    asyncio.run(main())


def test_stats_reports_timeout_knobs(single_dir):
    async def main():
        server = await _ready_server(
            single_dir, default_timeout_ms=5000, max_timeout_ms=30_000
        )
        try:
            status, stats = await request_json(
                server.host, server.port, "GET", "/stats"
            )
            service = stats["service"]
            assert service["default_timeout_ms"] == 5000
            assert service["max_timeout_ms"] == 30_000
            for key in ("queries_timed_out", "late_results", "timed_out_by_kind"):
                assert key in service
        finally:
            await server.stop()

    asyncio.run(main())


def test_drain_finishes_in_flight_then_stops(single_dir, dataset, engine_held, until):
    async def main():
        server = await _ready_server(single_dir)
        service = server.service
        with engine_held(service):
            task = asyncio.ensure_future(
                request_json(
                    server.host, server.port, "POST", "/knn",
                    {"tokens": _query(dataset, 0), "k": 3},
                )
            )
            await until(lambda: service.stats.batches_dispatched == 1)
            # The drain closes the socket, then waits on the in-flight batch.
            draining = asyncio.ensure_future(server.drain())
            await until(lambda: server._server is None or not server._server.is_serving())
            assert not draining.done()
        await draining
        status, body = await task
        assert status == 200 and body["count"] == 3  # in-flight work finished
        with pytest.raises(OSError):
            await request_json(server.host, server.port, "GET", "/healthz")

    asyncio.run(main())


def test_sigterm_drains_and_exits_zero(single_dir):
    import os
    import re
    import signal
    import subprocess
    import sys
    import time as time_mod

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", single_dir,
         "--port", "0", "--drain-seconds", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        seen = []
        while True:
            line = proc.stdout.readline()
            if not line:
                pytest.fail(f"server exited before announcing: {seen!r}")
            seen.append(line)
            if re.search(r"listening on http://", line):
                break
        proc.send_signal(signal.SIGTERM)
        deadline = time_mod.monotonic() + 20.0
        while proc.poll() is None and time_mod.monotonic() < deadline:
            time_mod.sleep(0.05)
        assert proc.poll() == 0, (proc.poll(), proc.stdout.read())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
