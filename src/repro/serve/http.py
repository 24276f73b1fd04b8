"""`repro serve` — the asyncio HTTP front of a loaded index.

A deliberately small, dependency-free HTTP/1.1 server on
``asyncio.start_server`` (the container ships no web framework, and the
endpoint surface is five routes):

=======  =========  ====================================================
method   path       body / answer
=======  =========  ====================================================
POST     /knn       ``{"tokens": [...], "k": 10}`` → matches + stats
POST     /range     ``{"tokens": [...], "threshold": 0.7}`` → matches
POST     /join      ``{"threshold": 0.8}`` → pairs + stats
POST     /insert    ``{"tokens": [...]}`` → index/group/shard placed
POST     /remove    ``{"index": 17}`` → the tombstoned record
GET      /healthz   liveness/readiness (``200 ok`` / ``503 loading``)
GET      /stats     uptime, shards, served counts, batch histogram,
                    p50/p99 latency
=======  =========  ====================================================

Writes are admitted while serving: they ride the same micro-batch queue
as queries (applied first within their batch, in admission order)
and land in the loaded generation's write-ahead ``delta.log`` when the
index came from a save — so they survive a restart.  A write against a
lazily loaded (read-only) index answers 400.

Query bodies may also carry ``timeout_ms`` (a per-request deadline,
anchored at admission); :class:`repro.api.QueryRequest` validates every
body field exactly as the Python API does.  Responses are JSON; errors
are JSON too (``{"error": ...}``) with conventional status codes: 400
malformed request (unparsable body included), 404 unknown path, 405 wrong method, 413 oversized body, 503
not-ready or overloaded (with ``Retry-After``), 504 deadline exceeded.
See ``docs/operations.md`` for deadlines and the graceful SIGTERM drain.

The server binds *before* the index is loaded: ``/healthz`` answers
``503 {"status": "loading"}`` until the engine is up, so orchestrators
can poll readiness, and query endpoints shed load instead of hanging.
See ``docs/serving.md`` for the endpoint reference and deployment notes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from types import TracebackType
from typing import Callable

from repro import __version__
from repro.api import Engine, QueryRequest, WriteRequest, load
from repro.core.resilience import DeadlineExceeded
from repro.serve.service import QueryService, ServiceOverloaded

__all__ = ["ReproServer", "serve", "MAX_BODY_BYTES"]

#: Largest accepted request body — queries are token lists, not uploads.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request head (request line + headers).
_MAX_HEAD_BYTES = 16 * 1024

#: Idle keep-alive connections are dropped after this many seconds.
_KEEPALIVE_TIMEOUT = 75.0

_QUERY_ROUTES = {"/knn": "knn", "/range": "range", "/join": "join"}
_WRITE_ROUTES = {"/insert": "insert", "/remove": "remove"}


class _HttpError(Exception):
    """An error with a definite HTTP status, raised during request handling."""

    def __init__(self, status: int, message: str, headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _decode_body(body: bytes) -> object:
    """A request body's JSON value (``{}`` when empty).

    Every way a body can fail to parse raises ``ValueError``, which both
    POST handlers answer with 400: malformed JSON, bytes that are not
    valid UTF-8 (``UnicodeDecodeError``), and nesting deep enough to
    exhaust the decoder's recursion limit (``RecursionError``).
    """
    if not body:
        return {}
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as error:
        raise ValueError(f"request body is not valid JSON: {error}") from None


def _response_bytes(status: int, payload: dict, extra_headers: dict | None = None) -> bytes:
    body = json.dumps(payload).encode()
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Server: repro/{__version__}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


class ReproServer:
    """One saved index behind an asyncio HTTP query service.

    The server owns the whole lifecycle: bind the socket, load the index
    on the :class:`~repro.serve.service.QueryService`'s engine thread
    (readiness is ``/healthz``), serve it, and tear both down cleanly.
    Construct, then either ``await start()`` / ``await serve_forever()``
    / ``await stop()`` or use :func:`serve` from synchronous code.

    Parameters mirror the ``repro serve`` flags; ``port=0`` binds an
    ephemeral port (see :attr:`port` after :meth:`start` — the
    integration tests rely on this).
    """

    def __init__(
        self,
        directory: str,
        host: str = "127.0.0.1",
        port: int = 8722,
        mode: str = "memory",
        max_batch: int = 64,
        max_queue: int = 256,
        default_timeout_ms: int | None = None,
        max_timeout_ms: int | None = None,
        drain_seconds: float = 5.0,
        engine: Engine | None = None,
    ) -> None:
        self.directory = directory
        self.host = host
        self.port = port
        self.mode = mode
        self.drain_seconds = drain_seconds
        self._service_options = {
            "max_batch": max_batch,
            "max_queue": max_queue,
            "default_timeout_ms": default_timeout_ms,
            "max_timeout_ms": max_timeout_ms,
        }
        self._preloaded = engine
        self.engine: Engine | None = engine
        self.service: QueryService | None = None
        self._server: asyncio.base_events.Server | None = None
        self._load_task: asyncio.Task | None = None
        self._load_error: Exception | None = None
        self._connections: set[asyncio.Task] = set()
        self._started_at = time.time()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ReproServer":
        """Bind the socket, then load the index in the background."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self._load_task = asyncio.get_running_loop().create_task(self._bring_up())
        return self

    async def _bring_up(self) -> None:
        service: QueryService | None = None
        try:
            service = QueryService(self._preloaded, **self._service_options)
            if service.engine is None:
                await service.load(lambda: load(self.directory, mode=self.mode))
            await service.start()
            self.engine = service.engine
            self.service = service
        except Exception as error:  # noqa: BLE001 - surfaced via /healthz + ready()
            self._load_error = error
        finally:
            if service is not None and self.service is not service:
                await service.stop()  # failed or cancelled: free its engine thread

    async def ready(self) -> None:
        """Wait until the index is loaded (re-raises a failed load)."""
        if self._load_task is not None:
            await asyncio.shield(self._load_task)
        if self._load_error is not None:
            raise self._load_error

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, drain_seconds: float | None = None) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, then stop.

        The listening socket closes first, so new connections are
        refused; requests already admitted get up to ``drain_seconds``
        (default: the server's ``drain_seconds``) to finish before
        :meth:`stop` fails whatever is left.  ``repro serve`` calls this
        on SIGTERM/SIGINT and exits 0.
        """
        budget = self.drain_seconds if drain_seconds is None else drain_seconds
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.service is not None:
            try:
                await asyncio.wait_for(self.service.wait_idle(), max(budget, 0.0))
            except asyncio.TimeoutError:
                pass
        await self.stop()

    async def stop(self) -> None:
        if self._load_task is not None and not self._load_task.done():
            self._load_task.cancel()
            try:
                await self._load_task
            except asyncio.CancelledError:
                pass
        if self.service is not None:
            await self.service.stop()
            # The requests stop() just failed still owe their clients a
            # 503: one turn of the loop lets their handlers write it
            # before the connections are cancelled below.
            await asyncio.sleep(0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections would otherwise hold the loop open.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        await self.stop()
        return False

    # -- request handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_requests(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancels open keep-alive connections; finish
            # cleanly so asyncio does not log the cancellation as an error.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _serve_requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=_KEEPALIVE_TIMEOUT
                    )
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    writer.write(_response_bytes(413, {"error": "request head too large"}))
                    await writer.drain()
                    break
                if len(head) > _MAX_HEAD_BYTES:
                    writer.write(_response_bytes(413, {"error": "request head too large"}))
                    await writer.drain()
                    break
                headers: dict = {}
                try:
                    method, path, headers = _parse_head(head)
                    body = await _read_body(reader, headers)
                    status, payload, extra = await self._route(method, path, body)
                except _HttpError as error:
                    status, payload, extra = (
                        error.status,
                        {"error": str(error)},
                        error.headers,
                    )
                writer.write(_response_bytes(status, payload, extra))
                await writer.drain()
                if headers_say_close(headers):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # the peer went away mid-request; _handle_connection closes

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, dict]:
        path = path.split("?", 1)[0]
        if path in _QUERY_ROUTES:
            if method != "POST":
                return 405, {"error": f"{path} takes POST"}, {"Allow": "POST"}
            return await self._handle_query(_QUERY_ROUTES[path], body)
        if path in _WRITE_ROUTES:
            if method != "POST":
                return 405, {"error": f"{path} takes POST"}, {"Allow": "POST"}
            return await self._handle_write(_WRITE_ROUTES[path], body)
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "/healthz takes GET"}, {"Allow": "GET"}
            return self._handle_healthz()
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "/stats takes GET"}, {"Allow": "GET"}
            return self._handle_stats()
        return 404, {"error": f"unknown path {path!r}"}, {}

    async def _handle_query(self, kind: str, body: bytes) -> tuple[int, dict, dict]:
        service = self.service
        if service is None:
            if self._load_error is not None:
                return 503, {"error": f"index failed to load: {self._load_error}"}, {}
            return 503, {"error": "index is still loading"}, {"Retry-After": "1"}
        try:
            request = QueryRequest.from_payload(kind, _decode_body(body))
        except ValueError as error:
            return 400, {"error": str(error)}, {}
        try:
            result = await service.submit(request)
        except ServiceOverloaded as error:
            return 503, {"error": str(error)}, {"Retry-After": str(error.retry_after)}
        except DeadlineExceeded as error:
            return 504, {"error": str(error)}, {}
        except ConnectionError as error:
            return 503, {"error": str(error)}, {}
        except Exception as error:  # noqa: BLE001 - engine bug, not a client error
            return 500, {"error": f"query failed: {error}"}, {}
        return 200, result.to_payload(), {}

    async def _handle_write(self, kind: str, body: bytes) -> tuple[int, dict, dict]:
        service = self.service
        if service is None:
            if self._load_error is not None:
                return 503, {"error": f"index failed to load: {self._load_error}"}, {}
            return 503, {"error": "index is still loading"}, {"Retry-After": "1"}
        try:
            request = WriteRequest.from_payload(kind, _decode_body(body))
        except ValueError as error:
            return 400, {"error": str(error)}, {}
        try:
            result = await service.submit(request)
        except ServiceOverloaded as error:
            return 503, {"error": str(error)}, {"Retry-After": str(error.retry_after)}
        except DeadlineExceeded as error:
            return 504, {"error": str(error)}, {}
        except ConnectionError as error:
            return 503, {"error": str(error)}, {}
        except ValueError as error:
            # A semantically bad write (unknown record, read-only lazy
            # index): the client's fault, not the server's.
            return 400, {"error": str(error)}, {}
        except Exception as error:  # noqa: BLE001 - engine bug, not a client error
            return 500, {"error": f"{kind} failed: {error}"}, {}
        return 200, result.to_payload(), {}

    def _handle_healthz(self) -> tuple[int, dict, dict]:
        if self.service is not None:
            return 200, {"status": "ok", "queue_depth": self.service.queue_depth}, {}
        if self._load_error is not None:
            return 503, {"status": "failed", "error": str(self._load_error)}, {}
        return 503, {"status": "loading"}, {"Retry-After": "1"}

    def _handle_stats(self) -> tuple[int, dict, dict]:
        base = {
            "version": __version__,
            "uptime_seconds": time.time() - self._started_at,
            "index": str(self.directory),
            "mode": self.mode,
            "ready": self.service is not None,
        }
        if self.engine is not None:
            base["num_records"] = len(self.engine.dataset)
            base["num_groups"] = self.engine.num_groups
            base["num_shards"] = getattr(self.engine, "num_shards", 1)
        if self.service is not None:
            service_stats = self.service.stats.snapshot()
            service_stats["queue_depth"] = self.service.queue_depth
            service_stats["max_batch"] = self.service.max_batch
            service_stats["max_queue"] = self.service.max_queue
            service_stats["default_timeout_ms"] = self.service.default_timeout_ms
            service_stats["max_timeout_ms"] = self.service.max_timeout_ms
            base["service"] = service_stats
        return 200, base, {}


def _parse_head(head: bytes) -> tuple[str, str, dict]:
    """Parse the request line + headers; raise :class:`_HttpError` on junk."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 never fails
        raise _HttpError(400, f"undecodable request head: {error}") from error
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise _HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


async def _read_body(reader: asyncio.StreamReader, headers: dict) -> bytes:
    if "transfer-encoding" in headers:
        raise _HttpError(400, "chunked request bodies are not supported")
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError as error:
        raise _HttpError(400, f"bad Content-Length {length_header!r}") from error
    if length < 0:
        raise _HttpError(400, f"bad Content-Length {length_header!r}")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise _HttpError(400, "request body shorter than Content-Length") from error


def headers_say_close(headers: dict) -> bool:
    """HTTP/1.1 keep-alive by default; close only when asked."""
    return headers.get("connection", "").lower() == "close"


def serve(
    directory: str,
    announce: Callable[[str], None] | None = None,
    **options: object,
) -> None:
    """Run a server until interrupted (the ``repro serve`` entry point).

    ``options`` are :class:`ReproServer` keyword arguments.  ``announce``
    (when given) receives one human-readable line once the socket is
    bound — the CLI prints it.

    SIGTERM and SIGINT trigger a graceful drain (stop accepting, finish
    in-flight requests within the server's ``drain_seconds``) and a
    clean return — the process exits 0, so orchestrators see an ordinary
    shutdown, not a crash.
    """

    async def run() -> None:
        # Signal handlers go in *before* the socket is announced: an
        # orchestrator that reacts to the announcement by sending SIGTERM
        # must hit the drain path, never the default (killing) disposition.
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        handled: list[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue  # platforms without loop signal handlers
            handled.append(signum)
        server = ReproServer(directory, **options)
        await server.start()
        if announce is not None:
            announce(
                f"repro serve: listening on http://{server.host}:{server.port} "
                f"(index {directory}, mode {server.mode}, loading in background)"
            )
        forever = asyncio.ensure_future(server.serve_forever())
        stopper = asyncio.ensure_future(shutdown.wait())
        try:
            await asyncio.wait({forever, stopper}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            forever.cancel()
            stopper.cancel()
            await asyncio.gather(forever, stopper, return_exceptions=True)
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.drain()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


async def wait_ready(
    host: str, port: int, timeout: float = 30.0, interval: float = 0.05
) -> None:
    """Poll ``/healthz`` until the server reports ready (test/bench helper)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            status, payload = await request_json(host, port, "GET", "/healthz")
            if status == 200 and payload.get("status") == "ok":
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise TimeoutError(f"server at {host}:{port} not ready after {timeout}s")
        await asyncio.sleep(interval)


async def request_json(
    host: str, port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict]:
    """One-shot JSON request against a running server (test/bench helper)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        status, body = await _roundtrip(reader, writer, method, path, payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return status, body


async def _roundtrip(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: dict | None,
) -> tuple[int, dict]:
    """Send one request on an open connection, read one JSON response.

    Exposed so load generators can keep a connection open and pipeline
    request after request.
    """
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode()
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readline()
    parts = status_line.decode("latin-1").split(" ", 2)
    status = int(parts[1])
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            content_length = int(value.strip())
    raw = await reader.readexactly(content_length) if content_length else b""
    return status, json.loads(raw) if raw else {}
