"""The spine's own load generator: a minimal HTTP/1.1 keep-alive client, closed loops.

One process, one thread (an asyncio loop), one connection per caller.
Each caller sends its next request only when the previous reply has
arrived — the data-cleaning / batch-pipeline caller the paper
motivates — so a slow server receives less load, never a growing
queue.  Nothing here imports from ``repro``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

__all__ = ["Connection", "Trip", "Caller", "REQUEST_TIMEOUT", "REQUEST_ERRORS", "request_of"]

#: A reply slower than this counts as a failed request.
REQUEST_TIMEOUT = 10.0
#: What a broken round trip raises: refused or reset socket, short read, timeout, unparsable reply.
REQUEST_ERRORS = (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError)


class Connection:
    """One keep-alive connection; :meth:`request` is a full JSON round trip."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        if self._writer is None:
            await self.open()
        try:
            return await asyncio.wait_for(self._round_trip(method, path, payload), REQUEST_TIMEOUT)
        except REQUEST_ERRORS:
            await self.close()  # a half-read reply poisons the stream; the next request reconnects
            raise

    async def _round_trip(self, method: str, path: str, payload: dict | None) -> tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode() + body)
        await self._writer.drain()
        lines = (await self._reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = dict(line.lower().split(": ", 1) for line in lines[1:] if ": " in line)
        reply = await self._reader.readexactly(int(headers.get("content-length", "0")))
        return status, json.loads(reply) if reply else {}


def request_of(op: dict, inserted: list[int]) -> tuple[str, dict]:
    """Route and JSON body of one generated op; removes resolve to acknowledged indices."""
    if op["kind"] == "knn":
        return "/knn", {"tokens": op["tokens"], "k": op["k"]}
    if op["kind"] == "insert":
        return "/insert", {"tokens": op["tokens"]}
    return "/remove", {"index": inserted[op["insert"]]}


@dataclass
class Trip:
    kind: str
    start_ns: int
    end_ns: int
    ok: bool


@dataclass
class Caller:
    """One closed-loop caller: runs its op list in order over its own connection."""

    connection: Connection
    ops: list
    trips: list = field(default_factory=list)
    inserted: list = field(default_factory=list)  # acknowledged insert indices, by ordinal

    async def run(self) -> None:
        for op in self.ops:
            path, payload = request_of(op, self.inserted)
            start = time.perf_counter_ns()
            try:
                status, reply = await self.connection.request("POST", path, payload)
            except REQUEST_ERRORS:
                status, reply = 0, {}
            end = time.perf_counter_ns()
            self.trips.append(Trip(op["kind"], start, end, status == 200))
            if op["kind"] == "insert":
                # A refused insert still takes its ordinal, so later removes stay aligned.
                self.inserted.append(reply.get("index", -1))
