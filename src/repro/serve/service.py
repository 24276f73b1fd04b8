"""The query service core: admission, micro-batching, execution, stats.

This is the engine-facing half of ``repro serve`` (the HTTP half lives in
:mod:`repro.serve.http`).  Concurrent requests do not each pay their own
trip through the engine; they flow through a :class:`QueryService`:

1. **Admission.**  A request is accepted only while the number of
   admitted-but-unanswered requests is below ``max_queue``; beyond that
   :meth:`QueryService.submit` raises :class:`ServiceOverloaded` and the
   HTTP layer answers ``503`` with a ``Retry-After`` hint — the service
   degrades by shedding load, never by growing an unbounded backlog.
2. **Micro-batching.**  Once the previous batch has finished, the
   dispatcher takes the next request and everything queued behind it
   (up to ``max_batch``) and dispatches at once — no timer.  A lone
   request on an idle service runs immediately; under load, batches
   form from the requests that arrived while the engine was busy.  The
   batch is handed to :func:`repro.api.execute_batch`, which coalesces
   compatible kNN/range requests into the engine's batched BLAS kernels.
3. **Execution.**  Engine work is CPU-bound, so batches run one at a
   time, in admission order, on the service's one long-lived engine
   thread (numpy releases the GIL inside BLAS, so the event loop keeps
   admitting meanwhile).  No two batches ever overlap, so reads and
   writes are linearizable by construction; one fixed thread also means
   one glibc malloc arena, so the resident set stays flat.
4. **Accounting.**  Every answered request feeds the service stats:
   queries served per kind, a batch-size histogram, and a latency
   reservoir from which ``/stats`` reports p50/p99.

Results are bit-identical to calling the engine directly: batching only
changes *when* a request is executed, never what it computes (the
server integration tests assert this request-for-request).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import TracebackType
from typing import Callable

from repro.api import (
    Engine,
    QueryRequest,
    QueryResult,
    WriteRequest,
    WriteResult,
    apply_write,
    execute_batch,
)
from repro.core.resilience import Deadline, DeadlineExceeded

__all__ = ["QueryService", "ServiceOverloaded", "ServiceStats"]

#: Most recent per-request latencies (seconds) kept for the quantile
#: report; a bounded reservoir so a long-lived server's memory stays flat.
_LATENCY_RESERVOIR = 4096


class ServiceOverloaded(Exception):
    """The admission queue is full; the caller should retry later.

    ``retry_after`` is the server's hint (in seconds, integral) for the
    HTTP ``Retry-After`` header.
    """

    def __init__(self, depth: int, max_queue: int, retry_after: int = 1) -> None:
        super().__init__(
            f"query queue is full ({depth} in flight, bound {max_queue}); "
            "retry later"
        )
        self.retry_after = retry_after


@dataclass
class ServiceStats:
    """Counters a :class:`QueryService` maintains while serving.

    ``batch_sizes`` maps dispatched batch size → number of batches of
    that size; ``latencies`` holds the most recent per-request wall
    latencies in seconds (admission to answer, execution included).
    The reservoir records **served requests only** — rejected (503) and
    timed-out (504) requests never enter it, so p50/p99 describe answers
    clients actually received.  ``late_results`` counts answers the
    engine finished computing after the request had already timed out
    (wasted work, a sizing signal for ``timeout_ms`` vs batch cost).
    """

    started_at: float = field(default_factory=time.time)
    queries_served: int = 0
    queries_rejected: int = 0
    queries_failed: int = 0
    queries_timed_out: int = 0
    late_results: int = 0
    batches_dispatched: int = 0
    served_by_kind: dict = field(default_factory=dict)
    timed_out_by_kind: dict = field(default_factory=dict)
    batch_sizes: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)

    def record_batch(self, size: int) -> None:
        self.batches_dispatched += 1
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def record_served(self, kind: str, latency: float) -> None:
        self.queries_served += 1
        self.served_by_kind[kind] = self.served_by_kind.get(kind, 0) + 1
        self.latencies.append(latency)
        if len(self.latencies) > _LATENCY_RESERVOIR:
            del self.latencies[: -_LATENCY_RESERVOIR]

    def record_timeout(self, kind: str) -> None:
        self.queries_timed_out += 1
        self.timed_out_by_kind[kind] = self.timed_out_by_kind.get(kind, 0) + 1

    def latency_quantiles(self) -> dict:
        """p50/p99 (seconds) over the reservoir; zeros before any traffic."""
        if not self.latencies:
            return {"p50": 0.0, "p99": 0.0}
        ordered = sorted(self.latencies)
        last = len(ordered) - 1
        return {
            "p50": ordered[int(last * 0.50)],
            "p99": ordered[int(last * 0.99)],
        }

    def snapshot(self) -> dict:
        """The JSON-safe dict ``/stats`` returns."""
        quantiles = self.latency_quantiles()
        return {
            "uptime_seconds": time.time() - self.started_at,
            "queries_served": self.queries_served,
            "queries_rejected": self.queries_rejected,
            "queries_failed": self.queries_failed,
            "queries_timed_out": self.queries_timed_out,
            "late_results": self.late_results,
            "served_by_kind": dict(self.served_by_kind),
            "timed_out_by_kind": dict(self.timed_out_by_kind),
            "batches_dispatched": self.batches_dispatched,
            "batch_size_histogram": {
                str(size): count for size, count in sorted(self.batch_sizes.items())
            },
            "mean_batch_size": (
                self.queries_served / self.batches_dispatched
                if self.batches_dispatched
                else 0.0
            ),
            "latency_ms": {
                "p50": quantiles["p50"] * 1000.0,
                "p99": quantiles["p99"] * 1000.0,
            },
        }


class _Pending:
    """One admitted request awaiting its answer."""

    __slots__ = ("request", "future", "admitted_at", "deadline", "timer")

    def __init__(
        self,
        request: QueryRequest,
        future: asyncio.Future,
        deadline: Deadline | None = None,
    ) -> None:
        self.request = request
        self.future = future
        self.admitted_at = time.perf_counter()
        self.deadline = deadline
        self.timer: asyncio.TimerHandle | None = None


class QueryService:
    """Admission + micro-batching front of one loaded engine.

    Parameters
    ----------
    engine : LES3 or ShardedLES3, optional
        The loaded engine (any kind — the unified query API hides the
        difference), or None to open one later with :meth:`load`.
    max_batch : int, default 64
        Largest batch ever dispatched to the engine (``max_batch=1`` for
        strict one-request-per-call).
    max_queue : int, default 256
        Admission bound: maximum admitted-but-unanswered requests.
        Beyond it :meth:`submit` raises :class:`ServiceOverloaded`.
    default_timeout_ms : int, optional
        Deadline applied to requests that do not carry their own
        ``timeout_ms``.  None (the default) means no implicit deadline.
    max_timeout_ms : int, optional
        Server-side cap: a request asking for a longer budget is clamped
        to this.  None means clients may ask for any budget.

    Deadlines are anchored at **admission**, so time spent queued behind
    a busy engine counts against the budget.  An expired request fails
    with :class:`~repro.core.resilience.DeadlineExceeded` (the HTTP
    layer answers 504) and is counted in ``queries_timed_out`` — never
    in the latency reservoir.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        max_batch: int = 64,
        max_queue: int = 256,
        default_timeout_ms: int | None = None,
        max_timeout_ms: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        for name, value in (
            ("default_timeout_ms", default_timeout_ms),
            ("max_timeout_ms", max_timeout_ms),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.engine = engine
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.stats = ServiceStats()
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue()
        self._in_flight = 0
        self._dispatcher: asyncio.Task | None = None
        self._running: list[_Pending] = []  # the batch on the engine thread
        self._idle = asyncio.Event()  # nothing queued, no batch running
        self._idle.set()
        # The thread starts on first use, so constructing a service is free.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def load(self, open_engine: Callable[[], Engine]) -> None:
        """Open the engine on the engine thread, where its batches will run.

        Loading allocates the index; doing it on the thread that serves
        it keeps the load and every batch in one malloc arena.
        """
        loop = asyncio.get_running_loop()
        self.engine = await loop.run_in_executor(self._executor, open_engine)

    async def start(self) -> "QueryService":
        """Start the dispatcher loop (idempotent)."""
        if self.engine is None:
            raise RuntimeError("QueryService has no engine: pass one or load() it")
        if self._dispatcher is None:
            self.stats.started_at = time.time()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        return self

    async def stop(self) -> None:
        """Drain nothing, cancel the dispatcher, fail unanswered requests.

        Every admitted request still waiting for its answer — queued, or
        in the batch on the engine thread — fails with
        :class:`ConnectionError` (the HTTP layer answers ``503``).  A
        batch already running finishes on the engine thread; nothing
        waits for it, and its answers are discarded.
        """
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._executor.shutdown(wait=False, cancel_futures=True)
        unanswered = self._running
        while not self._queue.empty():
            unanswered.append(self._queue.get_nowait())
        for pending in unanswered:
            if not pending.future.done():
                pending.future.set_exception(
                    ConnectionError("query service is shutting down")
                )
        self._running = []
        self._idle.set()

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        await self.stop()
        return False

    @property
    def queue_depth(self) -> int:
        """Admitted-but-unanswered requests right now."""
        return self._in_flight

    async def wait_idle(self) -> None:
        """Return once nothing is queued and no batch is running."""
        await self._idle.wait()

    # -- admission ---------------------------------------------------------

    def _effective_timeout_ms(
        self, request: QueryRequest | WriteRequest
    ) -> int | None:
        """The request's deadline budget after the server's policy."""
        # Writes carry no per-request budget; the service default (and
        # cap) still applies, bounding their time in the queue.
        timeout_ms = getattr(request, "timeout_ms", None)
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        if timeout_ms is not None and self.max_timeout_ms is not None:
            timeout_ms = min(timeout_ms, self.max_timeout_ms)
        return timeout_ms

    def _expire(self, pending: _Pending, timeout_ms: int) -> None:
        """Timer callback: the request ran out of budget before answering."""
        if pending.future.done():
            return
        self.stats.record_timeout(pending.request.kind)
        pending.future.set_exception(
            DeadlineExceeded(
                f"{pending.request.kind} request exceeded its {timeout_ms}ms "
                "budget (queueing + execution)"
            )
        )

    async def submit(
        self, request: QueryRequest | WriteRequest
    ) -> QueryResult | WriteResult:
        """Admit one request, await its (possibly batched) answer.

        Writes (:class:`~repro.api.WriteRequest`) share the admission
        queue and the micro-batches with queries; within a batch all
        writes are applied first, in admission order, so queries batched
        behind a write observe it.

        Raises
        ------
        ServiceOverloaded
            When the admission bound is hit; the request was *not*
            enqueued.
        DeadlineExceeded
            When the request's deadline (its ``timeout_ms``, the
            service default, or the server cap — whichever is tightest)
            expired before an answer was ready.
        """
        if self._closed or self._dispatcher is None:
            raise ConnectionError("query service is not running")
        if self._in_flight >= self.max_queue:
            self.stats.queries_rejected += 1
            raise ServiceOverloaded(self._in_flight, self.max_queue)
        self._in_flight += 1
        loop = asyncio.get_running_loop()
        timeout_ms = self._effective_timeout_ms(request)
        pending = _Pending(
            request, loop.create_future(), Deadline.from_timeout_ms(timeout_ms)
        )
        if timeout_ms is not None:
            pending.timer = loop.call_later(
                timeout_ms / 1000.0, self._expire, pending, timeout_ms
            )
        self._idle.clear()
        self._queue.put_nowait(pending)
        try:
            return await pending.future
        finally:
            if pending.timer is not None:
                pending.timer.cancel()
            self._in_flight -= 1

    # -- batching ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Run whatever is queued, one batch at a time, in admission order.

        Each batch is awaited before the next is taken, so whatever
        arrives while the engine is busy leaves together in the next
        batch: the engine's busy time is the only batching window, and
        an idle service dispatches a lone request at once.
        """
        while True:
            if self._queue.empty():
                self._idle.set()
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            # Left set if stop() cancels the batch: stop() fails its members.
            self._running = batch
            await self._run_batch(batch)
            self._running = []

    @staticmethod
    def _batch_deadline(batch: list[_Pending]) -> Deadline | None:
        """The engine-side deadline for a batch: its most patient member.

        A single deadline bounds the whole engine call, so the batch
        must be allowed to run as long as its longest-budget request;
        shorter-budget members are failed individually by their timers.
        One member without a deadline means the batch runs unbounded.
        """
        deadlines = [pending.deadline for pending in batch]
        if any(deadline is None for deadline in deadlines):
            return None
        return max(deadlines, key=lambda deadline: deadline.expires_at)

    @staticmethod
    def _apply_writes(engine: Engine, requests: list[WriteRequest]) -> list:
        """Apply admitted writes in arrival order.

        Failures are captured per write (a bad remove must not fail the
        insert admitted after it), so the returned list holds a
        :class:`~repro.api.WriteResult` or the exception, positionally.
        """
        outcomes: list[WriteResult | Exception] = []
        for request in requests:
            try:
                outcomes.append(apply_write(engine, request))
            except Exception as error:  # noqa: BLE001 - forwarded per request
                outcomes.append(error)
        return outcomes

    async def _run_batch(self, batch: list[_Pending]) -> None:
        self.stats.record_batch(len(batch))
        loop, engine = asyncio.get_running_loop(), self.engine
        assert engine is not None  # start() refuses to run without one
        # Writes first, in admission order: queries admitted into the
        # same batch observe every write that was admitted before them.
        writes = [p for p in batch if isinstance(p.request, WriteRequest)]
        reads = [p for p in batch if not isinstance(p.request, WriteRequest)]
        if writes:
            outcomes = await loop.run_in_executor(
                self._executor, self._apply_writes, engine, [p.request for p in writes]
            )
            finished = time.perf_counter()
            for pending, outcome in zip(writes, outcomes):
                if pending.future.done():
                    # The client's deadline expired while the write
                    # waited its turn — but the op *was* applied (a 504
                    # on a write means unconfirmed, not undone).
                    self.stats.late_results += 1
                    continue
                if isinstance(outcome, Exception):
                    self.stats.queries_failed += 1
                    pending.future.set_exception(outcome)
                else:
                    self.stats.record_served(
                        pending.request.kind, finished - pending.admitted_at
                    )
                    pending.future.set_result(outcome)
        if not reads:
            return
        requests = [pending.request for pending in reads]
        deadline = self._batch_deadline(reads)
        try:
            results = await loop.run_in_executor(
                self._executor, execute_batch, engine, requests, deadline
            )
        except Exception as error:  # noqa: BLE001 - forwarded per request
            timed_out = isinstance(error, DeadlineExceeded)
            for pending in reads:
                if pending.future.done():
                    continue
                if timed_out:
                    self.stats.record_timeout(pending.request.kind)
                else:
                    self.stats.queries_failed += 1
                pending.future.set_exception(error)
            return
        finished = time.perf_counter()
        for pending, result in zip(reads, results):
            if pending.future.done():
                # Timed out (or shed) while we were computing: the
                # answer is wasted work, not a served request — keep
                # it out of the latency reservoir.
                self.stats.late_results += 1
                continue
            self.stats.record_served(
                pending.request.kind, finished - pending.admitted_at
            )
            pending.future.set_result(result)
