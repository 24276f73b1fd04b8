"""Unit tests for the micro-batcher core (:mod:`repro.serve.service`).

Everything here runs against a real (small) engine but no HTTP: batching
behavior, the admission bound, lifecycle, and the stats the ``/stats``
endpoint reports.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Dataset, LES3
from repro.api import QueryRequest, execute
from repro.serve import QueryService, ServiceOverloaded, ServiceStats


@pytest.fixture(scope="module")
def engine() -> LES3:
    rows = [[f"t{(i * 5 + j) % 29}" for j in range(2 + i % 5)] for i in range(120)]
    return LES3.build(Dataset.from_token_lists(rows), num_groups=8)


def _query(engine: LES3, index: int) -> list:
    return [
        engine.dataset.universe.token_of(t)
        for t in engine.dataset.records[index].tokens
    ]


def test_submit_answers_bit_identically(engine):
    async def main():
        async with QueryService(engine) as service:
            request = QueryRequest.knn(_query(engine, 0), k=4)
            result = await service.submit(request)
            assert result.matches == execute(engine, request).matches
            request = QueryRequest.range(_query(engine, 1), threshold=0.5)
            assert (await service.submit(request)).matches == execute(
                engine, request
            ).matches

    asyncio.run(main())


async def _queue_behind_busy_engine(service, until, first, rest) -> list:
    """Submit ``first``, let it take the (held) engine, then queue ``rest``.

    Returns the submit tasks; they finish once the engine is released.
    """
    head = asyncio.ensure_future(service.submit(first))
    await until(lambda: service.stats.batches_dispatched == 1)
    tail = [asyncio.ensure_future(service.submit(request)) for request in rest]
    await until(lambda: service._queue.qsize() == len(rest))
    return [head, *tail]


def test_idle_service_dispatches_each_request_at_once(engine):
    async def main():
        async with QueryService(engine) as service:
            for i in range(5):
                request = QueryRequest.knn(_query(engine, i), k=3)
                task = asyncio.ensure_future(service.submit(request))
                # A handful of zero-length yields reach the engine: no timer
                # stands between an idle service and its lone request.
                for _ in range(10):
                    if service.stats.batches_dispatched > i:
                        break
                    await asyncio.sleep(0)
                assert service.stats.batches_dispatched == i + 1
                assert (await task).matches == execute(engine, request).matches
            assert service.stats.batch_sizes == {1: 5}

    asyncio.run(main())


def test_concurrent_requests_coalesce_into_batches(engine, engine_held, until):
    async def main():
        # Requests admitted while a batch holds the engine all leave
        # together in the next batch.
        async with QueryService(engine, max_batch=64) as service:
            requests = [QueryRequest.knn(_query(engine, i), k=3) for i in range(32)]
            with engine_held(service):
                tasks = await _queue_behind_busy_engine(
                    service, until, requests[0], requests[1:]
                )
            results = await asyncio.gather(*tasks)
            for request, result in zip(requests, results):
                assert result.matches == execute(engine, request).matches
            assert service.stats.queries_served == 32
            assert service.stats.batch_sizes == {1: 1, 31: 1}

    asyncio.run(main())


def test_max_batch_bounds_batch_size(engine, engine_held, until):
    async def main():
        async with QueryService(engine, max_batch=4) as service:
            requests = [QueryRequest.knn(_query(engine, i), k=3) for i in range(10)]
            with engine_held(service):
                tasks = await _queue_behind_busy_engine(
                    service, until, requests[0], requests[1:]
                )
            await asyncio.gather(*tasks)
            # The nine queued requests leave as 4 + 4 + 1.
            assert service.stats.batch_sizes == {1: 2, 4: 2}

    asyncio.run(main())


def test_admission_bound_sheds_load(engine, engine_held, until):
    async def main():
        # One slot: while the first request holds it (its batch waits on
        # the busy engine), the second must be rejected with the
        # Retry-After hint the HTTP layer forwards.
        async with QueryService(engine, max_queue=1) as service:
            with engine_held(service):
                (first,) = await _queue_behind_busy_engine(
                    service, until, QueryRequest.knn(_query(engine, 0), k=3), []
                )
                with pytest.raises(ServiceOverloaded) as caught:
                    await service.submit(QueryRequest.knn(_query(engine, 1), k=3))
            assert caught.value.retry_after >= 1
            assert service.stats.queries_rejected == 1
            assert (await first).matches  # the admitted one still completes

    asyncio.run(main())


def test_engine_errors_fail_the_request_not_the_service(engine):
    async def main():
        async with QueryService(engine) as service:
            bogus = QueryRequest(kind="fuzzy", tokens=("a",))
            with pytest.raises(ValueError, match="unknown query kind"):
                await service.submit(bogus)
            assert service.stats.queries_failed == 1
            # The service survives and keeps answering.
            good = QueryRequest.knn(_query(engine, 2), k=2)
            assert (await service.submit(good)).matches == execute(engine, good).matches

    asyncio.run(main())


def test_submit_after_stop_is_a_connection_error(engine):
    async def main():
        service = QueryService(engine)
        await service.start()
        await service.stop()
        with pytest.raises(ConnectionError):
            await service.submit(QueryRequest.knn(_query(engine, 0), k=1))

    asyncio.run(main())


def test_stop_fails_the_batch_on_the_engine_thread(engine, engine_held, until):
    async def main():
        # One request is in the batch the busy engine thread is about to
        # run, one is queued behind it: stop() answers both, so no caller
        # is left waiting on a batch whose answer nobody will deliver.
        service = QueryService(engine)
        await service.start()
        with engine_held(service):
            tasks = await _queue_behind_busy_engine(
                service, until,
                QueryRequest.knn(_query(engine, 0), k=3),
                [QueryRequest.knn(_query(engine, 1), k=3)],
            )
            await service.stop()
            for task in tasks:
                with pytest.raises(ConnectionError, match="shutting down"):
                    await asyncio.wait_for(task, 3)
        assert service.queue_depth == 0
        assert service.stats.queries_served == 0

    asyncio.run(main())


def test_constructor_validates_knobs(engine):
    for kwargs in (
        {"max_batch": 0},
        {"max_queue": 0},
    ):
        with pytest.raises(ValueError):
            QueryService(engine, **kwargs)
    # The batching window and the concurrency knob are gone, not ignored.
    for kwargs in ({"batch_window_ms": 2.0}, {"concurrency": 2}):
        with pytest.raises(TypeError):
            QueryService(engine, **kwargs)


def test_start_without_an_engine_is_refused():
    async def main():
        service = QueryService()
        with pytest.raises(RuntimeError, match="no engine"):
            await service.start()
        await service.stop()

    asyncio.run(main())


def test_stats_snapshot_shape(engine):
    async def main():
        async with QueryService(engine) as service:
            await asyncio.gather(
                *(
                    service.submit(QueryRequest.knn(_query(engine, i), k=2))
                    for i in range(8)
                )
            )
            snapshot = service.stats.snapshot()
            assert snapshot["queries_served"] == 8
            assert snapshot["served_by_kind"]["knn"] == 8
            assert snapshot["uptime_seconds"] >= 0
            assert snapshot["mean_batch_size"] >= 1
            assert sum(
                int(size) * count
                for size, count in snapshot["batch_size_histogram"].items()
            ) == 8
            assert snapshot["latency_ms"]["p99"] >= snapshot["latency_ms"]["p50"] > 0

    asyncio.run(main())


def test_latency_reservoir_is_bounded():
    stats = ServiceStats()
    for i in range(10_000):
        stats.record_served("knn", i * 1e-6)
    assert len(stats.latencies) <= 4096
    quantiles = stats.latency_quantiles()
    assert quantiles["p99"] >= quantiles["p50"]


def test_empty_stats_are_json_safe():
    snapshot = ServiceStats().snapshot()
    assert snapshot["latency_ms"] == {"p50": 0.0, "p99": 0.0}
    assert snapshot["mean_batch_size"] == 0.0


# -- deadlines ----------------------------------------------------------------


def test_timeout_expires_queued_request(engine, engine_held, until):
    from repro.serve import DeadlineExceeded

    async def main():
        # The 10ms budget runs out while the request is queued behind a
        # batch that holds the busy engine: the deadline is anchored at
        # admission, so queue time counts.
        async with QueryService(engine) as service:
            request = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=10)
            with engine_held(service):
                blocker, queued = await _queue_behind_busy_engine(
                    service, until, QueryRequest.knn(_query(engine, 1), k=3), [request]
                )
                with pytest.raises(DeadlineExceeded, match="budget"):
                    await queued
            assert service.stats.queries_timed_out == 1
            assert service.stats.timed_out_by_kind == {"knn": 1}
            await blocker
            # The expired request's batch fails its deadline check before
            # the engine does any work: only the blocker was served, and
            # the reservoir holds its latency alone.
            await until(lambda: service.stats.batches_dispatched == 2)
            await asyncio.wait_for(service.wait_idle(), 10)
            assert service.stats.queries_served == 1
            assert service.stats.late_results == 0
            assert len(service.stats.latencies) == 1

    asyncio.run(main())


def test_late_result_is_counted_and_kept_out_of_reservoir(engine, engine_held, until):
    from repro.serve import DeadlineExceeded

    async def main():
        # Two requests queue into one batch behind the busy engine: an
        # early one with a short budget that expires in the queue (504),
        # and a late, patient one.  The batch runs on its *most patient*
        # member's deadline, so the late request is served — and the
        # early one's wasted answer lands in ``late_results``, not the
        # latency reservoir.
        async with QueryService(engine) as service:
            early = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=20)
            late = QueryRequest.knn(_query(engine, 1), k=3, timeout_ms=60_000)
            with engine_held(service):
                blocker, first = await _queue_behind_busy_engine(
                    service, until, QueryRequest.knn(_query(engine, 2), k=3), [early]
                )
                with pytest.raises(DeadlineExceeded):
                    await first
                second = asyncio.ensure_future(service.submit(late))
                await until(lambda: service._queue.qsize() == 2)
            await blocker
            result = await second
            assert result.matches == execute(engine, late).matches
            assert service.stats.batch_sizes == {1: 1, 2: 1}
            assert service.stats.queries_timed_out == 1
            assert service.stats.late_results == 1
            assert service.stats.queries_served == 2  # the blocker and late
            assert len(service.stats.latencies) == 2

    asyncio.run(main())


def test_default_timeout_applies_to_bare_requests(engine, engine_held):
    from repro.serve import DeadlineExceeded

    async def main():
        async with QueryService(engine, default_timeout_ms=10) as service:
            with engine_held(service), pytest.raises(DeadlineExceeded):
                await service.submit(QueryRequest.knn(_query(engine, 0), k=3))

    asyncio.run(main())


def test_max_timeout_caps_client_budgets(engine, engine_held):
    from repro.serve import DeadlineExceeded

    async def main():
        async with QueryService(engine, max_timeout_ms=10) as service:
            request = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=60_000)
            with engine_held(service), pytest.raises(DeadlineExceeded):
                await service.submit(request)

    asyncio.run(main())


def test_generous_timeout_serves_normally(engine):
    async def main():
        async with QueryService(engine, default_timeout_ms=60_000) as service:
            request = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=30_000)
            result = await service.submit(request)
            assert result.matches == execute(engine, request).matches
            assert service.stats.queries_timed_out == 0
            assert service.stats.late_results == 0
            snapshot = service.stats.snapshot()
            for key in ("queries_timed_out", "late_results", "timed_out_by_kind"):
                assert key in snapshot

    asyncio.run(main())


def test_timeout_knob_validation(engine):
    with pytest.raises(ValueError, match="default_timeout_ms"):
        QueryService(engine, default_timeout_ms=0)
    with pytest.raises(ValueError, match="max_timeout_ms"):
        QueryService(engine, max_timeout_ms=-5)
