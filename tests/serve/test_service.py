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


def test_concurrent_requests_coalesce_into_batches(engine):
    async def main():
        # A generous window so every concurrently submitted request lands
        # in one batch deterministically.
        async with QueryService(engine, batch_window_ms=50.0, max_batch=64) as service:
            requests = [QueryRequest.knn(_query(engine, i), k=3) for i in range(32)]
            results = await asyncio.gather(*(service.submit(r) for r in requests))
            for request, result in zip(requests, results):
                assert result.matches == execute(engine, request).matches
            assert service.stats.queries_served == 32
            assert service.stats.batches_dispatched < 32  # really coalesced
            assert max(service.stats.batch_sizes) > 1

    asyncio.run(main())


def test_max_batch_bounds_batch_size(engine):
    async def main():
        async with QueryService(engine, batch_window_ms=50.0, max_batch=4) as service:
            requests = [QueryRequest.knn(_query(engine, i), k=3) for i in range(10)]
            await asyncio.gather(*(service.submit(r) for r in requests))
            assert max(service.stats.batch_sizes) <= 4

    asyncio.run(main())


def test_admission_bound_sheds_load(engine):
    async def main():
        # One slot: the second in-flight request must be rejected with the
        # Retry-After hint the HTTP layer forwards.
        async with QueryService(engine, batch_window_ms=200.0, max_queue=1) as service:
            first = asyncio.ensure_future(
                service.submit(QueryRequest.knn(_query(engine, 0), k=3))
            )
            await asyncio.sleep(0)  # let it enter the queue
            with pytest.raises(ServiceOverloaded) as caught:
                await service.submit(QueryRequest.knn(_query(engine, 1), k=3))
            assert caught.value.retry_after >= 1
            assert service.stats.queries_rejected == 1
            assert (await first).matches  # the admitted one still completes

    asyncio.run(main())


def test_engine_errors_fail_the_request_not_the_service(engine):
    async def main():
        async with QueryService(engine, batch_window_ms=0.0) as service:
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


def test_constructor_validates_knobs(engine):
    for kwargs in (
        {"batch_window_ms": -1},
        {"max_batch": 0},
        {"max_queue": 0},
        {"concurrency": 0},
    ):
        with pytest.raises(ValueError):
            QueryService(engine, **kwargs)


def test_stats_snapshot_shape(engine):
    async def main():
        async with QueryService(engine, batch_window_ms=20.0) as service:
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


def test_timeout_expires_queued_request(engine):
    from repro.serve import DeadlineExceeded

    async def main():
        # A long batch window so the 10ms budget expires while the
        # request is still queued — deterministic, no slow engine needed.
        async with QueryService(engine, batch_window_ms=150.0) as service:
            request = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=10)
            with pytest.raises(DeadlineExceeded, match="budget"):
                await service.submit(request)
            assert service.stats.queries_timed_out == 1
            assert service.stats.timed_out_by_kind == {"knn": 1}
            # The whole batch expired before dispatch, so the engine never
            # ran it: no served answers, and the reservoir stays clean.
            await asyncio.sleep(0.3)
            assert service.stats.queries_served == 0
            assert service.stats.latencies == []

    asyncio.run(main())


def test_late_result_is_counted_and_kept_out_of_reservoir(engine):
    from repro.serve import DeadlineExceeded

    async def main():
        # Two requests with the same 100ms budget, admitted 150ms apart
        # inside one 200ms batch window: the batch runs on the *most
        # patient* member's deadline, so the early request expires (504)
        # while the late one is served — and the early one's wasted
        # answer lands in ``late_results``, not the latency reservoir.
        async with QueryService(engine, batch_window_ms=200.0) as service:
            early = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=100)
            late = QueryRequest.knn(_query(engine, 1), k=3, timeout_ms=100)
            first = asyncio.ensure_future(service.submit(early))
            await asyncio.sleep(0.15)
            second = asyncio.ensure_future(service.submit(late))
            with pytest.raises(DeadlineExceeded):
                await first
            result = await second
            assert result.matches == execute(engine, late).matches
            assert service.stats.queries_timed_out == 1
            assert service.stats.late_results == 1
            assert service.stats.queries_served == 1
            assert len(service.stats.latencies) == 1

    asyncio.run(main())


def test_default_timeout_applies_to_bare_requests(engine):
    from repro.serve import DeadlineExceeded

    async def main():
        async with QueryService(
            engine, batch_window_ms=150.0, default_timeout_ms=10
        ) as service:
            with pytest.raises(DeadlineExceeded):
                await service.submit(QueryRequest.knn(_query(engine, 0), k=3))

    asyncio.run(main())


def test_max_timeout_caps_client_budgets(engine):
    from repro.serve import DeadlineExceeded

    async def main():
        async with QueryService(
            engine, batch_window_ms=150.0, max_timeout_ms=10
        ) as service:
            request = QueryRequest.knn(_query(engine, 0), k=3, timeout_ms=60_000)
            with pytest.raises(DeadlineExceeded):
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
