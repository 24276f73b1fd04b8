"""Reads and writes through one :class:`QueryService` are linearizable.

Several reader coroutines and one writer share a service whose batches
mix ``knn`` reads with ``insert``/``remove`` writes.  For every read two
numbers bound what it may observe: ``L``, the writes already answered
when it was admitted, and ``U``, the writes admitted by the time it was
answered.  Its matches must equal the scalar oracle over the first ``p``
writes in admission order for some ``L <= p <= U`` — the read took
effect at one instant between its admission and its answer.
"""

from __future__ import annotations

import asyncio

from repro import Dataset, LES3
from repro.api import QueryRequest, WriteRequest, apply_write
from repro.partitioning import MinTokenPartitioner
from repro.serve import QueryService
from repro.testing import oracle

ROWS = [[f"t{(i * 7 + j * 3) % 31}" for j in range(2 + i % 5)] for i in range(120)]
READERS = 4
CHUNK = 3  # writes the writer keeps in flight at once


def _build() -> LES3:
    return LES3.build(
        Dataset.from_token_lists(ROWS), num_groups=8,
        partitioner=MinTokenPartitioner(),
    )


def _writes() -> list[WriteRequest]:
    writes = []
    for i in range(24):
        if i % 3 == 2:
            writes.append(WriteRequest.remove(i * 4))
        else:
            writes.append(WriteRequest.insert([f"t{i % 31}", f"t{(i * 11) % 31}", f"w{i}"]))
    return writes


def _reads(writes: list[WriteRequest]) -> list[QueryRequest]:
    """Probes whose answers move with the writes: inserted and removed sets."""
    probes = [
        list(w.tokens) if w.kind == "insert" else ROWS[w.index] for w in writes
    ]
    return [QueryRequest.knn(tokens, k=3) for tokens in probes]


def test_reads_see_an_admission_order_prefix_of_writes(engine_held):
    writes, reads = _writes(), _reads(_writes())
    admitted, answered = [], []  # writes, in admission / answer order
    observations = []  # (read, L, U, matches)
    mixed_batches = []

    async def write(service: QueryService, request: WriteRequest) -> None:
        admitted.append(request)  # same step as the admission below
        await service.submit(request)
        answered.append(request)

    async def read(service: QueryService, request: QueryRequest) -> None:
        low = len(answered)
        result = await service.submit(request)
        observations.append((request, low, len(admitted), result.matches))

    async def reader(service: QueryService, offset: int) -> None:
        for step in range(len(reads)):
            await read(service, reads[(offset * 5 + step) % len(reads)])

    async def writer(service: QueryService) -> None:
        for start in range(0, len(writes), CHUNK):
            # Tasks start in creation order, so admission follows the list.
            await asyncio.gather(*(write(service, w) for w in writes[start:start + CHUNK]))

    async def main() -> None:
        async with QueryService(_build(), max_batch=8) as service:
            run_batch = service._run_batch

            async def recording(batch) -> None:
                kinds = {isinstance(p.request, WriteRequest) for p in batch}
                mixed_batches.append(kinds == {True, False})
                await run_batch(batch)

            service._run_batch = recording
            clients = asyncio.ensure_future(asyncio.gather(
                writer(service), *(reader(service, r) for r in range(READERS))
            ))
            # Hold the engine again and again, so each batch is whatever
            # the clients admitted meanwhile: reads and writes together.
            while not clients.done():
                with engine_held(service):
                    for _ in range(50):
                        if service._queue.qsize() >= READERS or clients.done():
                            break
                        await asyncio.sleep(0.001)
                await asyncio.sleep(0.001)
            await clients

    asyncio.run(main())
    assert admitted == writes and len(answered) == len(writes)
    assert len(observations) == READERS * len(reads)
    assert any(mixed_batches)

    reference, expected = _build(), {}
    unmatched = list(observations)
    for prefix in range(len(writes) + 1):
        still = []
        for request, low, high, matches in unmatched:
            if low <= prefix <= high:
                key = (prefix, request.tokens)
                if key not in expected:
                    with oracle.armed():
                        expected[key] = reference.knn(list(request.tokens), 3).matches
                if expected[key] == matches:
                    continue
            still.append((request, low, high, matches))
        unmatched = still
        if prefix < len(writes):
            apply_write(reference, writes[prefix])
    assert not unmatched, unmatched[:3]
