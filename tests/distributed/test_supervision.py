"""Shard execution under faults: the exact answer, or the exception.

Shard work runs on the calling thread, one shard after another.  A
shard whose execution fails raises out of the engine call — an answer is
bit-identical to the single engine's or it is not returned — and the
failed call leaves nothing behind: the same call repeated returns the
pre-fault matches and ``QueryStats``.  A deadline is checked at every
shard boundary.

Faults are injected via :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import pytest

from repro.api import QueryRequest, execute, execute_batch
from repro.core.resilience import Deadline, DeadlineExceeded
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3
from repro.partitioning import MinTokenPartitioner
from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    armed,
    disarm,
    recording,
)
from repro.workloads import sample_queries


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


def minitoken_factory(shard_id: int) -> MinTokenPartitioner:
    return MinTokenPartitioner()


@pytest.fixture(scope="module")
def dataset():
    return zipf_dataset(150, 220, (2, 8), seed=31)


@pytest.fixture(scope="module")
def queries(dataset):
    return sample_queries(dataset, 6, seed=3)


@pytest.fixture(scope="module")
def engine(dataset):
    return ShardedLES3.build(
        dataset, 4, num_groups=10,
        partitioner_factory=minitoken_factory, strategy="range",
    )


def shard_touching(engine, queries, shard_id):
    """A query whose kNN actually executes ``shard_id``."""
    needle = f"knn:shard={shard_id}"
    for query in queries:
        with recording() as trace:
            engine.knn_record(query, 5)
        if any(point == "shard.exec" and needle in detail for point, detail in trace):
            return query
    pytest.fail(f"no sample query dispatches shard {shard_id}")


def external_tokens(dataset, query):
    return [dataset.universe.token_of(token_id) for token_id in query.tokens]


def _knn(tokens):
    return QueryRequest.knn(tokens, k=40)


def _range(tokens):
    return QueryRequest.range(tokens, threshold=0.0)


# The four ways a shard is reached: the detail prefix of its fault point,
# and a call (engine, token lists) -> results that gets there.
REACHES = {
    "knn": ("knn:shard=", lambda e, ts: [execute(e, _knn(ts[0]))]),
    "range": ("range:shard=", lambda e, ts: [execute(e, _range(ts[0]))]),
    "batch_knn": ("knn:shard=", lambda e, ts: execute_batch(e, [_knn(t) for t in ts])),
    "batch_range": ("range:shard=", lambda e, ts: execute_batch(e, [_range(t) for t in ts])),
}


class TestExactOrError:
    def test_strict_serial_raises_on_shard_failure(self, engine, queries):
        query = shard_touching(engine, queries, 0)
        plan = FaultPlan([FaultRule("shard.exec", match="knn:shard=0", times=-1)])
        with armed(plan):
            with pytest.raises(InjectedFault):
                engine.knn_record(query, 5)

    def test_strict_batch_raises_on_shard_failure(self, engine, queries):
        plan = FaultPlan([FaultRule("shard.exec", match="knn:shard=0", times=-1)])
        with armed(plan):
            with pytest.raises(InjectedFault):
                engine.batch_knn_record(queries, 5)

    @pytest.mark.parametrize("reach", sorted(REACHES))
    def test_fault_raises_and_leaves_nothing_behind(self, engine, dataset, queries, reach):
        prefix, call = REACHES[reach]
        tokens = [external_tokens(dataset, query) for query in queries]
        before = call(engine, tokens)
        # skip=1: one shard's work is already merged when the second fails.
        rule = FaultRule("shard.exec", match=prefix, skip=1, times=-1)
        with armed(FaultPlan([rule])):
            with pytest.raises(InjectedFault, match=prefix):
                call(engine, tokens)
        assert rule.hits == 2 and rule.fired == 1
        after = call(engine, tokens)
        assert [r.matches for r in after] == [r.matches for r in before]
        assert [r.stats for r in after] == [r.stats for r in before]
        assert all(r.stats.extra == {} for r in after)


class TestDeadlines:
    def test_expired_deadline_refused_before_execution(self, engine, queries):
        with pytest.raises(DeadlineExceeded, match="before query execution"):
            engine.knn_record(queries[0], 5, deadline=Deadline(0.0))

    def test_slow_shard(self, engine, queries):
        query = shard_touching(engine, queries, 0)
        plan = FaultPlan(
            [FaultRule("shard.exec", action="delay", delay_seconds=0.1, times=-1)]
        )
        with armed(plan):
            with pytest.raises(DeadlineExceeded):
                engine.knn_record(query, 5, deadline=Deadline(0.05))
