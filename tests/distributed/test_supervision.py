"""Shard execution under faults: degraded mode and deadlines.

Shard work runs on the calling thread, one shard after another.  A
shard whose execution fails raises in strict mode — which must stay
bit-identical or raise, never silently drop a shard — and becomes
``stats.extra["failed_shards"]`` under ``degraded="partial"``; a
deadline is checked at every shard boundary and is never converted
into a failed shard.

Faults are injected via :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import pytest

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


class TestDegradedMode:
    def test_strict_serial_raises_on_shard_failure(self, engine, queries):
        query = shard_touching(engine, queries, 0)
        plan = FaultPlan([FaultRule("shard.exec", match="knn:shard=0", times=-1)])
        with armed(plan):
            with pytest.raises(InjectedFault):
                engine.knn_record(query, 5)

    def test_partial_serial_reports_failed_shards(self, engine, queries):
        query = shard_touching(engine, queries, 0)
        plan = FaultPlan([FaultRule("shard.exec", match="knn:shard=0", times=-1)])
        with armed(plan):
            result = engine.knn_record(query, 5, degraded="partial")
        assert result.stats.extra["failed_shards"] == [0]

    def test_partial_batch_reports_failed_shards(self, engine, queries):
        plan = FaultPlan([FaultRule("shard.exec", match="knn:shard=0", times=-1)])
        healthy = engine.batch_knn_record(queries, 5)
        with armed(plan):
            partial = engine.batch_knn_record(queries, 5, degraded="partial")
        flagged = [
            i for i, r in enumerate(partial)
            if r.stats.extra.get("failed_shards") == [0]
        ]
        assert flagged, "no query recorded the dead shard"
        untouched = [
            i for i, r in enumerate(partial) if "failed_shards" not in r.stats.extra
        ]
        for i in untouched:
            assert partial[i].matches == healthy[i].matches

    def test_strict_batch_raises_on_shard_failure(self, engine, queries):
        plan = FaultPlan([FaultRule("shard.exec", match="knn:shard=0", times=-1)])
        with armed(plan):
            with pytest.raises(InjectedFault):
                engine.batch_knn_record(queries, 5)


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

    def test_partial_mode_never_masks_deadlines(self, engine, queries):
        # DeadlineExceeded is fatal: degraded mode must not convert an
        # expired budget into failed_shards.
        query = shard_touching(engine, queries, 0)
        plan = FaultPlan(
            [FaultRule("shard.exec", action="delay", delay_seconds=0.1, times=-1)]
        )
        with armed(plan):
            with pytest.raises(DeadlineExceeded):
                engine.knn_record(query, 5, degraded="partial",
                                  deadline=Deadline(0.05))
