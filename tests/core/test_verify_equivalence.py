"""The columnar kernel must be bit-identical to the scalar oracle on every path.

Every query verifies through the columnar kernel; the sequential
``measure(query, record)`` walk survives only as the oracle, armed with
:func:`repro.testing.oracle.armed`.  knn, range, batch, and sharded
scatter-gather queries must return the same records with the same
similarity floats in the same order under the oracle, and the cost
counters (``candidates_verified``, ``similarity_computations``,
``groups_pruned``) must agree exactly.  Randomized datasets, sets and
multisets, all measures.
"""

from __future__ import annotations

import random

import pytest

from repro.core import search
from repro.core.batch import batch_knn_search, batch_range_search
from repro.core.columnar import ColumnarView
from repro.core.dataset import Dataset
from repro.core.engine import LES3
from repro.core.sets import SetRecord
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3
from repro.partitioning import MinTokenPartitioner
from repro.testing import oracle
from repro.workloads import perturbed_queries, sample_queries


def multiset_dataset(seed: int, num_sets: int = 90, num_tokens: int = 60) -> Dataset:
    rng = random.Random(seed)
    return Dataset.from_token_lists(
        [
            [rng.randrange(num_tokens) for _ in range(rng.randint(1, 10))]
            for _ in range(num_sets)
        ]
    )


def assert_same_result(a, b):
    assert a.matches == b.matches  # identical floats, identical order
    assert a.stats.candidates_verified == b.stats.candidates_verified
    assert a.stats.similarity_computations == b.stats.similarity_computations
    assert a.stats.groups_pruned == b.stats.groups_pruned


def assert_matches_oracle(run):
    """``run()`` through the kernel equals ``run()`` under the scalar oracle."""
    columnar = run()
    with oracle.armed():
        scalar = run()
    if isinstance(columnar, list):
        assert len(scalar) == len(columnar)
        for a, b in zip(scalar, columnar):
            assert_same_result(a, b)
    else:
        assert_same_result(scalar, columnar)


class TestSingleEngine:
    @pytest.mark.parametrize("measure", sorted(["jaccard", "dice", "cosine", "overlap", "containment"]))
    @pytest.mark.parametrize("make", [lambda: zipf_dataset(150, 250, (2, 8), seed=5),
                                      lambda: multiset_dataset(6)])
    # 3: every tie class and every range candidate list spans many kernel chunks.
    @pytest.mark.parametrize("chunk", [3, search._WAVE_CHUNK])
    def test_knn_and_range(self, measure, make, chunk, monkeypatch):
        monkeypatch.setattr(search, "_WAVE_CHUNK", chunk)
        dataset = make()
        engine = LES3.build(
            dataset, num_groups=8, partitioner=MinTokenPartitioner(), measure=measure
        )
        queries = sample_queries(dataset, 8, seed=1) + perturbed_queries(dataset, 8, seed=2)
        for query in queries:
            for k in (1, 4, 12, len(dataset) + 5):
                assert_matches_oracle(lambda: engine.knn_record(query, k))
            for threshold in (0.0, 0.35, 0.7, 1.0):
                assert_matches_oracle(lambda: engine.range_record(query, threshold))

    def test_armed_oracle_bypasses_the_kernel(self, monkeypatch):
        """The comparisons above are only meaningful if arming swaps the path."""
        dataset = zipf_dataset(80, 120, (2, 6), seed=9)
        engine = LES3.build(dataset, num_groups=4, partitioner=MinTokenPartitioner())
        expected = [engine.knn_record(dataset.records[0], 5), engine.join(0.5)]

        def kernel_called(*args, **kwargs):
            raise AssertionError("the columnar kernel ran under the oracle")

        monkeypatch.setattr(ColumnarView, "overlaps", kernel_called)
        monkeypatch.setattr(ColumnarView, "pairwise_overlaps", kernel_called)
        with pytest.raises(AssertionError, match="kernel ran"):
            engine.knn_record(dataset.records[0], 5)
        with oracle.armed():
            assert oracle.active()
            knn = engine.knn_record(dataset.records[0], 5)
            joined = engine.join(0.5)
        assert not oracle.active()
        assert knn.matches == expected[0].matches
        assert joined.pairs == expected[1].pairs

    def test_roaring_backend(self):
        dataset = zipf_dataset(100, 150, (2, 7), seed=12)
        engine = LES3.build(
            dataset, num_groups=6, partitioner=MinTokenPartitioner(), backend="roaring"
        )
        for query in sample_queries(dataset, 6, seed=3):
            assert_matches_oracle(lambda: engine.knn_record(query, 5))
            assert_matches_oracle(lambda: engine.range_record(query, 0.5))


class TestBatch:
    def test_batch_range_and_knn(self):
        dataset = zipf_dataset(130, 220, (2, 8), seed=17)
        engine = LES3.build(dataset, num_groups=6, partitioner=MinTokenPartitioner())
        queries = sample_queries(dataset, 10, seed=4) + perturbed_queries(dataset, 6, seed=5)
        for threshold in (0.0, 0.5, 0.9):
            assert_matches_oracle(
                lambda: batch_range_search(dataset, engine.tgm, queries, threshold)
            )
        for k in (1, 7, len(dataset) + 5):
            assert_matches_oracle(lambda: batch_knn_search(dataset, engine.tgm, queries, k))


class TestSharded:
    @pytest.mark.parametrize("shards", [1, 3, 5])
    def test_gather_paths(self, shards):
        dataset = zipf_dataset(160, 260, (2, 8), seed=23)
        sharded = ShardedLES3.build(
            dataset, shards, num_groups=8,
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        )
        queries = sample_queries(dataset, 8, seed=6) + perturbed_queries(dataset, 6, seed=7)
        for query in queries:
            for k in (1, 6, len(dataset) + 5):
                assert_matches_oracle(lambda: sharded.knn_record(query, k))
            assert_matches_oracle(lambda: sharded.range_record(query, 0.4))
        assert_matches_oracle(lambda: sharded.batch_knn_record(queries, 5))
        assert_matches_oracle(lambda: sharded.batch_range_record(queries, 0.6))

    def test_multiset_sharded(self):
        dataset = multiset_dataset(31)
        sharded = ShardedLES3.build(
            dataset, 3, num_groups=5,
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        )
        for query in dataset.records[:8]:
            assert_matches_oracle(lambda: sharded.knn_record(query, 4))


class TestUpdates:
    def test_equivalence_survives_inserts_and_removes(self):
        dataset = zipf_dataset(110, 180, (2, 7), seed=37)
        engine = LES3.build(dataset, num_groups=6, partitioner=MinTokenPartitioner())
        engine.knn_record(dataset.records[0], 3)  # build the columnar view early
        for tokens in (["500", "501"], ["1", "2", "never-seen"], ["3", "3", "4"]):
            engine.insert(tokens)
        engine.remove(5)
        engine.remove(40)
        queries = sample_queries(dataset, 8, seed=8) + [
            dataset.records[-1],  # a freshly inserted record as the query
            SetRecord([0, 1, len(dataset.universe) + 3]),  # phantom token
        ]
        for query in queries:
            assert_matches_oracle(lambda: engine.knn_record(query, 5))
            assert_matches_oracle(lambda: engine.range_record(query, 0.3))
