"""scalar vs columnar verification must be bit-identical on every path.

``verify="columnar"`` is purely a throughput knob: knn, range, batch, and
sharded scatter-gather queries must return the same records with the same
similarity floats in the same order as ``verify="scalar"``, and the cost
counters (``candidates_verified``, ``similarity_computations``) must agree
exactly.  Randomized datasets, sets and multisets, all measures.
"""

from __future__ import annotations

import random

import pytest

from repro.core import search
from repro.core.batch import batch_knn_search, batch_range_search
from repro.core.dataset import Dataset
from repro.core.engine import LES3
from repro.core.sets import SetRecord
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3
from repro.partitioning import MinTokenPartitioner
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
                assert_same_result(
                    engine.knn_record(query, k, verify="scalar"),
                    engine.knn_record(query, k, verify="columnar"),
                )
            for threshold in (0.0, 0.35, 0.7, 1.0):
                assert_same_result(
                    engine.range_record(query, threshold, verify="scalar"),
                    engine.range_record(query, threshold, verify="columnar"),
                )

    def test_engine_default_mode_is_columnar_and_overridable(self):
        dataset = zipf_dataset(80, 120, (2, 6), seed=9)
        engine = LES3.build(dataset, num_groups=4, partitioner=MinTokenPartitioner())
        assert engine.verify == "columnar"
        scalar_engine = LES3(dataset, engine.tgm, verify="scalar")
        query = dataset.records[0]
        assert_same_result(engine.knn_record(query, 5), scalar_engine.knn_record(query, 5))

    def test_roaring_backend(self):
        dataset = zipf_dataset(100, 150, (2, 7), seed=12)
        engine = LES3.build(
            dataset, num_groups=6, partitioner=MinTokenPartitioner(), backend="roaring"
        )
        for query in sample_queries(dataset, 6, seed=3):
            assert_same_result(
                engine.knn_record(query, 5, verify="scalar"),
                engine.knn_record(query, 5, verify="columnar"),
            )
            assert_same_result(
                engine.range_record(query, 0.5, verify="scalar"),
                engine.range_record(query, 0.5, verify="columnar"),
            )


class TestBatch:
    def test_batch_range_and_knn(self):
        dataset = zipf_dataset(130, 220, (2, 8), seed=17)
        engine = LES3.build(dataset, num_groups=6, partitioner=MinTokenPartitioner())
        queries = sample_queries(dataset, 10, seed=4) + perturbed_queries(dataset, 6, seed=5)
        for threshold in (0.0, 0.5, 0.9):
            scalar = batch_range_search(dataset, engine.tgm, queries, threshold, verify="scalar")
            columnar = batch_range_search(dataset, engine.tgm, queries, threshold, verify="columnar")
            for a, b in zip(scalar, columnar):
                assert_same_result(a, b)
        for k in (1, 7, len(dataset) + 5):
            scalar = batch_knn_search(dataset, engine.tgm, queries, k, verify="scalar")
            columnar = batch_knn_search(dataset, engine.tgm, queries, k, verify="columnar")
            for a, b in zip(scalar, columnar):
                assert_same_result(a, b)


class TestSharded:
    @pytest.mark.parametrize("shards", [1, 3, 5])
    def test_gather_paths(self, shards):
        dataset = zipf_dataset(160, 260, (2, 8), seed=23)
        sharded = ShardedLES3.build(
            dataset, shards, num_groups=8,
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        )
        assert sharded.verify == "columnar"
        queries = sample_queries(dataset, 8, seed=6) + perturbed_queries(dataset, 6, seed=7)
        for query in queries:
            for k in (1, 6, len(dataset) + 5):
                assert_same_result(
                    sharded.knn_record(query, k, verify="scalar"),
                    sharded.knn_record(query, k, verify="columnar"),
                )
            assert_same_result(
                sharded.range_record(query, 0.4, verify="scalar"),
                sharded.range_record(query, 0.4, verify="columnar"),
            )
        for a, b in zip(
            sharded.batch_knn_record(queries, 5, verify="scalar"),
            sharded.batch_knn_record(queries, 5, verify="columnar"),
        ):
            assert_same_result(a, b)
        for a, b in zip(
            sharded.batch_range_record(queries, 0.6, verify="scalar"),
            sharded.batch_range_record(queries, 0.6, verify="columnar"),
        ):
            assert_same_result(a, b)

    def test_from_engine_inherits_verify_mode(self):
        dataset = zipf_dataset(60, 100, (2, 6), seed=29)
        engine = LES3.build(
            dataset, num_groups=4, partitioner=MinTokenPartitioner(), verify="scalar"
        )
        assert ShardedLES3.from_engine(engine, 2).verify == "scalar"

    def test_multiset_sharded(self):
        dataset = multiset_dataset(31)
        sharded = ShardedLES3.build(
            dataset, 3, num_groups=5,
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        )
        for query in dataset.records[:8]:
            assert_same_result(
                sharded.knn_record(query, 4, verify="scalar"),
                sharded.knn_record(query, 4, verify="columnar"),
            )


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
            assert_same_result(
                engine.knn_record(query, 5, verify="scalar"),
                engine.knn_record(query, 5, verify="columnar"),
            )
            assert_same_result(
                engine.range_record(query, 0.3, verify="scalar"),
                engine.range_record(query, 0.3, verify="columnar"),
            )
