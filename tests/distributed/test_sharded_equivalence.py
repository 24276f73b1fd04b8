"""ShardedLES3 must be bit-identical to LES3 — the exactness contract.

Sharding is a throughput knob, never a correctness one: for every shard
count, placement strategy, backend, and measure, every query must return
the same records with the same similarities in the same order as the
single-node engine.  The suite also covers the update path (open-universe
inserts, logical deletes) and the batch scatter-gather.
"""

from __future__ import annotations

import pytest

from repro.core import Dataset, TokenGroupMatrix
from repro.core.engine import LES3
from repro.datasets import uniform_dataset, zipf_dataset
from repro.distributed import ShardedLES3
from repro.learn import L2PPartitioner
from repro.partitioning import MinTokenPartitioner
from repro.workloads import perturbed_queries, sample_queries

SHARD_COUNTS = (1, 2, 5)


def minitoken_factory(shard_id: int) -> MinTokenPartitioner:
    return MinTokenPartitioner()


def build_pair(dataset, num_groups=8, backend="dense", measure="jaccard", shards=2,
               strategy="hash"):
    single = LES3.build(
        dataset, num_groups=num_groups, partitioner=MinTokenPartitioner(),
        measure=measure, backend=backend,
    )
    sharded = ShardedLES3.build(
        dataset, shards, num_groups=num_groups,
        partitioner_factory=minitoken_factory, measure=measure, backend=backend,
        strategy=strategy,
    )
    return single, sharded


def assert_equivalent(single, sharded, queries, ks=(1, 3, 10), thresholds=(0.0, 0.3, 0.7, 1.0)):
    for query in queries:
        for k in ks:
            assert single.knn_record(query, k).matches == sharded.knn_record(query, k).matches
        for threshold in thresholds:
            assert (
                single.range_record(query, threshold).matches
                == sharded.range_record(query, threshold).matches
            )


class TestQueryEquivalence:
    @pytest.fixture(scope="class")
    def zipf(self):
        return zipf_dataset(180, 300, (2, 8), seed=3)

    @pytest.fixture(scope="class")
    def queries(self, zipf):
        return sample_queries(zipf, 12, seed=1) + perturbed_queries(zipf, 12, seed=2)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_knn_and_range_identical(self, zipf, queries, shards):
        single, sharded = build_pair(zipf, shards=shards)
        assert_equivalent(single, sharded, queries)

    @pytest.mark.parametrize("strategy", ["hash", "size", "range"])
    def test_every_placement_strategy(self, zipf, queries, strategy):
        single, sharded = build_pair(zipf, shards=5, strategy=strategy)
        assert_equivalent(single, sharded, queries[:8])

    @pytest.mark.parametrize("measure", ["cosine", "dice", "containment"])
    def test_other_measures(self, zipf, queries, measure):
        single, sharded = build_pair(zipf, shards=2, measure=measure)
        assert_equivalent(single, sharded, queries[:6], ks=(2, 5), thresholds=(0.4, 0.8))

    def test_uniform_data(self):
        dataset = uniform_dataset(140, 90, (2, 5), seed=9)
        single, sharded = build_pair(dataset, shards=5)
        assert_equivalent(single, sharded, sample_queries(dataset, 10, seed=3))

    def test_k_exceeding_database(self, zipf, queries):
        single, sharded = build_pair(zipf, shards=5)
        for query in queries[:4]:
            a = single.knn_record(query, len(zipf.records) + 10)
            b = sharded.knn_record(query, len(zipf.records) + 10)
            assert a.matches == b.matches
            assert len(a) == len(zipf.records)

    def test_unknown_token_queries(self, zipf):
        single, sharded = build_pair(zipf, shards=2)
        for tokens in (["nope"], ["nope", "nada"], [0, "ghost", "ghost"]):
            assert single.knn(tokens, 5).matches == sharded.knn(tokens, 5).matches
            assert single.range(tokens, 0.1).matches == sharded.range(tokens, 0.1).matches

    def test_cross_partitioner_equivalence(self, zipf, queries):
        """Exactness holds even when the two engines partition differently."""
        single = LES3.build(
            zipf, num_groups=8,
            partitioner=L2PPartitioner(pairs_per_model=200, epochs=1, initial_groups=4,
                                       min_group_size=5, seed=0),
        )
        sharded = ShardedLES3.build(
            zipf, 5, num_groups=8, partitioner_factory=minitoken_factory,
        )
        assert_equivalent(single, sharded, queries[:8], ks=(3,), thresholds=(0.5,))


class TestRoaringBackend:
    @pytest.fixture(scope="class")
    def pair(self):
        dataset = zipf_dataset(150, 260, (2, 7), seed=21)
        return build_pair(dataset, backend="roaring", shards=5) + (dataset,)

    def test_equivalence(self, pair):
        single, sharded, dataset = pair
        assert_equivalent(single, sharded, sample_queries(dataset, 10, seed=5))

    def test_batch_equivalence(self, pair):
        single, sharded, dataset = pair
        queries = sample_queries(dataset, 10, seed=6)
        for i, result in enumerate(sharded.batch_knn_record(queries, 4)):
            assert result.matches == single.knn_record(queries[i], 4).matches
        for i, result in enumerate(sharded.batch_range_record(queries, 0.5)):
            assert result.matches == single.range_record(queries[i], 0.5).matches


class TestBatchEquivalence:
    @pytest.fixture(scope="class")
    def stack(self):
        dataset = zipf_dataset(160, 280, (2, 8), seed=13)
        single, sharded = build_pair(dataset, shards=5)
        queries = sample_queries(dataset, 15, seed=7) + perturbed_queries(dataset, 10, seed=8)
        return single, sharded, queries

    def test_batch_knn(self, stack):
        single, sharded, queries = stack
        results = sharded.batch_knn_record(queries, 6)
        assert len(results) == len(queries)
        for i, result in enumerate(results):
            assert result.matches == single.knn_record(queries[i], 6).matches

    @pytest.mark.parametrize("threshold", [0.0, 0.4, 0.9])
    def test_batch_range(self, stack, threshold):
        single, sharded, queries = stack
        results = sharded.batch_range_record(queries, threshold)
        for i, result in enumerate(results):
            assert result.matches == single.range_record(queries[i], threshold).matches

    def test_empty_batch(self, stack):
        _, sharded, _ = stack
        assert sharded.batch_knn_record([], 3) == []
        assert sharded.batch_range_record([], 0.5) == []


class TestUpdateEquivalence:
    @pytest.fixture()
    def engines(self):
        # Function scope: each test mutates its own pair of engines.
        dataset_a = zipf_dataset(120, 200, (2, 6), seed=31)
        dataset_b = zipf_dataset(120, 200, (2, 6), seed=31)
        single = LES3.build(dataset_a, num_groups=6, partitioner=MinTokenPartitioner())
        sharded = ShardedLES3.build(
            dataset_b, 3, num_groups=6, partitioner_factory=minitoken_factory
        )
        return single, sharded

    def test_inserts_align_record_indices(self, engines):
        single, sharded = engines
        for tokens in (["7", "9"], ["unseen", "tokens", "here"], ["1", "2", "3"]):
            index_a, _ = single.insert(tokens)
            index_b, shard_id, group_id = sharded.insert(tokens)
            assert index_a == index_b
            assert 0 <= shard_id < sharded.num_shards
        queries = sample_queries(single.dataset, 8, seed=9)
        assert_equivalent(single, sharded, queries, ks=(3, 8), thresholds=(0.3, 0.8))
        # The inserted sets are findable in both engines.
        assert single.knn(["unseen", "tokens", "here"], 1).matches == \
            sharded.knn(["unseen", "tokens", "here"], 1).matches

    def test_insert_routes_to_lightest_shard(self, engines):
        _, sharded = engines
        sizes_before = sharded.shard_sizes()
        lightest = min(range(sharded.num_shards), key=lambda s: (sizes_before[s], s))
        _, shard_id, _ = sharded.insert(["balance", "me"])
        assert shard_id == lightest
        sizes_after = sharded.shard_sizes()
        assert sizes_after[shard_id] == sizes_before[shard_id] + 1

    def test_removes_stay_equivalent(self, engines):
        single, sharded = engines
        for record_index in (0, 7, 55, 119):
            single.remove(record_index)
            sharded.remove(record_index)
        queries = sample_queries(single.dataset, 8, seed=10)
        assert_equivalent(single, sharded, queries, ks=(3, 12), thresholds=(0.0, 0.5))
        removed = single.dataset.records[7]
        assert 7 not in single.knn_record(removed, 5).indices()
        assert 7 not in sharded.knn_record(removed, 5).indices()

    def test_double_remove_raises(self, engines):
        _, sharded = engines
        sharded.remove(3)
        with pytest.raises(KeyError):
            sharded.remove(3)

    def test_interleaved_insert_remove(self, engines):
        single, sharded = engines
        single.remove(10), sharded.remove(10)
        index_a, _ = single.insert(["x1", "x2"])
        index_b, _, _ = sharded.insert(["x1", "x2"])
        assert index_a == index_b
        single.remove(index_a), sharded.remove(index_b)
        queries = sample_queries(single.dataset, 6, seed=11)
        assert_equivalent(single, sharded, queries, ks=(4,), thresholds=(0.4,))


class TestJoinEquivalence:
    """The scatter-gather self-join must be bit-identical to the single engine."""

    @pytest.fixture(scope="class")
    def zipf(self):
        return zipf_dataset(150, 240, (2, 8), seed=43)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_shard_counts(self, zipf, shards):
        single, sharded = build_pair(zipf, shards=shards)
        for threshold in (0.4, 0.7, 1.0):
            expected = single.join(threshold).pairs
            assert sharded.join(threshold).pairs == expected
            assert sharded.join(threshold, verify="scalar").pairs == expected

    @pytest.mark.parametrize("strategy", ["hash", "size", "range"])
    def test_placement_strategies(self, zipf, strategy):
        single, sharded = build_pair(zipf, shards=4, strategy=strategy)
        assert sharded.join(0.5).pairs == single.join(0.5).pairs

    @pytest.mark.parametrize("measure", ["cosine", "dice", "containment"])
    def test_other_measures(self, zipf, measure):
        single, sharded = build_pair(zipf, shards=3, measure=measure)
        assert sharded.join(0.6).pairs == single.join(0.6).pairs

    def test_from_engine_resharding(self, zipf):
        single = LES3.build(zipf, num_groups=8, partitioner=MinTokenPartitioner())
        for shards in (2, 6):
            resharded = ShardedLES3.from_engine(single, shards)
            assert resharded.join(0.5).pairs == single.join(0.5).pairs

    def test_join_after_updates(self):
        dataset_a = zipf_dataset(110, 180, (2, 6), seed=47)
        dataset_b = zipf_dataset(110, 180, (2, 6), seed=47)
        single = LES3.build(dataset_a, num_groups=6, partitioner=MinTokenPartitioner())
        sharded = ShardedLES3.build(
            dataset_b, 3, num_groups=6, partitioner_factory=minitoken_factory
        )
        for tokens in (["5", "6", "7"], ["fresh", "tokens"], ["2", "2", "3"]):
            single.insert(tokens)
            sharded.insert(tokens)
        for record_index in (0, 17, 93):
            single.remove(record_index)
            sharded.remove(record_index)
        for threshold in (0.3, 0.8):
            assert sharded.join(threshold).pairs == single.join(threshold).pairs


class TestMultisetEquivalence:
    def test_multiset_records_and_queries(self):
        token_lists = [
            ["a", "a", "b"],
            ["a", "b", "b", "c"],
            ["c", "d"],
            ["a", "c", "c"],
            ["d", "d", "e"],
            ["b", "c", "d", "d"],
        ] * 8
        dataset_a = Dataset.from_token_lists(token_lists)
        dataset_b = Dataset.from_token_lists(token_lists)
        single = LES3.build(dataset_a, num_groups=4, partitioner=MinTokenPartitioner())
        sharded = ShardedLES3.build(
            dataset_b, 3, num_groups=4, partitioner_factory=minitoken_factory
        )
        for query in dataset_a.records[:6]:
            assert single.knn_record(query, 5).matches == sharded.knn_record(query, 5).matches
            assert (
                single.range_record(query, 0.5).matches
                == sharded.range_record(query, 0.5).matches
            )

    def test_multiset_join_across_shards(self):
        """Regression: the shard-pair cap must count a shared token's multiplicity."""
        dataset = Dataset.from_token_lists([["a", "a"], ["a", "a"], ["b"], ["b", "c"]])
        # One group per shard: the two {a, a} records meet only across shards.
        single = LES3(dataset, TokenGroupMatrix(dataset, [[0], [1], [2, 3]]))
        sharded = ShardedLES3.from_engine(single, 3)
        assert single.join(0.5).pairs == [(0, 1, 1.0), (2, 3, 0.5)]
        assert sharded.join(0.5).pairs == single.join(0.5).pairs
