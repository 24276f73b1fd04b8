"""Tests for the Section 4.3 partitioners and the trivial ones."""

import pytest

from repro.core import Dataset
from repro.datasets import zipf_dataset
from repro.partitioning import (
    MinTokenPartitioner,
    ParAPartitioner,
    ParCPartitioner,
    ParDPartitioner,
    ParGPartitioner,
    RandomPartitioner,
    chunk_evenly,
    gpo,
)


@pytest.fixture(scope="module")
def clustered():
    """Four planted clusters of 15 sets, token-disjoint."""
    import random

    rng = random.Random(3)
    lists = []
    for cluster in range(4):
        base = cluster * 50
        for _ in range(15):
            lists.append([str(t) for t in rng.sample(range(base, base + 30), 6)])
    return Dataset.from_token_lists(lists)


ALL_PARTITIONERS = [
    RandomPartitioner(seed=0),
    MinTokenPartitioner(),
    ParCPartitioner(seed=0, max_passes=3),
    ParDPartitioner(seed=0),
    ParAPartitioner(seed=0),
    ParGPartitioner(k=3, seed=0),
]


class TestChunkEvenly:
    def test_sizes_differ_by_at_most_one(self):
        chunks = chunk_evenly(list(range(10)), 3)
        sizes = sorted(len(c) for c in chunks)
        assert sizes == [3, 3, 4]

    def test_fewer_items_than_groups(self):
        chunks = chunk_evenly([1, 2], 5)
        assert len(chunks) == 2

    def test_invalid_group_count(self):
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: type(p).__name__)
class TestContracts:
    def test_covers_database_disjointly(self, clustered, partitioner):
        partition = partitioner.partition(clustered, 4)
        assert partition.covers(len(clustered))

    def test_group_count_at_most_target(self, clustered, partitioner):
        partition = partitioner.partition(clustered, 4)
        assert 1 <= partition.num_groups <= 4

    def test_single_group(self, clustered, partitioner):
        partition = partitioner.partition(clustered, 1)
        assert partition.num_groups == 1
        assert partition.covers(len(clustered))


class TestQuality:
    @pytest.mark.parametrize(
        "partitioner",
        [
            ParDPartitioner(seed=0, sample_size=32),
            ParAPartitioner(seed=0, sample_size=16, candidate_sample=None),
            ParGPartitioner(k=3, seed=0),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_gpo_beats_random(self, clustered, partitioner):
        """Seed-growing heuristics should beat a random partition."""
        random_gpo = gpo(clustered, RandomPartitioner(seed=1).partition(clustered, 4))
        heuristic_gpo = gpo(clustered, partitioner.partition(clustered, 4))
        assert heuristic_gpo < random_gpo

    def test_par_c_never_worse_than_its_initialisation(self, clustered):
        """PAR-C only performs GPO-decreasing moves, so it cannot lose to
        its own random starting point.  (It often *stays* there: single-set
        moves that must temporarily increase GPO are never taken — exactly
        the local-optimum pathology Section 7.4 attributes to PAR-C.)
        """
        start_gpo = gpo(clustered, RandomPartitioner(seed=0).partition(clustered, 4))
        par_c = ParCPartitioner(seed=0, max_passes=5, sample_size=64)
        assert gpo(clustered, par_c.partition(clustered, 4)) <= start_gpo + 1e-9

    def test_min_token_groups_consecutive(self):
        # The token grouping, before the size bands split it.
        dataset = zipf_dataset(60, 50, (2, 5), seed=2)
        partition = MinTokenPartitioner()._group(dataset, 6)
        min_tokens = [
            [dataset.records[i].min_token() for i in group] for group in partition.groups
        ]
        flattened = [t for group in min_tokens for t in sorted(group)]
        # Sorting only within groups must already give a globally sorted list.
        assert flattened == sorted(flattened)

    def test_par_g_range_mode(self, clustered):
        partition = ParGPartitioner(k=None, threshold=0.3, seed=0).partition(clustered, 4)
        assert partition.covers(len(clustered))

    def test_par_g_rejects_ambiguous_workload(self):
        with pytest.raises(ValueError):
            ParGPartitioner(k=5, threshold=0.5)
        with pytest.raises(ValueError):
            ParGPartitioner(k=None, threshold=None)


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomPartitioner(seed=7),
            lambda: ParCPartitioner(seed=7),
            lambda: ParDPartitioner(seed=7),
            lambda: ParAPartitioner(seed=7),
        ],
        ids=["random", "par-c", "par-d", "par-a"],
    )
    def test_same_seed_same_partition(self, clustered, factory):
        first = factory().partition(clustered, 4)
        second = factory().partition(clustered, 4)
        assert first.groups == second.groups
