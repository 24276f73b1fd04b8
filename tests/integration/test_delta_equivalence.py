"""Base+delta engines vs two independent oracles — the exactness contract.

A loaded generation with pending ``delta.log`` ops must answer every
query bit-identically to:

* **verify="scalar"** — the same engine re-verifying candidates with the
  scalar (per-record Python) path instead of the columnar kernels, and
* **a from-scratch rebuild** — an engine built over a dataset that
  already contains every inserted record as base data (no delta at all),
  with the same tombstones applied.

and this must hold across measures × shard placements × load modes,
live and replayed.  The delta is a durability mechanism, not an
approximation: no branch of the matrix is allowed to drift.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import LES3, Dataset
from repro.core.persistence import save_engine
from repro.datasets import zipf_dataset
from repro.distributed import save_sharded
from repro.distributed.sharded import ShardedLES3
from repro.partitioning import MinTokenPartitioner

INSERTS = [
    ["delta-eq-a", "delta-eq-b"],
    ["delta-eq-b", "delta-eq-c", "delta-eq-d"],
    ["7", "11", "delta-eq-a"],
]
REMOVALS = (0, 9, 41)


def minitoken_factory(shard_id: int) -> MinTokenPartitioner:
    return MinTokenPartitioner()


def base_token_lists(num_records=110, num_tokens=170, seed=29):
    dataset = zipf_dataset(num_records, num_tokens, (2, 6), seed=seed)
    # The text save format stringifies tokens, so loaded engines see
    # string tokens; feed the oracle strings too so universes agree.
    return [
        [str(dataset.universe.token_of(t)) for t in record.tokens]
        for record in dataset.records
    ]


def queries_for(engine):
    return [engine.tokens_of(i) for i in (2, 17, 60)] + [
        ["delta-eq-a", "delta-eq-b"],
        ["delta-eq-c", "delta-eq-d", "unseen-token"],
    ]


def mutate(engine):
    """The canonical delta workload: three inserts, three tombstones."""
    for tokens in INSERTS:
        engine.insert(tokens)
    for record_index in REMOVALS:
        engine.remove(record_index)


def rebuilt_oracle(token_lists, measure):
    """From-scratch build with the inserts as base data — no delta log."""
    dataset = Dataset.from_token_lists(token_lists + INSERTS)
    oracle = LES3.build(
        dataset, num_groups=6, partitioner=MinTokenPartitioner(), measure=measure
    )
    for record_index in REMOVALS:
        oracle.remove(record_index)
    return oracle


def assert_matches_oracles(engine, oracle, queries):
    for query in queries:
        for k in (1, 4, 9):
            got = engine.knn(query, k).matches
            assert got == oracle.knn(query, k).matches
            assert got == engine.knn(query, k, verify="scalar").matches
        for threshold in (0.0, 0.35, 0.8):
            got = engine.range(query, threshold).matches
            assert got == oracle.range(query, threshold).matches
            assert got == engine.range(query, threshold, verify="scalar").matches


class TestSingleEngineDeltaOracle:
    @pytest.fixture(scope="class")
    def token_lists(self):
        return base_token_lists()

    @pytest.mark.parametrize("measure", ["jaccard", "cosine", "dice", "containment"])
    @pytest.mark.parametrize("mode", ["memory", "mmap"])
    def test_measures_by_load_mode(self, token_lists, tmp_path, measure, mode):
        built = LES3.build(
            Dataset.from_token_lists(token_lists), num_groups=6,
            partitioner=MinTokenPartitioner(), measure=measure,
        )
        directory = tmp_path / f"{measure}-{mode}"
        save_engine(built, directory)
        engine = repro.load(directory, mode=mode)
        mutate(engine)
        assert engine._delta.num_ops == len(INSERTS) + len(REMOVALS)
        oracle = rebuilt_oracle(token_lists, measure)
        assert_matches_oracles(engine, oracle, queries_for(engine))

    def test_reloaded_delta_still_matches(self, token_lists, tmp_path):
        """The replayed delta (not just the live ops) matches the rebuild."""
        built = LES3.build(
            Dataset.from_token_lists(token_lists), num_groups=6,
            partitioner=MinTokenPartitioner(),
        )
        directory = tmp_path / "replayed"
        save_engine(built, directory)
        mutate(repro.load(directory))
        oracle = rebuilt_oracle(token_lists, "jaccard")
        for mode in ("memory", "mmap"):
            engine = repro.load(directory, mode=mode)
            assert_matches_oracles(engine, oracle, queries_for(engine))


class TestShardedDeltaOracle:
    @pytest.fixture(scope="class")
    def token_lists(self):
        return base_token_lists(seed=37)

    def saved_sharded(self, token_lists, tmp_path, *, shards=3, strategy="hash",
                      measure="jaccard"):
        built = ShardedLES3.build(
            Dataset.from_token_lists(token_lists), shards, num_groups=6,
            partitioner_factory=minitoken_factory, strategy=strategy,
            measure=measure,
        )
        directory = tmp_path / "sharded"
        save_sharded(built, directory)
        return directory

    @pytest.mark.parametrize("strategy", ["hash", "size", "range"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_placements_by_shard_count(self, token_lists, tmp_path, strategy, shards):
        directory = self.saved_sharded(
            token_lists, tmp_path, shards=shards, strategy=strategy
        )
        engine = repro.load(directory)
        mutate(engine)
        oracle = rebuilt_oracle(token_lists, "jaccard")
        assert_matches_oracles(engine, oracle, queries_for(engine))

    @pytest.mark.parametrize("mode", ["memory", "mmap", "lazy"])
    def test_every_load_mode_replays_the_delta(self, token_lists, tmp_path, mode):
        """A reload must replay exactly the pending ops, not serve the stale base."""
        directory = self.saved_sharded(token_lists, tmp_path)
        mutate(repro.load(directory))
        engine = repro.load(directory, mode=mode)
        oracle = rebuilt_oracle(token_lists, "jaccard")
        assert_matches_oracles(engine, oracle, queries_for(engine))

    @pytest.mark.parametrize("measure", ["cosine", "containment"])
    def test_measures(self, token_lists, tmp_path, measure):
        directory = self.saved_sharded(token_lists, tmp_path, measure=measure)
        engine = repro.load(directory, mode="mmap")
        mutate(engine)
        oracle = rebuilt_oracle(token_lists, measure)
        assert_matches_oracles(engine, oracle, queries_for(engine))
