"""Sharded out-of-core loads: ``repro.load(..., mode="mmap"|"lazy")``.

Contract: both mmap-backed modes answer knn/range/join/batch
bit-identically to the in-memory load — for every shard count — while
``lazy`` additionally builds shard TGMs only on first visit, keeps at
most ``max_resident_shards`` of them resident (LRU, safe under
concurrent readers), and refuses in-memory mutation.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core import PersistenceError
from repro.datasets import zipf_dataset
from repro.distributed import LazyShardTGMs, ShardedLES3, save_sharded
from repro.partitioning import MinTokenPartitioner
from repro.workloads import sample_queries

SHARD_COUNTS = (1, 4, 8)


@pytest.fixture(scope="module")
def dataset():
    return zipf_dataset(220, 260, (2, 9), seed=13)


def build_sharded(dataset, shards):
    return ShardedLES3.build(
        dataset, shards, num_groups=12,
        partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        strategy="range",
    )


@pytest.fixture(scope="module")
def saved(dataset, tmp_path_factory):
    """One saved directory per shard count, plus the engines that wrote them."""
    root = tmp_path_factory.mktemp("sharded-saves")
    saves = {}
    for shards in SHARD_COUNTS:
        engine = build_sharded(dataset, shards)
        save_sharded(engine, root / f"S{shards}")
        saves[shards] = (engine, root / f"S{shards}")
    return saves


def str_queries(engine, count, seed=2):
    return [
        [str(engine.dataset.universe.token_of(t)) for t in query.tokens]
        for query in sample_queries(engine.dataset, count, seed=seed)
    ]


class TestModeEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", ["mmap", "lazy"])
    def test_answers_match_memory_load(self, saved, shards, mode):
        _, directory = saved[shards]
        memory = repro.load(directory)
        loaded = repro.load(directory, mode=mode)
        queries = str_queries(memory, 8)
        for tokens in queries:
            assert memory.knn(tokens, k=5).matches == loaded.knn(tokens, k=5).matches
            assert (
                memory.range(tokens, 0.4).matches == loaded.range(tokens, 0.4).matches
            )
        assert memory.join(0.5).pairs == loaded.join(0.5).pairs

    @pytest.mark.parametrize("mode", ["mmap", "lazy"])
    def test_batches_bit_identical(self, saved, mode):
        from repro.core.engine import as_query_record

        memory, directory = repro.load(saved[4][1]), saved[4][1]
        loaded = repro.load(directory, mode=mode)
        queries = [
            as_query_record(loaded.dataset, tokens) for tokens in str_queries(memory, 6)
        ]
        reference = [
            as_query_record(memory.dataset, tokens) for tokens in str_queries(memory, 6)
        ]
        assert [r.matches for r in loaded.batch_knn_record(queries, 5)] == [
            r.matches for r in memory.batch_knn_record(reference, 5)
        ]
        assert [r.matches for r in loaded.batch_range_record(queries, 0.4)] == [
            r.matches for r in memory.batch_range_record(reference, 0.4)
        ]

    def test_tombstones_survive_all_modes(self, dataset, tmp_path):
        engine = build_sharded(dataset, 4)
        engine.remove(3)
        engine.remove(11)
        save_sharded(engine, tmp_path / "idx")
        for mode in ("memory", "mmap", "lazy"):
            loaded = repro.load(tmp_path / "idx", mode=mode)
            assert loaded.removed == engine.removed, mode
            native = engine.tokens_of(3)
            assert 3 not in loaded.knn([str(t) for t in native], k=5).indices()


class TestLaziness:
    def test_tgms_build_on_demand_with_lru_eviction(self, saved):
        _, directory = saved[8]
        loaded = repro.load(directory, mode="lazy", max_resident_shards=2)
        assert loaded.is_lazy
        tgms = loaded.tgms
        assert isinstance(tgms, LazyShardTGMs)
        assert len(tgms.resident()) == 0  # nothing built by the load itself
        loaded.knn([str(loaded.dataset.universe.token_of(0))], k=3)
        assert 0 < len(tgms.resident()) <= 2  # visits build, the LRU bounds
        resident = len(tgms.resident())
        loaded.join(0.5)  # reads group memberships only ...
        assert len(tgms.resident()) == resident  # ... so it builds no shard TGM

    def test_answers_identical_even_with_capacity_one(self, saved):
        memory, (_, directory) = repro.load(saved[8][1]), saved[8]
        loaded = repro.load(directory, mode="lazy", max_resident_shards=1)
        for tokens in str_queries(memory, 5):
            assert memory.knn(tokens, k=4).matches == loaded.knn(tokens, k=4).matches
        assert memory.join(0.5).pairs == loaded.join(0.5).pairs

    def test_concurrent_readers_under_heavy_eviction(self, saved):
        """lazy with capacity 1, read from four threads at once (a library
        caller sharing one engine across threads): the readers hammer the
        shared LRU (build/evict/build) and must stay exact and crash-free."""
        from repro.core.engine import as_query_record

        memory, directory = repro.load(saved[8][1]), saved[8][1]
        loaded = repro.load(directory, mode="lazy", max_resident_shards=1)
        queries = [
            as_query_record(loaded.dataset, tokens) for tokens in str_queries(memory, 10)
        ]
        reference = [
            r.matches for r in memory.batch_knn_record(
                [as_query_record(memory.dataset, t) for t in str_queries(memory, 10)], 4
            )
        ]
        with ThreadPoolExecutor(max_workers=4) as readers:
            answers = list(readers.map(
                lambda _: [r.matches for r in loaded.batch_knn_record(queries, 4)],
                range(12),
            ))
        assert answers == [reference] * 12

    def test_lazy_engine_is_read_only(self, saved):
        loaded = repro.load(saved[4][1], mode="lazy")
        with pytest.raises(ValueError, match="read-only|lazily loaded"):
            loaded.insert(["anything"])
        with pytest.raises(ValueError, match="read-only|lazily loaded"):
            loaded.remove(0)

    def test_summary_without_forcing_builds(self, saved):
        """Group counts and sizes come from the manifests, not TGM builds."""
        memory, directory = repro.load(saved[8][1]), saved[8][1]
        loaded = repro.load(directory, mode="lazy")
        assert loaded.num_groups == memory.num_groups
        assert loaded.shard_sizes() == memory.shard_sizes()
        assert len(loaded.tgms.resident()) == 0

    def test_mmap_mode_still_mutable(self, dataset, tmp_path):
        engine = build_sharded(dataset, 2)
        save_sharded(engine, tmp_path / "idx")
        loaded = repro.load(tmp_path / "idx", mode="mmap")
        index, shard_id, _ = loaded.insert(["zz-new", "zz-also-new"])
        assert loaded.knn(["zz-new", "zz-also-new"], k=1).matches == [(index, 1.0)]
        # The insert went to the delta log, so a reload (any mode)
        # serves the new record too.
        reloaded = repro.load(tmp_path / "idx", mode="mmap")
        assert reloaded.knn(["zz-new", "zz-also-new"], k=1).matches == [(index, 1.0)]


class TestShardedRefusals:
    def test_pre_v3_save_refuses_mmap_modes(self, saved):
        _, directory = saved[1]
        import shutil

        legacy = directory.parent / "legacy"
        shutil.copytree(directory, legacy)
        (legacy / "dataset.bin").unlink()
        top = json.loads((legacy / "manifest.json").read_text())
        top.pop("dataset_bin_digest", None)
        (legacy / "manifest.json").write_text(json.dumps(top, indent=2) + "\n")
        memory = repro.load(legacy)
        assert memory.num_shards == 1  # memory mode unaffected
        for mode in ("mmap", "lazy"):
            with pytest.raises(PersistenceError, match="saved before format v3"):
                repro.load(legacy, mode=mode)

    def test_header_manifest_shard_count_mismatch(self, dataset, tmp_path):
        """A dataset.bin from a different save must not pair with this manifest."""
        engine = build_sharded(dataset, 2)
        save_sharded(engine, tmp_path / "idx")
        other = ShardedLES3.build(
            zipf_dataset(60, 80, (2, 6), seed=5), 2, num_groups=4,
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        )
        save_sharded(other, tmp_path / "other")
        (tmp_path / "idx" / "dataset.bin").write_bytes(
            (tmp_path / "other" / "dataset.bin").read_bytes()
        )
        with pytest.raises(PersistenceError, match="different saves"):
            repro.load(tmp_path / "idx", mode="mmap")

    def test_unknown_mode(self, saved):
        with pytest.raises(ValueError, match="unknown load mode"):
            repro.load(saved[1][1], mode="laser")
