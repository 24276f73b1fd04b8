"""Sharded persistence: save/load round trips and corruption detection.

The lifecycle contract: ``save_sharded`` → ``repro.load`` reproduces a
``ShardedLES3`` that answers knn/range/join bit-identically to the engine
that was saved — at any shard count, deletes included — and any corrupt
or partial save raises :class:`PersistenceError` instead of loading a
wrong-answer engine.
"""

from __future__ import annotations

import json
import shutil

import pytest

import repro
from repro.core import LES3, Dataset, PersistenceError
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3, save_sharded
from repro.core.persistence import shard_dir_name
from repro.partitioning import MinTokenPartitioner
from repro.workloads import sample_queries

SHARD_COUNTS = (1, 4, 8)


def minitoken_factory(shard_id: int) -> MinTokenPartitioner:
    return MinTokenPartitioner()


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    return zipf_dataset(220, 260, (2, 9), seed=13)


def build_sharded(dataset, shards, strategy="range") -> ShardedLES3:
    return ShardedLES3.build(
        dataset, shards, num_groups=12,
        partitioner_factory=minitoken_factory, strategy=strategy,
    )


def native_tokens(engine, query):
    """A query record's external tokens, as the engine's universe holds them."""
    return [engine.dataset.universe.token_of(t) for t in query.tokens]


def assert_same_answers(original, loaded, queries, k=5, threshold=0.4):
    """Same knn/range answers through external tokens, same join pairs.

    The loaded engine re-interned ``dataset.txt``, so queries travel as
    external tokens (string forms on the loaded side — that is what the
    text format stores); record indices and similarities must match
    exactly.
    """
    for query in queries:
        tokens = native_tokens(original, query)
        str_tokens = [str(t) for t in tokens]
        assert (
            original.knn(tokens, k).matches == loaded.knn(str_tokens, k).matches
        )
        assert (
            original.range(tokens, threshold).matches
            == loaded.range(str_tokens, threshold).matches
        )
    assert original.join(0.5).pairs == loaded.join(0.5).pairs


class TestRoundTrip:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bit_identical_at_every_shard_count(self, dataset, tmp_path, shards):
        engine = build_sharded(dataset, shards)
        save_sharded(engine, tmp_path / "idx")
        loaded = repro.load(tmp_path / "idx")
        assert loaded.num_shards == engine.num_shards
        assert loaded.shard_sizes() == engine.shard_sizes()
        assert_same_answers(engine, loaded, sample_queries(dataset, 8, seed=2))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_round_trip_after_removes(self, dataset, tmp_path, shards):
        engine = build_sharded(dataset, shards)
        for record_index in (3, 57, 120, 198):
            engine.remove(record_index)
        save_sharded(engine, tmp_path / "idx")
        loaded = repro.load(tmp_path / "idx")
        assert loaded.removed == engine.removed
        assert loaded.shard_sizes() == engine.shard_sizes()
        assert_same_answers(engine, loaded, sample_queries(dataset, 8, seed=3))

    def test_save_remove_save_load(self, dataset, tmp_path):
        """The worked docs example: a save can be refreshed in place."""
        engine = build_sharded(dataset, 4)
        save_sharded(engine, tmp_path / "idx")
        engine.remove(10)
        engine.remove(44)
        save_sharded(engine, tmp_path / "idx")  # same directory, new state
        loaded = repro.load(tmp_path / "idx")
        assert loaded.removed == engine.removed
        assert_same_answers(engine, loaded, sample_queries(dataset, 6, seed=4))

    def test_metadata_round_trips(self, dataset, tmp_path):
        engine = build_sharded(dataset, 4, strategy="size")
        save_sharded(engine, tmp_path / "idx")
        loaded = repro.load(tmp_path / "idx")
        assert loaded.placement == "size"
        assert loaded.measure.name == "jaccard"

    def test_from_engine_tombstones_carry_over(self, dataset, tmp_path):
        single = LES3.build(dataset, num_groups=10, partitioner=MinTokenPartitioner())
        single.remove(7)
        sharded = ShardedLES3.from_engine(single, 3)
        assert sharded.removed == {7: 0}
        save_sharded(sharded, tmp_path / "idx")
        loaded = repro.load(tmp_path / "idx")
        assert loaded.removed == {7: 0}
        assert loaded.placement == "lpt"
        assert single.join(0.6).pairs == loaded.join(0.6).pairs

    def test_resave_with_fewer_shards_drops_stale_dirs(self, dataset, tmp_path):
        save_sharded(build_sharded(dataset, 8), tmp_path / "idx")
        assert (tmp_path / "idx" / shard_dir_name(7)).is_dir()
        save_sharded(build_sharded(dataset, 2), tmp_path / "idx")
        assert not (tmp_path / "idx" / shard_dir_name(7)).exists()
        assert repro.load(tmp_path / "idx").num_shards == 2

    def test_save_attaches_the_delta_log(self, dataset, tmp_path):
        engine = build_sharded(dataset, 3)
        assert engine._delta is None  # never saved: nothing to append to
        save_sharded(engine, tmp_path / "idx")
        engine.remove(0)
        assert engine._delta.num_ops == 1
        assert (tmp_path / "idx" / "delta.log").is_file()

    def test_delta_mutations_survive_reload(self, dataset, tmp_path):
        engine = build_sharded(dataset, 3)
        save_sharded(engine, tmp_path / "idx")
        index, shard_id, _ = engine.insert(["delta-only", "tokens"])
        engine.remove(2)
        reloaded = repro.load(tmp_path / "idx")
        assert reloaded.knn(["delta-only", "tokens"], k=1).matches == [(index, 1.0)]
        assert reloaded.removed == engine.removed
        assert reloaded._delta.num_ops == 2


class TestCorruptionDetection:
    @pytest.fixture()
    def saved(self, dataset, tmp_path):
        engine = build_sharded(dataset, 4)
        engine.remove(11)
        save_sharded(engine, tmp_path / "idx")
        return tmp_path / "idx"

    def test_truncated_shard_manifest(self, saved):
        manifest = saved / shard_dir_name(1) / "manifest.json"
        manifest.write_text(manifest.read_text()[: len(manifest.read_text()) // 2])
        with pytest.raises(PersistenceError, match="digest mismatch"):
            repro.load(saved)

    def test_truncated_shard_manifest_with_matching_digest(self, saved):
        """Even a digest-consistent truncation fails as a clear JSON error."""
        shard_dir = saved / shard_dir_name(1)
        manifest = shard_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:25])
        top_path = saved / "manifest.json"
        top = json.loads(top_path.read_text())
        from repro.core.persistence import _shard_digest

        top["shards"][1]["digest"] = _shard_digest(shard_dir)
        top_path.write_text(json.dumps(top))
        with pytest.raises(PersistenceError, match="not valid JSON"):
            repro.load(saved)

    def test_missing_shard_subdirectory(self, saved):
        shutil.rmtree(saved / shard_dir_name(2))
        with pytest.raises(PersistenceError, match="missing shard subdirectory"):
            repro.load(saved)

    def test_shard_count_mismatch(self, saved):
        top_path = saved / "manifest.json"
        top = json.loads(top_path.read_text())
        top["num_shards"] = 5
        top_path.write_text(json.dumps(top))
        with pytest.raises(PersistenceError, match="shard count mismatch"):
            repro.load(saved)

    def test_tampered_groups(self, saved):
        groups_path = saved / shard_dir_name(0) / "groups.json"
        groups = json.loads(groups_path.read_text())
        groups[0] = groups[0][1:]
        groups_path.write_text(json.dumps(groups))
        with pytest.raises(PersistenceError, match="digest mismatch"):
            repro.load(saved)

    def test_groups_not_covering_despite_matching_digest(self, saved):
        """Coverage is checked globally even when every digest is honest."""
        shard_dir = saved / shard_dir_name(0)
        groups_path = shard_dir / "groups.json"
        groups = json.loads(groups_path.read_text())
        groups[0] = groups[0][1:]
        groups_path.write_text(json.dumps(groups))
        top_path = saved / "manifest.json"
        top = json.loads(top_path.read_text())
        from repro.core.persistence import _shard_digest

        top["shards"][0]["digest"] = _shard_digest(shard_dir)
        top_path.write_text(json.dumps(top))
        with pytest.raises(PersistenceError, match="cover"):
            repro.load(saved)

    def test_tampered_dataset(self, saved):
        """Editing dataset.txt (same record count) must not load silently."""
        data_path = saved / "dataset.txt"
        lines = data_path.read_text().splitlines()
        lines[0] = "totally different tokens"
        data_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="dataset.txt digest"):
            repro.load(saved)

    def test_verify_fields_are_ignored_even_when_they_disagree(self, saved):
        """Older saves carry 'verify' per manifest; nothing reads it any more."""
        expected = repro.load(saved).knn(["1", "2", "3"], k=5)
        shard_dir = saved / shard_dir_name(2)
        manifest = json.loads((shard_dir / "manifest.json").read_text())
        assert "verify" not in manifest
        manifest["verify"] = "scalar"
        (shard_dir / "manifest.json").write_text(json.dumps(manifest))
        top_path = saved / "manifest.json"
        top = json.loads(top_path.read_text())
        assert "verify" not in top
        from repro.core.persistence import _shard_digest

        top["shards"][2]["digest"] = _shard_digest(shard_dir)
        top["verify"] = "Columnar"
        top_path.write_text(json.dumps(top))
        answer = repro.load(saved).knn(["1", "2", "3"], k=5)
        assert (answer.matches, answer.stats) == (expected.matches, expected.stats)

    def test_unsupported_sharded_format_version(self, saved):
        top_path = saved / "manifest.json"
        top = json.loads(top_path.read_text())
        top["sharded_format_version"] = 99
        top_path.write_text(json.dumps(top))
        with pytest.raises(PersistenceError, match="format version"):
            repro.load(saved)

    def test_truncated_top_level_manifest(self, saved):
        top_path = saved / "manifest.json"
        top_path.write_text(top_path.read_text()[:40])
        with pytest.raises(PersistenceError, match="not valid JSON"):
            repro.load(saved)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro.load(tmp_path / "nope")

    def test_duplicate_tombstone_across_shards(self, saved):
        """A record tombstoned by two shards is corruption, not a delete."""
        # Record 11 was removed from some shard; tombstone it in another too.
        top = json.loads((saved / "manifest.json").read_text())
        owner = next(
            shard_id for shard_id in range(4)
            if 11 in json.loads(
                (saved / shard_dir_name(shard_id) / "manifest.json").read_text()
            )["deleted"]
        )
        other = (owner + 1) % 4
        other_dir = saved / shard_dir_name(other)
        manifest = json.loads((other_dir / "manifest.json").read_text())
        manifest["deleted"] = [11]
        (other_dir / "manifest.json").write_text(json.dumps(manifest))
        from repro.core.persistence import _shard_digest

        top["shards"][other]["digest"] = _shard_digest(other_dir)
        (saved / "manifest.json").write_text(json.dumps(top))
        with pytest.raises(PersistenceError, match="more than one shard"):
            repro.load(saved)
