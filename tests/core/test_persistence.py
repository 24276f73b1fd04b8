"""Tests for engine persistence (save/load round trips, corruption checks)."""

import json

import pytest

import repro
from repro.core import LES3, Dataset, save_engine
from repro.partitioning import MinTokenPartitioner
from repro.workloads import sample_queries


@pytest.fixture()
def engine(zipf_small):
    dataset = Dataset(list(zipf_small.records), zipf_small.universe.copy())
    return LES3.build(dataset, num_groups=8, partitioner=MinTokenPartitioner())


class TestRoundTrip:
    def test_structure_preserved(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        loaded = repro.load(tmp_path / "index")
        assert loaded.tgm.num_groups == engine.tgm.num_groups
        assert len(loaded.dataset) == len(engine.dataset)
        assert sorted(map(len, loaded.tgm.group_members)) == sorted(
            map(len, engine.tgm.group_members)
        )

    def test_external_token_queries_agree(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        loaded = repro.load(tmp_path / "index")
        for query in sample_queries(engine.dataset, 10, seed=41):
            tokens = [engine.dataset.universe.token_of(t) for t in query.distinct]
            original = {
                (frozenset(engine.tokens_of(i)), round(s, 12))
                for i, s in engine.range(tokens, 0.5).matches
            }
            reloaded = {
                (frozenset(str(t) for t in loaded.tokens_of(i)), round(s, 12))
                for i, s in loaded.range([str(t) for t in tokens], 0.5).matches
            }
            assert {(frozenset(str(t) for t in ts), s) for ts, s in original} == reloaded

    def test_measure_and_backend_preserved(self, zipf_small, tmp_path):
        dataset = Dataset(list(zipf_small.records), zipf_small.universe.copy())
        engine = LES3.build(
            dataset,
            num_groups=4,
            partitioner=MinTokenPartitioner(),
            measure="cosine",
            backend="roaring",
        )
        save_engine(engine, tmp_path / "index")
        loaded = repro.load(tmp_path / "index")
        assert loaded.measure.name == "cosine"
        assert loaded.tgm.backend == "roaring"

    def test_save_is_idempotent(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        save_engine(engine, tmp_path / "index")
        assert repro.load(tmp_path / "index").tgm.num_groups == engine.tgm.num_groups


class TestDeleteRoundTrip:
    """An engine that saw remove_set must save and load (manifest v2)."""

    def assert_same_answers(self, engine, loaded, queries, threshold=0.4, k=5):
        for query in queries:
            tokens = [engine.dataset.universe.token_of(t) for t in query.distinct]
            loaded_tokens = [str(t) for t in tokens]
            live_range = {
                (frozenset(str(t) for t in engine.tokens_of(i)), s)
                for i, s in engine.range(tokens, threshold).matches
            }
            reloaded_range = {
                (frozenset(str(t) for t in loaded.tokens_of(i)), s)
                for i, s in loaded.range(loaded_tokens, threshold).matches
            }
            assert live_range == reloaded_range
            live_knn = [s for _, s in engine.knn(tokens, k).matches]
            reloaded_knn = [s for _, s in loaded.knn(loaded_tokens, k).matches]
            assert live_knn == reloaded_knn

    def test_round_trip_after_removes(self, engine, tmp_path):
        engine.remove(2)
        engine.remove(17)
        engine.remove(105)
        save_engine(engine, tmp_path / "index")
        loaded = repro.load(tmp_path / "index")
        assert loaded.removed == {2, 17, 105}
        assert len(loaded.dataset) == len(engine.dataset)  # indices stay stable
        self.assert_same_answers(engine, loaded, sample_queries(engine.dataset, 8, seed=44))
        assert loaded.join(0.6).pairs == engine.join(0.6).pairs

    def test_round_trip_after_interleaved_updates(self, engine, tmp_path):
        engine.remove(0)
        engine.insert(["brand", "new", "tokens"])
        engine.remove(30)
        engine.insert(["9000"])
        save_engine(engine, tmp_path / "index")
        loaded = repro.load(tmp_path / "index")
        assert loaded.removed == {0, 30}
        self.assert_same_answers(engine, loaded, sample_queries(engine.dataset, 6, seed=45))
        assert loaded.join(0.5).pairs == engine.join(0.5).pairs

    def test_verify_mode_round_trips(self, engine, tmp_path):
        engine.verify = "scalar"
        save_engine(engine, tmp_path / "index")
        assert repro.load(tmp_path / "index").verify == "scalar"
        engine.verify = "columnar"
        save_engine(engine, tmp_path / "index")
        assert repro.load(tmp_path / "index").verify == "columnar"

    def test_v1_directories_still_load(self, engine, tmp_path):
        """Pre-delete-aware manifests (format 1) must keep loading."""
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        del manifest["deleted"]
        del manifest["verify"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = repro.load(tmp_path / "index")
        assert loaded.removed == set()
        assert loaded.verify == "columnar"
        assert loaded.tgm.num_groups == engine.tgm.num_groups

    def test_deleted_out_of_range_rejected(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["deleted"] = [len(engine.dataset) + 5]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="deleted"):
            repro.load(tmp_path / "index")

    def test_unknown_verify_mode_rejected(self, engine, tmp_path):
        """A corrupt 'verify' fails at load, not at the first query."""
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["verify"] = "scalr"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="verify"):
            repro.load(tmp_path / "index")

    def test_orphaned_record_is_not_laundered_into_tombstone(self, engine, tmp_path):
        """save writes the engine's delete log, not the unassigned records.

        A record missing from every group *without* having been removed is
        an orphan (partitioner bug, hand-built TGM); the saved index must
        keep failing the load-time coverage check instead of silently
        legitimizing it as a delete.
        """
        for members in engine.tgm.group_members:
            if members:
                members.pop()  # orphan one record behind the engine's back
                break
        save_engine(engine, tmp_path / "index")
        with pytest.raises(ValueError, match="cover"):
            repro.load(tmp_path / "index")

    @pytest.mark.parametrize("bad", [["0"], [True], [1.5], "0", {"a": 1}])
    def test_deleted_non_integer_rejected(self, engine, tmp_path, bad):
        """Corrupt 'deleted' entries must raise ValueError, not TypeError."""
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["deleted"] = bad
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="deleted"):
            repro.load(tmp_path / "index")

    def test_deleted_record_still_grouped_rejected(self, engine, tmp_path):
        """A record cannot be both deleted and a group member."""
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["deleted"] = [0]  # record 0 is still in groups.json
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="cover"):
            repro.load(tmp_path / "index")


class TestCorruptionDetection:
    def test_version_mismatch(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            repro.load(tmp_path / "index")

    def test_record_count_mismatch(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        data_path = tmp_path / "index" / "dataset.txt"
        data_path.write_text(data_path.read_text() + "extra tokens here\n")
        with pytest.raises(ValueError, match="corrupt"):
            repro.load(tmp_path / "index")

    def test_groups_not_covering(self, engine, tmp_path):
        save_engine(engine, tmp_path / "index")
        groups_path = tmp_path / "index" / "groups.json"
        groups = json.loads(groups_path.read_text())
        groups[0] = groups[0][1:]  # drop one record
        groups_path.write_text(json.dumps(groups))
        with pytest.raises(ValueError, match="cover"):
            repro.load(tmp_path / "index")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro.load(tmp_path / "nope")

    def test_tampered_dataset_same_count(self, engine, tmp_path):
        """Editing dataset.txt without changing the record count is caught."""
        save_engine(engine, tmp_path / "index")
        data_path = tmp_path / "index" / "dataset.txt"
        lines = data_path.read_text().splitlines()
        lines[0] = "totally different tokens"
        data_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="digest"):
            repro.load(tmp_path / "index")

    def test_digestless_v2_manifest_still_loads(self, engine, tmp_path):
        """Saves written before dataset_digest existed skip the check."""
        save_engine(engine, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["dataset_digest"]
        manifest_path.write_text(json.dumps(manifest))
        assert repro.load(tmp_path / "index").tgm.num_groups == engine.tgm.num_groups
