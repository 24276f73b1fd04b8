"""Single-engine out-of-core loads: ``repro.load(..., mode="mmap")``.

Contract: an mmap load answers knn/range/join bit-identically to the
in-memory text load of the same save — deletes and verify mode included —
without materializing the dataset's records; pre-v3 directories (no
``dataset.bin``) and directories whose binary header disagrees with the
manifest refuse to load.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.core import LES3, Dataset, PersistenceError, save_engine
from repro.partitioning import MinTokenPartitioner
from repro.storage.columnar_file import LazyRecords
from repro.workloads import sample_queries


@pytest.fixture()
def engine(zipf_small):
    dataset = Dataset(list(zipf_small.records), zipf_small.universe.copy())
    return LES3.build(dataset, num_groups=8, partitioner=MinTokenPartitioner())


@pytest.fixture()
def index_dir(engine, tmp_path):
    save_engine(engine, tmp_path / "index")
    return tmp_path / "index"


def str_queries(engine, count, seed=3):
    """Query token lists in the string normal form both load paths share."""
    return [
        [str(engine.dataset.universe.token_of(t)) for t in query.tokens]
        for query in sample_queries(engine.dataset, count, seed=seed)
    ]


class TestMmapEquivalence:
    def test_knn_range_join_bit_identical(self, engine, index_dir):
        memory = repro.load(index_dir)
        mapped = repro.load(index_dir, mode="mmap")
        for tokens in str_queries(engine, 10):
            assert memory.knn(tokens, k=5).matches == mapped.knn(tokens, k=5).matches
            assert (
                memory.range(tokens, 0.4).matches == mapped.range(tokens, 0.4).matches
            )
        assert memory.join(0.5).pairs == mapped.join(0.5).pairs

    def test_scalar_verify_matches_too(self, index_dir):
        memory = repro.load(index_dir)
        mapped = repro.load(index_dir, mode="mmap")
        tokens = [str(t) for t in memory.tokens_of(0)]
        assert (
            memory.knn(tokens, k=4, verify="scalar").matches
            == mapped.knn(tokens, k=4, verify="scalar").matches
            == mapped.knn(tokens, k=4, verify="columnar").matches
        )

    def test_mmap_load_does_not_materialize_records(self, index_dir):
        mapped = repro.load(index_dir, mode="mmap")
        records = mapped.dataset.records
        assert isinstance(records, LazyRecords)
        assert len(records._cache) == 0 and not records._overlay
        # A columnar-path query still materializes nothing.
        tokens = [str(mapped.dataset.universe.token_of(0))]
        mapped.knn(tokens, k=3)
        assert len(records._cache) == 0

    def test_deletes_round_trip_through_mmap(self, engine, tmp_path):
        engine.remove(0)
        engine.remove(7)
        save_engine(engine, tmp_path / "index")
        mapped = repro.load(tmp_path / "index", mode="mmap")
        assert mapped.removed == {0, 7}
        native = engine.tokens_of(0)
        tokens = [str(t) for t in native]
        assert 0 not in mapped.knn(tokens, k=5).indices()
        assert mapped.knn(tokens, k=5).matches == engine.knn(native, k=5).matches

    def test_insert_on_mapped_engine_still_works(self, index_dir):
        mapped = repro.load(index_dir, mode="mmap")
        before = len(mapped.dataset)
        index, _ = mapped.insert(["brand-new-token", "another-one"])
        assert index == before
        assert mapped.knn(["brand-new-token", "another-one"], k=1).matches == [
            (index, 1.0)
        ]

    def test_stats_served_from_the_mapping(self, engine, index_dir):
        mapped = repro.load(index_dir, mode="mmap")
        assert mapped.dataset.stats() == engine.dataset.stats()
        assert len(mapped.dataset.records._cache) == 0


class TestMmapRefusals:
    def test_unknown_mode(self, index_dir):
        with pytest.raises(ValueError, match="unknown load mode"):
            repro.load(index_dir, mode="laser")

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_directory_has_no_binary_dataset(self, index_dir, version):
        """v1/v2 saves (text only) still load in memory mode, never mmap."""
        (index_dir / "dataset.bin").unlink()
        manifest = json.loads((index_dir / "manifest.json").read_text())
        manifest["format_version"] = version
        for field in ("dataset_digest", "dataset_bin_digest"):
            manifest.pop(field, None)
        if version == 1:
            for field in ("verify", "deleted"):
                manifest.pop(field, None)
        (index_dir / "manifest.json").write_text(json.dumps(manifest))
        assert repro.load(index_dir).verify == "columnar"  # memory path is fine
        with pytest.raises(PersistenceError, match="saved before format v3"):
            repro.load(index_dir, mode="mmap")

    def test_header_manifest_record_count_mismatch(self, index_dir):
        manifest = json.loads((index_dir / "manifest.json").read_text())
        manifest["num_records"] += 1
        (index_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="mixes files from different saves"):
            repro.load(index_dir, mode="mmap")

    def test_truncated_binary_dataset(self, index_dir):
        path = index_dir / "dataset.bin"
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(PersistenceError, match="shorter than its header claims"):
            repro.load(index_dir, mode="mmap")
        # The text path is untouched by binary corruption.
        assert repro.load(index_dir).num_groups > 0
