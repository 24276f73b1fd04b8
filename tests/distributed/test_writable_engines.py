"""Regression tests: mutating out-of-core engines (``mode="mmap"``/``"lazy"``).

The historical failure modes this file pins down:

* ``mode="mmap"`` loads used to blow up (or silently build a throwaway
  in-RAM copy) on ``insert``/``remove``.  Now the mapped CSR view grows
  an in-RAM tail — the base segment stays the ``np.memmap`` pages — and
  the mutation is appended to the generation's ``delta.log``, so a
  reload (any mode) replays to exactly the mutated state.
* ``mode="lazy"`` sharded loads rebuild shard TGMs from disk on LRU
  eviction, so an in-memory mutation would be silently undone.  The
  engine must refuse with a clear :class:`PersistenceError` naming the
  modes that *can* mutate — not an ``AttributeError`` from some
  half-initialized write path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import LES3, Dataset
from repro.core.delta import DELTA_LOG
from repro.core.persistence import PersistenceError, save_engine
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3, save_sharded
from repro.partitioning import MinTokenPartitioner
from repro.storage import MappedColumnarView


@pytest.fixture(scope="module")
def dataset() -> Dataset:
    return zipf_dataset(90, 120, (2, 6), seed=11)


@pytest.fixture()
def engine_dir(dataset, tmp_path):
    engine = LES3.build(
        Dataset(list(dataset.records), dataset.universe.copy()),
        num_groups=5,
        partitioner=MinTokenPartitioner(),
    )
    directory = tmp_path / "engine"
    save_engine(engine, directory)
    return directory


@pytest.fixture()
def sharded_dir(dataset, tmp_path):
    engine = ShardedLES3.build(
        dataset, 3, num_groups=6,
        partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        strategy="range",
    )
    directory = tmp_path / "sharded"
    save_sharded(engine, directory)
    return directory


class TestMmapMutation:
    def test_insert_lands_in_tail_not_in_mapped_base(self, engine_dir):
        engine = repro.load(engine_dir, mode="mmap")
        view = engine.dataset._columnar
        assert isinstance(view, MappedColumnarView)
        base_tokens = view._tokens
        base_nnz = view._base_nnz

        index, _group = engine.insert(["mmap-new-a", "mmap-new-b"])

        assert sorted(engine.tokens_of(index)) == ["mmap-new-a", "mmap-new-b"]
        assert engine.knn(["mmap-new-a", "mmap-new-b"], 1).matches[0][0] == index
        # The query synced the appended record into the CSR tail; the
        # mapped base segment is untouched — same ndarray over the same
        # pages, same length — and the new entries live past it.
        assert view._tokens is base_tokens
        assert view._base_nnz == base_nnz
        assert view._nnz > base_nnz

    def test_mmap_mutations_are_durable(self, engine_dir):
        engine = repro.load(engine_dir, mode="mmap")
        index, _ = engine.insert(["mmap-durable-x", "mmap-durable-y"])
        engine.remove(3)
        assert (engine_dir / DELTA_LOG).exists()

        for mode in ("memory", "mmap"):
            reloaded = repro.load(engine_dir, mode=mode)
            assert sorted(reloaded.tokens_of(index)) == [
                "mmap-durable-x", "mmap-durable-y",
            ]
            assert 3 in reloaded.removed
            query = sorted(engine.tokens_of(0))
            assert reloaded.knn(query, 5).matches == engine.knn(query, 5).matches

    def test_sharded_mmap_mutation_durable(self, sharded_dir):
        engine = repro.load(sharded_dir, mode="mmap")
        index, shard, _group = engine.insert(["shard-mmap-a", "shard-mmap-b"])
        engine.remove(5)
        expected = engine.knn(["shard-mmap-a", "shard-mmap-b"], 3).matches
        assert (sharded_dir / DELTA_LOG).exists()
        reloaded = repro.load(sharded_dir, mode="mmap")
        assert reloaded.knn(["shard-mmap-a", "shard-mmap-b"], 3).matches == expected
        assert 5 in reloaded.removed
        assert reloaded._shard_of[index] == shard


class TestLazyIsReadOnly:
    def test_insert_raises_persistence_error(self, sharded_dir):
        engine = repro.load(sharded_dir, mode="lazy")
        with pytest.raises(PersistenceError, match="lazily loaded.*mode='mmap'"):
            engine.insert(["lazy-a", "lazy-b"])

    def test_remove_raises_persistence_error(self, sharded_dir):
        engine = repro.load(sharded_dir, mode="lazy")
        with pytest.raises(PersistenceError, match="read-only|lazily loaded"):
            engine.remove(0)

    def test_refusal_leaves_engine_and_save_untouched(self, sharded_dir):
        engine = repro.load(sharded_dir, mode="lazy")
        before = engine.knn(engine.tokens_of(0), 4).matches
        with pytest.raises(PersistenceError):
            engine.insert(["lazy-c"])
        assert engine.knn(engine.tokens_of(0), 4).matches == before
        assert not (sharded_dir / DELTA_LOG).exists()
        assert len(repro.load(sharded_dir).removed) == 0


class TestNeverSavedDegrade:
    """Mutating after the backing generation vanished keeps the engine live."""

    def test_engine_survives_deleted_generation(self, engine_dir):
        import shutil

        engine = repro.load(engine_dir)
        shutil.rmtree(engine_dir)
        index, _ = engine.insert(["orphan-a", "orphan-b"])
        assert engine._delta is None  # degraded to never-saved
        assert engine.knn(["orphan-a", "orphan-b"], 1).matches[0][0] == index

    def test_sharded_survives_deleted_generation(self, sharded_dir):
        import shutil

        engine = repro.load(sharded_dir)
        shutil.rmtree(sharded_dir)
        index, _shard, _group = engine.insert(["orphan-c", "orphan-d"])
        assert engine._delta is None  # degraded to never-saved
        assert engine.knn(["orphan-c", "orphan-d"], 1).matches[0][0] == index


def test_mapped_base_tokens_stay_memmap_backed(engine_dir):
    """The insert must not silently materialize the base into RAM."""
    engine = repro.load(engine_dir, mode="mmap")
    view = engine.dataset._columnar
    engine.insert(["still-mapped"])
    base = view._tokens
    # np.memmap subclasses ndarray; the base chunk of flat_tokens() must
    # come from the mapped buffer, not a RAM copy.
    assert isinstance(base, np.ndarray)
    assert base.base is not None, "base tokens were copied out of the map"
