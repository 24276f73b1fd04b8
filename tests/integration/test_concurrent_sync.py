"""``ColumnarView.sync()`` under concurrent readers: exactly one append.

A dataset's CSR view is shared by every index over it and caught up
lazily: whoever reads it first after an insert appends the new rows.
Several readers can arrive at once — the pool-thread shard builds of
``ShardedLES3.from_engine``/``build``/``repro.load`` over a dataset that
grew since its view was built, or library callers querying one engine
from several threads — and before PR 13 each of them appended the same
tail, leaving ``nnz``/offsets out of step with the records (spine defect
D1; PR 12 only pre-synced one call site).

The tests are deterministic, not timing-dependent: the tail read
``records[n:]`` sits inside ``sync()``'s window — after the "anything to
append?" check, before the rows are published — and here it waits at a
barrier for a second reader.  Without the lock two readers meet there
and both append; with it the second reader never gets in, the barrier
times out, and one append is recorded.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro import Dataset, LES3
from repro.core.columnar import ColumnarView
from repro.distributed import ShardedLES3, save_sharded
from repro.maintenance import rebalance_index
from repro.partitioning import MinTokenPartitioner
from repro.storage.columnar_file import LazyRecords
from repro.testing import oracle as scalar_oracle

READERS = 4
EXTRA = [[f"t{i % 17}", f"t{(i * 5) % 23}", f"new{i}"] for i in range(40)]


class TailReads:
    """Counts the tail reads of ``sync()`` and lets two of them overlap if they can."""

    def __init__(self) -> None:
        self.count = 0
        self._barrier = threading.Barrier(2)

    def meet(self) -> None:
        self.count += 1
        try:
            self._barrier.wait(timeout=0.1)
        except threading.BrokenBarrierError:
            pass  # nobody else got this far: the append is exclusive


class GatedList(list):
    """``dataset.records`` of an in-memory dataset, reporting slice reads."""

    gate: TailReads

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.gate.meet()
        return super().__getitem__(index)


def gate_in_memory(dataset: Dataset) -> TailReads:
    records = GatedList(dataset.records)
    records.gate = TailReads()
    dataset.records = records
    return records.gate


def gate_mapped(monkeypatch) -> TailReads:
    """Mapped datasets are created inside the loader: gate their record class."""
    gate = TailReads()
    plain = LazyRecords.__getitem__

    def gated(records, index):
        if isinstance(index, slice):
            gate.meet()
        return plain(records, index)

    monkeypatch.setattr(LazyRecords, "__getitem__", gated)
    return gate


def assert_view_matches_records(dataset: Dataset) -> None:
    view = dataset._columnar
    reference = ColumnarView(Dataset(list(dataset.records), dataset.universe))
    rows = reference.num_records
    assert view.num_records == rows == len(dataset.records)
    assert view.nnz == reference.nnz
    assert np.array_equal(view._offsets[: rows + 1], reference._offsets[: rows + 1])
    assert np.array_equal(view._sizes[:rows], reference._sizes[:rows])
    assert np.array_equal(view.flat_tokens(), reference.flat_tokens())
    assert np.array_equal(view.flat_counts(), reference.flat_counts())


def token_lists() -> list[list[str]]:
    return [[f"t{(i * 7 + j * 3) % 29}" for j in range(2 + i % 5)] for i in range(150)]


def stale_engine() -> LES3:
    """An engine whose CSR view exists and is ``len(EXTRA)`` records behind."""
    engine = LES3.build(
        Dataset.from_token_lists(token_lists()), num_groups=8,
        partitioner=MinTokenPartitioner(),
    )
    engine.knn(["t1", "t2"], 3)
    for tokens in EXTRA:
        engine.insert(tokens)
    assert engine.dataset._columnar.num_records == len(engine.dataset) - len(EXTRA)
    return engine


def from_engine(tmp_path, monkeypatch):
    engine = stale_engine()
    gate = gate_in_memory(engine.dataset)
    return gate, ShardedLES3.from_engine(engine, 8, workers=READERS), engine


def build(tmp_path, monkeypatch):
    engine = stale_engine()
    gate = gate_in_memory(engine.dataset)
    sharded = ShardedLES3.build(
        engine.dataset, 8, num_groups=8, workers=READERS,
        partitioner_factory=lambda shard_id: MinTokenPartitioner(),
    )
    return gate, sharded, engine


def pending_deltas(tmp_path) -> tuple[LES3, object]:
    """A saved 4-shard index with ``EXTRA`` (and two removes) still in ``delta.log``."""
    single = LES3.build(
        Dataset.from_token_lists(token_lists()), num_groups=8,
        partitioner=MinTokenPartitioner(),
    )
    save_sharded(ShardedLES3.from_engine(single, 4), tmp_path / "idx")
    writer = repro.load(tmp_path / "idx", mode="mmap", workers=1)
    for engine in (single, writer):
        for tokens in EXTRA:
            engine.insert(tokens)
        engine.remove(3)
        engine.remove(len(single.dataset) - 2)
    return single, tmp_path / "idx"


def load(tmp_path, monkeypatch):
    single, directory = pending_deltas(tmp_path)
    reference = repro.load(directory, mode="mmap", workers=1).dataset._columnar
    gate = gate_mapped(monkeypatch)
    loaded = repro.load(directory, mode="mmap", workers=READERS)
    view = loaded.dataset._columnar
    assert view.nnz == reference.nnz
    assert np.array_equal(view.flat_tokens(), reference.flat_tokens())
    return gate, loaded, single


def rebalance(tmp_path, monkeypatch):
    single, directory = pending_deltas(tmp_path)
    gate = gate_mapped(monkeypatch)
    assert rebalance_index(directory, 8, workers=READERS)["ops_folded"] == len(EXTRA) + 2
    appends = gate.count  # the load below is not the subject
    loaded = repro.load(directory, mode="mmap", workers=1)
    gate.count = appends
    return gate, loaded, single


@pytest.mark.parametrize("builders", [from_engine, build, load, rebalance])
def test_concurrent_builders_append_the_tail_once(builders, tmp_path, monkeypatch):
    gate, sharded, oracle = builders(tmp_path, monkeypatch)
    appends = gate.count
    monkeypatch.undo()
    assert appends == 1
    assert_view_matches_records(sharded.dataset)
    for tokens in EXTRA[::7] + [["t1", "t2"], ["t3", "t9", "t12"]]:
        assert sharded.knn(tokens, 5).matches == oracle.knn(tokens, 5).matches
        with scalar_oracle.armed():
            scalar = sharded.knn(tokens, 5).matches
        assert scalar == sharded.knn(tokens, 5).matches


def test_first_readers_share_one_view():
    """``Dataset.columnar()`` on a fresh dataset: two first readers, one layout.

    Until PR 16 both readers saw ``_columnar is None``, each filled a view
    of its own in full — they meet inside the tail read here — and one was
    thrown away.
    """
    dataset = Dataset.from_token_lists(token_lists())
    gate = gate_in_memory(dataset)
    start = threading.Barrier(2)
    views = []

    def first_use() -> None:
        start.wait(timeout=5)
        views.append(dataset.columnar())

    readers = [threading.Thread(target=first_use) for _ in range(2)]
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join(timeout=10)
    assert not any(reader.is_alive() for reader in readers)
    assert len(views) == 2 and views[0] is views[1] is dataset._columnar
    assert gate.count == 1
    assert_view_matches_records(dataset)
