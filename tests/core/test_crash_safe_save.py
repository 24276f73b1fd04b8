"""Crash-safe saves: interrupt ``save_engine``/``save_sharded`` everywhere.

The contract under test (``atomic_directory``): a save interrupted at
*any* fsync/rename point leaves the target directory either absent or
fully loadable — for overwrites, loadable as exactly the old or the new
generation — never a half-written tree that ``load`` rejects with
:class:`PersistenceError`.

The matrix is discovered, not hand-written: ``recording()`` captures the
ordered ``(point, detail)`` trace of a clean save, and every occurrence
becomes one targeted injection via ``skip=<prior identical hits>``.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import Dataset, LES3, save_engine
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3, save_sharded
from repro.partitioning import MinTokenPartitioner
from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    armed,
    disarm,
    recording,
)


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


def minitoken_factory(shard_id: int) -> MinTokenPartitioner:
    return MinTokenPartitioner()


@pytest.fixture(scope="module")
def small_dataset() -> Dataset:
    return zipf_dataset(120, 160, (2, 7), seed=5)


@pytest.fixture(scope="module")
def other_dataset() -> Dataset:
    return zipf_dataset(90, 160, (2, 7), seed=6)


def build_engine(dataset: Dataset) -> LES3:
    data = Dataset(list(dataset.records), dataset.universe.copy())
    return LES3.build(data, num_groups=6, partitioner=MinTokenPartitioner())


def build_sharded(dataset: Dataset) -> ShardedLES3:
    return ShardedLES3.build(
        dataset, 3, num_groups=6,
        partitioner_factory=minitoken_factory, strategy="range",
    )


def record_trace(save, tmp_path):
    """The ordered (point, detail) hits of one clean save."""
    with recording() as trace:
        save(tmp_path / "probe")
    assert trace, "a save must traverse at least one injection point"
    return trace


def injections(trace):
    """One (point, skip) per occurrence in the trace.

    Details carry the probe directory's path, which differs between
    saves, so occurrences are keyed by point alone: the *n*-th hit of a
    point in the probe is the *n*-th hit in the real save too.
    """
    seen: dict[str, int] = {}
    for point, _detail in trace:
        skip = seen.get(point, 0)
        seen[point] = skip + 1
        yield point, skip


def assert_absent_or_loads(target, load, sizes):
    """Post-crash state: absent, or loads as a complete known generation."""
    if not target.exists():
        return
    loaded = load(target)
    try:
        assert len(loaded.dataset) in sizes
    finally:
        close = getattr(loaded, "close", None)
        if close is not None:
            close()


class TestSaveEngineMatrix:
    def test_fresh_save_interrupted_everywhere(self, small_dataset, tmp_path):
        engine = build_engine(small_dataset)
        trace = record_trace(lambda d: save_engine(engine, d), tmp_path)
        for n, (point, skip) in enumerate(injections(trace)):
            target = tmp_path / f"fresh-{n}"
            plan = FaultPlan([FaultRule(point, skip=skip)])
            with armed(plan):
                with pytest.raises(InjectedFault):
                    save_engine(engine, target)
            assert_absent_or_loads(target, repro.load, {len(engine.dataset)})
            assert not list(tmp_path.glob(f"fresh-{n}.tmp-*")), (
                f"staging left behind after fault at {point} #{skip}"
            )

    def test_overwrite_interrupted_everywhere(
        self, small_dataset, other_dataset, tmp_path
    ):
        old = build_engine(small_dataset)
        new = build_engine(other_dataset)
        assert len(old.dataset) != len(new.dataset)
        trace = record_trace(lambda d: save_engine(new, d), tmp_path)
        sizes = {len(old.dataset), len(new.dataset)}
        for n, (point, skip) in enumerate(injections(trace)):
            target = tmp_path / f"over-{n}"
            save_engine(old, target)
            plan = FaultPlan([FaultRule(point, skip=skip)])
            with armed(plan):
                with pytest.raises(InjectedFault):
                    save_engine(new, target)
            assert_absent_or_loads(target, repro.load, sizes)

    def test_exception_mid_swap_rolls_old_generation_back(
        self, small_dataset, other_dataset, tmp_path
    ):
        # save.swap_mid fires between the two renames: the exception path
        # must restore the old generation rather than leave it parked.
        old = build_engine(small_dataset)
        new = build_engine(other_dataset)
        target = tmp_path / "idx"
        save_engine(old, target)
        with armed(FaultPlan([FaultRule("save.swap_mid")])):
            with pytest.raises(InjectedFault):
                save_engine(new, target)
        assert target.exists()
        assert len(repro.load(target).dataset) == len(old.dataset)

    def test_stale_siblings_cleared_by_next_save(self, small_dataset, tmp_path):
        engine = build_engine(small_dataset)
        target = tmp_path / "idx"
        for name in ("idx.tmp-999", "idx.old-999"):
            stale = tmp_path / name
            stale.mkdir()
            (stale / "junk.bin").write_bytes(b"\x00" * 16)
        save_engine(engine, target)
        assert not list(tmp_path.glob("idx.tmp-*"))
        assert not list(tmp_path.glob("idx.old-*"))
        assert len(repro.load(target).dataset) == len(engine.dataset)


class TestSaveShardedMatrix:
    def test_fresh_save_interrupted_everywhere(self, small_dataset, tmp_path):
        engine = build_sharded(small_dataset)
        trace = record_trace(lambda d: save_sharded(engine, d), tmp_path)
        for n, (point, skip) in enumerate(injections(trace)):
            target = tmp_path / f"fresh-{n}"
            plan = FaultPlan([FaultRule(point, skip=skip)])
            with armed(plan):
                with pytest.raises(InjectedFault):
                    save_sharded(engine, target)
            assert_absent_or_loads(target, repro.load, {len(engine.dataset)})
            assert not list(tmp_path.glob(f"fresh-{n}.tmp-*"))

    def test_overwrite_interrupted_everywhere(
        self, small_dataset, other_dataset, tmp_path
    ):
        old = build_sharded(small_dataset)
        new = build_sharded(other_dataset)
        trace = record_trace(lambda d: save_sharded(new, d), tmp_path)
        sizes = {len(old.dataset), len(new.dataset)}
        for n, (point, skip) in enumerate(injections(trace)):
            target = tmp_path / f"over-{n}"
            save_sharded(old, target)
            plan = FaultPlan([FaultRule(point, skip=skip)])
            with armed(plan):
                with pytest.raises(InjectedFault):
                    save_sharded(new, target)
            assert_absent_or_loads(target, repro.load, sizes)
